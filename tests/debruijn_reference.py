"""Reference de Bruijn traversals: the hand-written versions of
`parser._unshift` and `conversion._reify_type`, kept as the oracles that
their `rebind`-based versions are property-tested against; the
per-question binder-use walk `_uses_binder_at`, the oracle of the mask
bits the printer reads; the recursive `terms.well_scoped`, the oracle of
the version that reads the free-variable mask `_free`; the recursive
`transforms._match_candidates`, the oracle of its explicit-stack loop;
`free` and `reach`, the oracles of the `_free` mask that every node
computes from its children when it is built (its set bits and its bit
length); and `classes`, the oracle of the `_has` mask of the node classes
that occur in a term.

Each walks the term with its own `Var` case and its own `map_subterms`
(or `children`) recursion, so it shares none of `rebind` or of the loops;
`map_subterms`, `children`, and `lift` where a replacement is lifted, are
common to both. `lift` itself is checked against the named-variable
calculus in `tests/named_calculus.py`.
"""

from __future__ import annotations

from folbridge.conversion import EvalError, Value, VType
from folbridge.terms import Match, Term, Var, children, lift, map_subterms


def _unshift(t: Term, amount: int) -> Term | None:
    """Inverse of lift when the lowest `amount` indices are unused."""
    def go(s: Term, depth: int):
        if isinstance(s, Var):
            if s.index < depth:
                return s
            if s.index < depth + amount:
                raise _UnshiftHit()
            return Var(s.index - amount)
        return map_subterms(s, lambda c, extra: go(c, depth + extra))
    try:
        return go(t, 0)
    except _UnshiftHit:
        return None


class _UnshiftHit(Exception):
    pass


def _reify_type(t: Term, venv: tuple[Value, ...]) -> Term:
    """Resolve Var references inside a type argument to the closed types
    recorded in the value environment."""
    if isinstance(t, Var):
        v = venv[t.index]
        if not isinstance(v, VType):
            raise EvalError("type argument position held a non-type value")
        return v.type_term

    def go(s: Term, depth: int) -> Term:
        if isinstance(s, Var):
            if s.index < depth:
                return s
            v = venv[s.index - depth]
            if not isinstance(v, VType):
                raise EvalError("type argument position held a non-type value")
            return lift(v.type_term, depth)
        return map_subterms(s, lambda c, extra: go(c, depth + extra))

    return go(t, 0)


def _uses_binder_at(t: Term, index: int) -> bool:
    """Whether Var(index) occurs free in t."""
    def go(s: Term, depth: int) -> bool:
        if isinstance(s, Var):
            return s.index == depth + index
        return any(go(c, depth + extra) for c, extra in children(s))

    return go(t, 0)


def well_scoped(t: Term, depth: int = 0) -> bool:
    """Check every Var is bound by an enclosing binder or below depth."""
    if isinstance(t, Var):
        return 0 <= t.index < depth
    return all(well_scoped(c, depth + extra) for c, extra in children(t))


def _match_candidates(body: Term, n: int) -> list[int]:
    """Telescope positions (outside-based) of bound variables that are
    scrutinees of a match in the body."""
    found: list[int] = []

    def walk(t: Term, depth: int) -> None:
        if isinstance(t, Match) and isinstance(t.scrutinee, Var):
            idx = t.scrutinee.index - depth
            if idx >= 0:
                pos = n - 1 - idx
                if pos not in found:
                    found.append(pos)
        for child, extra in children(t):
            walk(child, depth + extra)

    walk(body, 0)
    return sorted(found)


def reach(t: Term) -> int:
    """How many binders above t its free variables reach: Var(i) reaches
    i + 1, and a child under k binders of its parent counts k less."""
    if isinstance(t, Var):
        return max(t.index + 1, 0)
    return max([0] + [reach(c) - extra for c, extra in children(t)])


def free(t: Term) -> set[int]:
    """The free de Bruijn indices of t: a child under k binders of its
    parent contributes its indices from k on, each k less."""
    if isinstance(t, Var):
        return {t.index}
    return {i - extra for c, extra in children(t) for i in free(c) if i >= extra}


def classes(t: Term) -> set[type]:
    """The node classes that occur in t, t's own included."""
    return {type(t)}.union(*[classes(c) for c, _ in children(t)])
