"""Reference de Bruijn traversals: the hand-written versions of
`transforms._shift_above`, `transforms._replace_binder`, `parser._unshift`
and `conversion._reify_type`, kept as the oracles that their `rebind`-based
versions are property-tested against, and the printer's per-question
binder-use walk, the oracle of its one-pass free-index memo.

Each walks the term with its own `Var` case and its own `map_subterms`
(or `children`) recursion, so it shares none of `rebind` or of the memo;
`map_subterms`, `children`, and `lift` where a replacement is lifted, are
common to both. `lift` itself is checked against the named-variable
calculus in `tests/named_calculus.py`.
"""

from __future__ import annotations

from folbridge.conversion import EvalError, Value, VType
from folbridge.terms import Term, Var, children, lift, map_subterms
from folbridge.transforms import TransformError


def _shift_above(t: Term, at: int, by: int) -> Term:
    """Lift indices strictly greater than `at` by `by`; index == at must
    not occur."""
    def go(s: Term, depth: int) -> Term:
        if isinstance(s, Var):
            if s.index < at + depth:
                return s
            if s.index == at + depth:
                raise TransformError("dependency on the substituted binder")
            return Var(s.index + by)
        return map_subterms(s, lambda c, extra: go(c, depth + extra))
    return go(t, 0)


def _replace_binder(t: Term, at: int, widen: int, replacement: Term) -> Term:
    """Replace Var(at) by `replacement` (expressed at the root of t's new
    context) and shift references above `at` by `widen`."""
    def go(s: Term, depth: int) -> Term:
        if isinstance(s, Var):
            if s.index < at + depth:
                return s
            if s.index == at + depth:
                return lift(replacement, depth)
            return Var(s.index + widen)
        return map_subterms(s, lambda c, extra: go(c, depth + extra))
    return go(t, 0)


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
