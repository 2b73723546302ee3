"""Reference `collect_type_instances`: the original quadratic version, kept
as the oracle that the one-pass version in folbridge.transforms is
property-tested against. Also the reference for a `ProofState`'s running
list, `type_instances`, which collects every statement on its own and
keeps the first of each alpha class, and for `algebraic_instances`, which
filters that list; the state instead walks its statements once with one
shared `seen` set.

It walks every subterm with `subterms`, asks the recursive reference
`well_scoped` of each (a walk, not the `_free` mask that each node
caches) and typechecks every closed one but the sorts, so it shares
neither the walk nor the choice of subterms left untypechecked of the
version it checks; `children`, `typecheck` and `alpha_eq` are common to
both.
"""

from __future__ import annotations

from folbridge.conversion import typecheck
from folbridge.terms import (
    INTERPRETED_TYPES, FolbridgeError, GlobalEnv, Ind, SortProp, SortType,
    Term, alpha_eq, spine, subterms,
)

from debruijn_reference import well_scoped


def collect_type_instances(env: GlobalEnv, t: Term) -> list[Term]:
    """Closed subterms of sort Type, nested instances included, in first
    occurrence order."""
    out: list[Term] = []
    for s in subterms(t):
        if isinstance(s, (SortType, SortProp)):
            continue
        if not well_scoped(s, 0):
            continue
        try:
            ty = typecheck(env, [], s)
        except FolbridgeError:
            continue
        if not isinstance(ty, SortType):
            continue
        if not any(alpha_eq(s, seen) for seen in out):
            out.append(s)
    return out


def type_instances(env: GlobalEnv, statements: list[Term]) -> list[Term]:
    """The type instances of each statement in order, the first of each
    alpha class."""
    found: dict[Term, Term] = {}
    for t in statements:
        for cand in collect_type_instances(env, t):
            found.setdefault(cand, cand)
    return list(found.values())


def algebraic_instances(env: GlobalEnv, statements: list[Term]) -> list[Term]:
    """Ground algebraic instances of the statements (the goal first), in
    first occurrence order, the first of each alpha class, minus the types
    the back-end interprets natively: the Ind-headed type instances with
    their inductive's full parameter count."""
    out: list[Term] = []
    for cand in type_instances(env, statements):
        head, args = spine(cand)
        if not isinstance(head, Ind) or head.inductive in INTERPRETED_TYPES:
            continue
        if len(args) != len(env.inductive(head.inductive).params):
            continue
        out.append(cand)
    return out
