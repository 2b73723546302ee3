"""Reference `collect_type_instances`: the original quadratic version, kept
as the oracle that the one-pass version in folbridge.transforms is
property-tested against.

It walks every subterm with `subterms`, asks `well_scoped` of each (a
walk, not the `_reach` that each node caches) and typechecks every closed
one, so it shares none of the walk or the head filter of the version it
checks; `children`, `typecheck` and `alpha_eq` are common to both.
"""

from __future__ import annotations

from folbridge.conversion import typecheck
from folbridge.terms import (
    FolbridgeError, GlobalEnv, SortProp, SortType, Term, alpha_eq, subterms,
    well_scoped,
)


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
