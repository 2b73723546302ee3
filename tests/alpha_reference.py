"""Reference alpha-equivalence: the recursive `terms.alpha_eq` from before
binder names left term equality, kept verbatim as the oracle that `==` and
`hash` on terms are property-tested against.

It compares each node kind's own fields by hand and recurses through
`children`, so it shares nothing with the cached hashes and the per-class
`_key` fields that `==` on terms reads.
"""

from __future__ import annotations

from folbridge.terms import (
    Const, Ctor, Fix, Ind, IntLit, Match, TVar, Term, Var, children,
)


def alpha_eq(t: Term, u: Term) -> bool:
    """Structural equality ignoring binder name hints."""
    if t is u:
        return True
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return t.index == u.index
    if isinstance(t, Const):
        return t.name == u.name
    if isinstance(t, Ctor):
        return t.inductive == u.inductive and t.ctor_index == u.ctor_index
    if isinstance(t, Ind):
        return t.inductive == u.inductive
    if isinstance(t, TVar):
        return t.name == u.name
    if isinstance(t, IntLit):
        return t.value == u.value
    if isinstance(t, Fix) and t.decreasing != u.decreasing:
        return False
    if isinstance(t, Match):
        if t.inductive != u.inductive or len(t.branches) != len(u.branches):
            return False
        if any(a.arity != b.arity for a, b in zip(t.branches, u.branches)):
            return False
    tc, uc = children(t), children(u)
    if len(tc) != len(uc):
        return False
    return all(alpha_eq(a, b) for (a, _), (b, _) in zip(tc, uc))
