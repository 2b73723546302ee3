"""The types of an inductive and of its constructors as they were built on
demand from the environment, before each `InductiveDecl` built its own.
Kept as the reference that `InductiveDecl.type` and
`InductiveDecl.ctor_types` are tested against."""

from __future__ import annotations

from folbridge.terms import TYPE, GlobalEnv, Ind, Pi, Term, Var, lift, make_app


def ind_type(env: GlobalEnv, ind: str) -> Term:
    """Type of the inductive's type constructor: Type -> ... -> Type."""
    ty = TYPE
    for _ in env.inductive(ind).params:
        ty = Pi("_", TYPE, ty)
    return ty


def ctor_type(env: GlobalEnv, ind: str, index: int) -> Term:
    """Closed type of a constructor: forall params, args -> I params."""
    decl = env.inductive(ind)
    c = decl.ctors[index]
    p = len(decl.params)
    n = len(c.arg_types)
    # Result type under params and value binders: params are Var(n+p-1-i).
    result = make_app(Ind(ind), [Var(n + p - 1 - i) for i in range(p)])
    ty = result
    # Value binders, innermost last; arg_types[j] lives under the params
    # only, so lift it past the j earlier value binders.
    for j in reversed(range(n)):
        ty = Pi("_", lift(c.arg_types[j], j), ty)
    for name in reversed(decl.params):
        ty = Pi(name, TYPE, ty)
    return ty
