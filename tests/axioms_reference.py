"""The datatype axioms as `interp_alg_types` built them one at a time: a
builder per kind, each shifting the instance and its argument types under
the binders it adds, and the names given by the per-axiom dispatcher.
Kept as the reference that `interp_alg_types`, which builds all the axioms
of a closed instance at once with no shift, is tested against."""

from __future__ import annotations

import itertools

from folbridge.terms import (
    And, Ctor, Eq, Exists, GlobalEnv, InductiveDecl, Not, Or, Pi, Record, Term, Var,
    as_inductive_instance, ctor_arg_types, lift, make_app, make_pis,
)
from folbridge.transforms import (
    DatatypeAxiom, Disjointness, Exhaustiveness, Hypothesis, Injectivity, ProofState,
    type_slug,
)


def injectivity_statement(env: GlobalEnv, instance: Term, ctor_index: int) -> Term:
    """forall (x1 y1 : A1) .. (xn yn : An),
       C x1..xn = C y1..yn -> x1 = y1 /\\ .. /\\ xn = yn"""
    ind_name, targs = as_inductive_instance(instance)
    arg_tys = ctor_arg_types(env, ind_name, ctor_index, targs)
    n = len(arg_tys)
    binders: list[tuple[str, Term]] = []
    for j, at in enumerate(arg_tys):
        binders.append((f"x{j + 1}", lift(at, 2 * j)))
        binders.append((f"y{j + 1}", lift(at, 2 * j + 1)))
    xs = [Var(2 * n - 1 - 2 * j) for j in range(n)]
    ys = [Var(2 * n - 2 - 2 * j) for j in range(n)]
    ctor = Ctor(ind_name, ctor_index)
    lifted_targs = [lift(a, 2 * n) for a in targs]
    premise = Eq(lift(instance, 2 * n),
                 make_app(ctor, lifted_targs + xs),
                 make_app(ctor, lifted_targs + ys))
    eqs = [Eq(lift(arg_tys[j], 2 * n), xs[j], ys[j]) for j in range(n)]
    conj = eqs[-1]
    for e in reversed(eqs[:-1]):
        conj = And(e, conj)
    return make_pis(binders, Pi("_", premise, lift(conj, 1)))


def disjointness_statement(env: GlobalEnv, instance: Term, first: int, second: int) -> Term:
    """forall (x1 : A1)..(xn : An)(x1' : A1')..(xp' : Ap'),
       C x1..xn <> C' x1'..xp'"""
    ind_name, targs = as_inductive_instance(instance)
    a_tys = ctor_arg_types(env, ind_name, first, targs)
    b_tys = ctor_arg_types(env, ind_name, second, targs)
    n, p = len(a_tys), len(b_tys)
    binders: list[tuple[str, Term]] = []
    for j, at in enumerate(a_tys):
        binders.append((f"x{j + 1}", lift(at, j)))
    for j, bt in enumerate(b_tys):
        binders.append((f"y{j + 1}", lift(bt, n + j)))
    xs = [Var(n + p - 1 - j) for j in range(n)]
    ys = [Var(p - 1 - j) for j in range(p)]
    lifted_targs = [lift(a, n + p) for a in targs]
    body = Not(Eq(lift(instance, n + p),
                  make_app(Ctor(ind_name, first), lifted_targs + xs),
                  make_app(Ctor(ind_name, second), lifted_targs + ys)))
    return make_pis(binders, body)


def exhaustiveness_statement(env: GlobalEnv, instance: Term) -> Term:
    """forall (x : I), (exists ..., x = C1 ...) \\/ .. \\/ (exists ..., x = Cn ...)"""
    ind_name, targs = as_inductive_instance(instance)
    decl = env.inductive(ind_name)
    disjuncts: list[Term] = []
    for k, cd in enumerate(decl.ctors):
        arg_tys = ctor_arg_types(env, ind_name, k, targs)
        r = len(arg_tys)
        # under the x binder (depth 1) plus r existential binders
        ctor_app = make_app(Ctor(ind_name, k),
                            [lift(a, 1 + r) for a in targs]
                            + [Var(r - 1 - j) for j in range(r)])
        body = Eq(lift(instance, 1 + r), Var(r), ctor_app)
        for j in reversed(range(r)):
            body = Exists(f"e{j + 1}", lift(arg_tys[j], 1 + j), body)
        disjuncts.append(body)
    disj = disjuncts[-1]
    for d in reversed(disjuncts[:-1]):
        disj = Or(d, disj)
    return Pi("x", instance, disj)


def datatype_axiom(env: GlobalEnv, decl: InductiveDecl, just: DatatypeAxiom) -> tuple[str, Term]:
    """The base of the hypothesis name and the statement of one axiom."""
    inst, kind = just.instance, just.kind
    slug = type_slug(inst)
    if type(kind) is Injectivity:
        return (f"{slug}_{decl.ctors[kind.ctor_index].name}_inj",
                injectivity_statement(env, inst, kind.ctor_index))
    if type(kind) is Disjointness:
        return (f"{slug}_{decl.ctors[kind.first].name}_{decl.ctors[kind.second].name}_disj",
                disjointness_statement(env, inst, kind.first, kind.second))
    return f"{slug}_exhaust", exhaustiveness_statement(env, inst)


def interp_alg_types(state: ProofState, include_exhaustiveness: bool = False) -> list[Hypothesis]:
    """The axioms of every algebraic instance of the state that it does not
    hold yet, one `DatatypeAxiom` at a time; nothing is remembered."""
    statements = state.statements()
    emitted: set[Term] = set()
    taken: set[str] = set()
    out: list[Hypothesis] = []
    for inst in state.algebraic_instances():
        decl = state.env.inductive(as_inductive_instance(inst)[0])
        # Nullary constructors are trivially injective.
        kinds: list[Record] = [Injectivity(k) for k, cd in enumerate(decl.ctors) if cd.arg_types]
        kinds += [Disjointness(a, b)
                  for a, b in itertools.combinations(range(len(decl.ctors)), 2)]
        if include_exhaustiveness:
            kinds.append(Exhaustiveness())
        for kind in kinds:
            just = DatatypeAxiom(inst, kind)
            name, stmt = datatype_axiom(state.env, decl, just)
            if stmt in statements or stmt in emitted:
                continue
            emitted.add(stmt)
            out.append(Hypothesis(state.fresh_name(name, taken), stmt, just))
    return out
