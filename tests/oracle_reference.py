"""Reference truth oracle: the random data generator, the evaluator and
`random_truth_check` as they were before the generator read per-type
constructor tables, built probe arguments as values and instantiated the
prenex prefix in one pass. Kept verbatim as the oracle that the faster
versions in folbridge.conversion are tested against (same draws, same
verdicts, same counterexamples, same fuel).

`_eval`, `_apply`, `_veq`, `_eval_prop`, `_eval_exists` and
`collect_tvars` are copied too, so that the reference evaluates probes the
old way, by generating a term and evaluating it, and finds type variables
in the old order. `min_term_size`, the builtins, `_reify_type` and the
value classes are shared with the code under test.
"""

from __future__ import annotations

import random

from folbridge.conversion import (
    _BUILTIN_ARITY, _INF, Counterexample, EvalError, EvalUnsupported, Fuel,
    Uninhabited, Value, VClosure, VCtor, VCtorPartial, VBuiltin, VFix, VInt,
    VType, _reify_type, _run_builtin, min_term_size, replace_tvars, typecheck,
)
from folbridge.terms import (
    INT, And, App, Ctor, Eq, Exists, FalseP, Fix, GlobalEnv, Ind, IntLit,
    IntT, Lam, Match, Not, Or, Pi, SortProp, SortType, TVar, Term, TrueP, Var,
    alpha_eq, as_inductive_instance, ctor_arg_types, make_app, spine, subst,
    subterms, well_scoped, Const,
)


def _eval(env: GlobalEnv, t: Term, venv: tuple[Value, ...], fuel: Fuel) -> Value:
    fuel.consume()
    if isinstance(t, Var):
        return venv[t.index]
    if isinstance(t, IntLit):
        return VInt(t.value)
    if isinstance(t, Const):
        if t.name in env.definitions:
            return _eval(env, env.definitions[t.name].body, (), fuel)
        if t.name in _BUILTIN_ARITY:
            return VBuiltin(t.name, ())
        raise EvalError(f"cannot evaluate unknown constant {t.name}")
    if isinstance(t, Ctor):
        decl = env.inductive(t.inductive)
        total = len(decl.params) + len(decl.ctors[t.ctor_index].arg_types)
        if total == 0:
            return VCtor(t.inductive, t.ctor_index, (), ())
        return VCtorPartial(t.inductive, t.ctor_index, ())
    if isinstance(t, (Ind, IntT, TVar, SortType, SortProp, Pi)):
        return VType(_reify_type(t, venv))
    if isinstance(t, Lam):
        return VClosure(venv, t)
    if isinstance(t, Fix):
        return VFix(venv, t, ())
    if isinstance(t, App):
        f = _eval(env, t.head, venv, fuel)
        a = _eval(env, t.arg, venv, fuel)
        return _apply(env, f, a, fuel)
    if isinstance(t, Match):
        v = _eval(env, t.scrutinee, venv, fuel)
        if not isinstance(v, VCtor):
            raise EvalError("match scrutinee did not evaluate to a constructor")
        br = t.branches[v.ctor_index]
        return _eval(env, br.body, tuple(reversed(v.args)) + venv, fuel)
    raise EvalError(f"not an object-level term: {type(t).__name__}")


def _apply(env: GlobalEnv, f: Value, a: Value, fuel: Fuel) -> Value:
    fuel.consume()
    if isinstance(f, VClosure):
        return _eval(env, f.term.body, (a,) + f.env_values, fuel)
    if isinstance(f, VType):
        # A type constructor applied to a type argument stays a type.
        if not isinstance(a, VType):
            raise EvalError("type constructor applied to a non-type value")
        return VType(App(f.type_term, a.type_term))
    if isinstance(f, VCtorPartial):
        decl = env.inductive(f.inductive)
        cd = decl.ctors[f.ctor_index]
        collected = f.collected + (a,)
        total = len(decl.params) + len(cd.arg_types)
        if len(collected) == total:
            type_args = []
            for v in collected[:len(decl.params)]:
                if not isinstance(v, VType):
                    raise EvalError("constructor type argument is not a type")
                type_args.append(v.type_term)
            return VCtor(f.inductive, f.ctor_index, tuple(type_args),
                         tuple(collected[len(decl.params):]))
        return VCtorPartial(f.inductive, f.ctor_index, collected)
    if isinstance(f, VBuiltin):
        collected = f.collected + (a,)
        if len(collected) == _BUILTIN_ARITY[f.name]:
            return _run_builtin(env, f.name, collected, fuel)
        return VBuiltin(f.name, collected)
    if isinstance(f, VFix):
        fix = f.term
        args = f.args + (a,)
        binders = []
        walk = fix.body
        while isinstance(walk, Lam):
            binders.append(walk.domain)
            walk = walk.body
        if len(args) < len(binders):
            return VFix(f.env_values, fix, args)
        if len(args) > len(binders):
            raise EvalError("fixpoint applied to too many arguments")
        dec = args[fix.decreasing]
        if not isinstance(dec, (VCtor, VInt)):
            raise EvalError("fixpoint decreasing argument is not a data value")
        inner = tuple(reversed(args)) + (VFix(f.env_values, fix, ()),) + f.env_values
        return _eval(env, walk, inner, fuel)
    raise EvalError(f"cannot apply value of kind {type(f).__name__}")


def _random_value_term(env: GlobalEnv, ty: Term, size: int, rng: random.Random) -> Term:
    if isinstance(ty, IntT):
        return IntLit(rng.randint(-20, 20))
    inst = as_inductive_instance(ty)
    if inst is None:
        raise Uninhabited(f"cannot generate a value of type {ty!r}")
    name, targs = inst
    decl = env.inductive(name)
    mins = []
    for k in range(len(decl.ctors)):
        arg_tys = ctor_arg_types(env, name, k, targs)
        mins.append(1 + sum(min_term_size(env, at) for at in arg_tys))
    overall = min(mins)
    if overall == _INF:
        raise Uninhabited(f"type {ty!r} has no inhabitants")
    budget = max(size, overall)
    eligible = [k for k, m in enumerate(mins) if m <= budget]
    k = rng.choice(eligible)
    arg_tys = ctor_arg_types(env, name, k, targs)
    arg_mins = [min_term_size(env, at) for at in arg_tys]
    slack = budget - mins[k]
    args: list[Term] = list(targs)
    for at, m in zip(arg_tys, arg_mins):
        extra = rng.randint(0, slack) if slack > 0 else 0
        slack -= extra
        args.append(_random_value_term(env, at, int(m) + extra, rng))
    return make_app(Ctor(name, k), args)


def random_ground_type(env: GlobalEnv, rng: random.Random, depth: int = 2) -> Term:
    """A closed inhabited object type built from Int, Bool and the
    environment's inductives."""
    candidates: list[Term] = [INT]
    for decl in env.inductives.values():
        if not decl.params:
            t: Term = Ind(decl.name)
            if min_term_size(env, t) != _INF:
                candidates.append(t)
        elif depth > 0:
            targs = [random_ground_type(env, rng, depth - 1) for _ in decl.params]
            t = make_app(Ind(decl.name), targs)
            if min_term_size(env, t) != _INF:
                candidates.append(t)
    return rng.choice(candidates)


def _veq(env: GlobalEnv, a: Value, b: Value, at_type: Term, rng: random.Random,
         fuel: Fuel, probes: int = 6, depth: int = 3) -> bool:
    """Semantic equality: structural on data, extensional sampling on
    function values (sound for refutation, probabilistic for assent)."""
    if isinstance(a, (VInt, VCtor)) and isinstance(b, (VInt, VCtor)):
        if isinstance(a, VInt) and isinstance(b, VInt):
            return a.value == b.value
        if isinstance(a, VCtor) and isinstance(b, VCtor):
            return (a.inductive == b.inductive and a.ctor_index == b.ctor_index
                    and len(a.args) == len(b.args)
                    and all(_veq(env, x, y, None, rng, fuel)
                            for x, y in zip(a.args, b.args)))
        return False
    if isinstance(a, VType) and isinstance(b, VType):
        return alpha_eq(a.type_term, b.type_term)
    # Function-valued: probe at random arguments.
    if depth <= 0:
        raise EvalUnsupported("function comparison nesting too deep")
    at = at_type
    if not isinstance(at, Pi):
        raise EvalUnsupported("cannot compare non-data values without an arrow type")
    for _ in range(probes):
        if isinstance(at.domain, SortType):
            garg = random_ground_type(env, rng)
            va: Value = VType(garg)
        else:
            garg = _random_value_term(env, at.domain, rng.randint(1, 5), rng)
            va = _eval(env, garg, (), fuel)
        ra = _apply(env, a, va, fuel)
        rb = _apply(env, b, va, fuel)
        cod = subst(at.codomain, 0, garg)
        if not _veq(env, ra, rb, cod, rng, fuel, probes, depth - 1):
            return False
    return True


def _eval_prop(env: GlobalEnv, t: Term, rng: random.Random, fuel: Fuel) -> bool:
    if isinstance(t, TrueP):
        return True
    if isinstance(t, FalseP):
        return False
    if isinstance(t, And):
        return _eval_prop(env, t.lhs, rng, fuel) and _eval_prop(env, t.rhs, rng, fuel)
    if isinstance(t, Or):
        return _eval_prop(env, t.lhs, rng, fuel) or _eval_prop(env, t.rhs, rng, fuel)
    if isinstance(t, Not):
        return not _eval_prop(env, t.body, rng, fuel)
    if isinstance(t, Pi):
        # Non-dependent Pi over Prop is implication; quantifiers must have
        # been instantiated by the caller. The codomain's binder is unused,
        # so substituting TrueP only drops its slot.
        if not isinstance(typecheck(env, [], t.domain), SortProp):
            raise EvalUnsupported("residual quantifier in propositional evaluation")
        if not _eval_prop(env, t.domain, rng, fuel):
            return True
        return _eval_prop(env, subst(t.codomain, 0, TrueP()), rng, fuel)
    if isinstance(t, Eq):
        va = _eval(env, t.lhs, (), fuel)
        vb = _eval(env, t.rhs, (), fuel)
        return _veq(env, va, vb, t.at_type, rng, fuel)
    if isinstance(t, Exists):
        return _eval_exists(env, t, rng, fuel)
    raise EvalUnsupported(f"cannot evaluate proposition {type(t).__name__}")


def _eval_exists(env: GlobalEnv, t: Term, rng: random.Random, fuel: Fuel) -> bool:
    """Decide the exhaustiveness-axiom shape
    `exists a1..an, v = C a1..an` with v closed; the witness, if any, is
    v's own decomposition."""
    binders = []
    body = t
    while isinstance(body, Exists):
        binders.append(body.domain)
        body = body.body
    n = len(binders)
    if not isinstance(body, Eq):
        raise EvalUnsupported("existential outside the exhaustiveness shape")
    head, args = spine(body.rhs)
    if not isinstance(head, Ctor):
        raise EvalUnsupported("existential equation is not constructor-headed")
    decl = env.inductive(head.inductive)
    value_args = args[len(decl.params):]
    expected = [Var(n - 1 - i) for i in range(n)]
    if value_args != expected:
        raise EvalUnsupported("existential witnesses are not the bound variables")
    lhs = body.lhs
    if not well_scoped(lhs, 0):
        raise EvalUnsupported("existential subject is not closed")
    v = _eval(env, lhs, (), fuel)
    if not isinstance(v, VCtor):
        return False
    return v.inductive == head.inductive and v.ctor_index == head.ctor_index


def collect_tvars(t: Term) -> list[str]:
    seen: list[str] = []
    for s in subterms(t):
        if isinstance(s, TVar) and s.name not in seen:
            seen.append(s.name)
    return seen


def random_truth_check(env: GlobalEnv, statement: Term, samples: int = 50,
                       size: int = 6, seed: int = 0) -> Counterexample | None:
    """Randomized semantic truth test: instantiate the prenex universal
    binders (types and objects) with random ground data and evaluate.
    Returns a counterexample on the first falsifying sample."""
    rng = random.Random(seed)
    for _ in range(samples):
        stmt = statement
        tvs = collect_tvars(stmt)
        if tvs:
            stmt = replace_tvars(stmt, {n: random_ground_type(env, rng) for n in tvs})
        ok = True
        while isinstance(stmt, Pi):
            dom = stmt.domain
            if isinstance(dom, SortType):
                inst = random_ground_type(env, rng)
            elif isinstance(typecheck(env, [], dom), SortProp):
                break  # implication: handled by eval_prop
            else:
                try:
                    inst = _random_value_term(env, dom, rng.randint(1, max(size, 1)), rng)
                except Uninhabited:
                    ok = False  # vacuously true: domain empty
                    break
            stmt = subst(stmt.codomain, 0, inst)
        if not ok:
            continue
        fuel = Fuel()
        if not _eval_prop(env, stmt, rng, fuel):
            return Counterexample(statement, stmt)
    return None
