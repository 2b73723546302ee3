"""Typechecking, normalization, convertibility, and a ground evaluator.

normalize is a substitution-based rewriter (beta/delta/iota/guarded fix,
deterministic leftmost-outermost); eval_ground is an independent
environment machine used as the semantic oracle. The two agree on closed
ground terms and that agreement is itself property-tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .terms import (
    BUILTIN_FUNCTIONS, FALSE, INT, PROP, TRUE, TYPE, And, App, Branch, Const,
    Ctor, Eq, Exists, FalseP, Fix, FolbridgeError, GlobalEnv, Ind, IntLit,
    IntT, Lam, Match, Not, Or, Pi, SortProp, SortType, TVar, Term, TrueP,
    Var, alpha_eq, as_inductive_instance, builtin_type, ctor_arg_types,
    ctor_type, ind_type, lift, make_app, map_subterms, rebind, spine, subst,
    subst_list, subterms, well_scoped,
)


class TypingError(FolbridgeError):
    pass


class FuelExhausted(FolbridgeError):
    pass


class EvalError(FolbridgeError):
    pass


class Uninhabited(FolbridgeError):
    pass


DEFAULT_FUEL = 100_000


@dataclass
class Fuel:
    """Reduction-step budget; turns divergence bugs into diagnosable errors."""
    remaining: int = DEFAULT_FUEL

    def consume(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("reduction step budget exhausted")


# ---------------------------------------------------------------------------
# Typechecking (with hole filling for parser output)
# ---------------------------------------------------------------------------

def _is_sort(t: Term) -> bool:
    return isinstance(t, (SortType, SortProp))


def infer(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel | None = None) -> tuple[Term, Term]:
    """Return (elaborated term, type). Fills the parser's holes: Match
    scrutinee types and Eq at_types left as None. A node whose subterms
    need no elaboration is returned itself, not copied."""
    if fuel is None:
        fuel = Fuel()
    return _infer(env, ctx, t, fuel)


def typecheck(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel | None = None) -> Term:
    """Type of t in ctx (ctx[0] is the innermost binder's type)."""
    return infer(env, ctx, t, fuel)[1]


def _infer(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel) -> tuple[Term, Term]:
    # Applications first: they are the most frequent node.
    if isinstance(t, App):
        head, hty = _infer(env, ctx, t.head, fuel)
        if not isinstance(hty, Pi):  # a product is its own whnf
            hty = whnf(env, hty, fuel)
        if not isinstance(hty, Pi):
            raise TypingError("application head is not a function")
        arg, aty = _infer(env, ctx, t.arg, fuel)
        if not convertible(env, ctx, aty, hty.domain, fuel):
            raise TypingError(
                f"argument type mismatch: expected {hty.domain}, found {aty}")
        if not (head is t.head and arg is t.arg):
            t = App(head, arg)
        return t, subst(hty.codomain, 0, arg)
    if isinstance(t, Var):
        if not 0 <= t.index < len(ctx):
            raise TypingError(f"unbound variable index {t.index}")
        return t, lift(ctx[t.index], t.index + 1)
    if isinstance(t, Const):
        b = builtin_type(t.name)
        if b is not None:
            return t, b
        return t, env.definition(t.name).type
    if isinstance(t, Ctor):
        return t, ctor_type(env, t.inductive, t.ctor_index)
    if isinstance(t, Ind):
        return t, ind_type(env.inductive(t.inductive))
    if isinstance(t, (TVar, IntT, SortType, SortProp)):
        # Flat universes: both sorts live in Type (no hierarchy).
        return t, TYPE
    if isinstance(t, IntLit):
        return t, INT
    if isinstance(t, Pi):
        dom, dsort = _infer(env, ctx, t.domain, fuel)
        if not _is_sort(dsort):
            raise TypingError("binder domain is not a type or proposition")
        cod, csort = _infer(env, [dom] + ctx, t.codomain, fuel)
        if not _is_sort(csort):
            raise TypingError("product codomain is not a type or proposition")
        if dom is t.domain and cod is t.codomain:
            return t, csort
        return Pi(t.binder, dom, cod), csort
    if isinstance(t, Lam):
        dom, dsort = _infer(env, ctx, t.domain, fuel)
        if not _is_sort(dsort):
            raise TypingError("lambda domain is not a type")
        body, bty = _infer(env, [dom] + ctx, t.body, fuel)
        if not (dom is t.domain and body is t.body):
            t = Lam(t.binder, dom, body)
        return t, Pi(t.binder, dom, bty)
    if isinstance(t, Match):
        scrut, sty = _infer(env, ctx, t.scrutinee, fuel)
        if t.scrutinee_type is not None and not convertible(env, ctx, t.scrutinee_type, sty, fuel):
            raise TypingError("scrutinee type annotation mismatch")
        inst = as_inductive_instance(whnf(env, sty, fuel))
        if inst is None:
            raise TypingError("match scrutinee is not of an inductive type")
        ind_name, type_args = inst
        decl = env.inductive(ind_name)
        if len(type_args) != len(decl.params):
            raise TypingError(f"{ind_name} applied to wrong number of type arguments")
        if len(t.branches) != len(decl.ctors):
            raise TypingError(
                f"match on {ind_name} needs {len(decl.ctors)} branches, "
                f"found {len(t.branches)}")
        rty, rsort = _infer(env, ctx, t.return_type, fuel)
        if not _is_sort(rsort):
            raise TypingError("match return annotation is not a type")
        new_branches = []
        for k, (br, cd) in enumerate(zip(t.branches, decl.ctors)):
            if br.arity != len(cd.arg_types):
                raise TypingError(
                    f"branch for {cd.name} binds {br.arity} arguments, "
                    f"constructor has {len(cd.arg_types)}")
            arg_tys = ctor_arg_types(env, ind_name, k, type_args)
            # ctx extension: first ctor arg is outermost.
            bctx = ctx
            for j, at in enumerate(arg_tys):
                bctx = [lift(at, j)] + bctx
            body, bty = _infer(env, bctx, br.body, fuel)
            if not convertible(env, bctx, bty, lift(rty, br.arity), fuel):
                raise TypingError(f"branch for {cd.name} has type {bty}, expected {rty}")
            new_branches.append(br if body is br.body else Branch(br.binders, body))
        sty_n = whnf(env, sty, fuel)
        if sty_n == t.scrutinee_type:
            sty_n = t.scrutinee_type
        if (scrut is t.scrutinee and sty_n is t.scrutinee_type and rty is t.return_type
                and all(new is br for new, br in zip(new_branches, t.branches))):
            return t, rty
        return Match(scrut, sty_n, rty, tuple(new_branches)), rty
    if isinstance(t, Fix):
        fty, fsort = _infer(env, ctx, t.full_type, fuel)
        if not _is_sort(fsort):
            raise TypingError("fixpoint type annotation is not a type")
        binders = []
        walk = fty
        while isinstance(walk, Pi):
            binders.append(walk.domain)
            walk = walk.codomain
        if not 0 <= t.decreasing < len(binders):
            raise TypingError("fixpoint decreasing index out of range")
        darg = binders[t.decreasing]
        if as_inductive_instance(whnf(env, darg, fuel)) is None:
            raise TypingError("fixpoint decreasing argument is not of an inductive type")
        body, bty = _infer(env, [fty] + ctx, t.body, fuel)
        if not convertible(env, [fty] + ctx, bty, lift(fty, 1), fuel):
            raise TypingError("fixpoint body type differs from its annotation")
        if fty is t.full_type and body is t.body:
            return t, fty
        return Fix(t.binder, t.decreasing, fty, body), fty
    if isinstance(t, Eq):
        lhs, lty = _infer(env, ctx, t.lhs, fuel)
        rhs, rty = _infer(env, ctx, t.rhs, fuel)
        if t.at_type is not None:
            at, asort = _infer(env, ctx, t.at_type, fuel)
            if not _is_sort(asort):
                raise TypingError("equality annotation is not a type")
        else:
            at = lty
        if not convertible(env, ctx, lty, at, fuel) or not convertible(env, ctx, rty, at, fuel):
            raise TypingError(
                f"equality sides disagree: {lty} vs {rty} at {at}")
        if at is t.at_type and lhs is t.lhs and rhs is t.rhs:
            return t, PROP
        return Eq(at, lhs, rhs), PROP
    if isinstance(t, (TrueP, FalseP)):
        return t, PROP
    if isinstance(t, (And, Or)):
        lhs, ls = _infer(env, ctx, t.lhs, fuel)
        rhs, rs = _infer(env, ctx, t.rhs, fuel)
        if not isinstance(ls, SortProp) or not isinstance(rs, SortProp):
            raise TypingError("connective applied to non-propositions")
        if lhs is t.lhs and rhs is t.rhs:
            return t, PROP
        return type(t)(lhs, rhs), PROP
    if isinstance(t, Not):
        body, bs = _infer(env, ctx, t.body, fuel)
        if not isinstance(bs, SortProp):
            raise TypingError("negation applied to a non-proposition")
        return (t if body is t.body else Not(body)), PROP
    if isinstance(t, Exists):
        dom, dsort = _infer(env, ctx, t.domain, fuel)
        if not isinstance(dsort, SortType):
            raise TypingError("existential domain is not a type")
        body, bs = _infer(env, [dom] + ctx, t.body, fuel)
        if not isinstance(bs, SortProp):
            raise TypingError("existential body is not a proposition")
        if dom is t.domain and body is t.body:
            return t, PROP
        return Exists(t.binder, dom, body), PROP
    raise TypingError(f"cannot type {t!r}")


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

_ARITH = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}
_CMP = {"le": lambda a, b: a <= b, "lt": lambda a, b: a < b}
_BOOLOP = {"orb": lambda a, b: a or b, "andb": lambda a, b: a and b}


def _is_ground_value(t: Term) -> bool:
    if isinstance(t, IntLit):
        return True
    head, args = spine(t)
    if isinstance(head, Ctor):
        return all(_is_ground_value(a) or _is_type_like(a) for a in args)
    return False


def _is_type_like(t: Term) -> bool:
    head, args = spine(t)
    return isinstance(head, (Ind, IntT, TVar, SortType, SortProp, Pi))


def _bool_term(b: bool) -> Term:
    return TRUE if b else FALSE


def _builtin_step(env: GlobalEnv, name: str, args: list[Term], fuel: Fuel) -> Term | None:
    """Compute a fully applied builtin on literal arguments, or None."""
    if name in _ARITH or name in _CMP:
        if len(args) != 2:
            return None
        a = whnf(env, args[0], fuel)
        b = whnf(env, args[1], fuel)
        if isinstance(a, IntLit) and isinstance(b, IntLit):
            if name in _ARITH:
                return IntLit(_ARITH[name](a.value, b.value))
            return _bool_term(_CMP[name](a.value, b.value))
        return None
    if name in _BOOLOP:
        if len(args) != 2:
            return None
        a = whnf(env, args[0], fuel)
        if a == TRUE or a == FALSE:
            b = whnf(env, args[1], fuel)
            if b == TRUE or b == FALSE:
                return _bool_term(_BOOLOP[name](a == TRUE, b == TRUE))
        return None
    if name == "negb":
        if len(args) != 1:
            return None
        a = whnf(env, args[0], fuel)
        if a == TRUE or a == FALSE:
            return _bool_term(a == FALSE)
        return None
    if name == "eqb":
        if len(args) != 3:
            return None
        a = normalize(env, [], args[1], fuel)
        b = normalize(env, [], args[2], fuel)
        if _is_ground_value(a) and _is_ground_value(b):
            return _bool_term(alpha_eq(a, b))
        return None
    return None


def whnf(env: GlobalEnv, t: Term, fuel: Fuel) -> Term:
    """Weak head normal form: beta, delta, iota, guarded fix, builtins."""
    while True:
        head, args = spine(t)
        if isinstance(head, Lam) and args:
            fuel.consume()
            t = make_app(subst(head.body, 0, args[0]), args[1:])
            continue
        if isinstance(head, Const):
            if head.name in env.definitions:
                fuel.consume()
                t = make_app(env.definitions[head.name].body, args)
                continue
            if head.name in BUILTIN_FUNCTIONS:
                stepped = _builtin_step(env, head.name, args, fuel)
                if stepped is not None:
                    fuel.consume()
                    t = stepped
                    continue
            return t
        if isinstance(head, Match):
            scrut = whnf(env, head.scrutinee, fuel)
            chead, cargs = spine(scrut)
            if isinstance(chead, Ctor):
                decl = env.inductive(chead.inductive)
                n_params = len(decl.params)
                br = head.branches[chead.ctor_index]
                value_args = cargs[n_params:]
                if len(value_args) != br.arity:
                    raise EvalError("constructor application arity mismatch in match")
                fuel.consume()
                body = subst_list(br.body, list(reversed(value_args)))
                t = make_app(body, args)
                continue
            if scrut is not head.scrutinee:
                t = make_app(Match(scrut, head.scrutinee_type, head.return_type, head.branches), args)
            return t
        if isinstance(head, Fix) and len(args) > head.decreasing:
            dec = whnf(env, args[head.decreasing], fuel)
            dhead, _ = spine(dec)
            if isinstance(dhead, Ctor):
                fuel.consume()
                new_args = list(args)
                new_args[head.decreasing] = dec
                t = make_app(subst(head.body, 0, head), new_args)
                continue
            if dec is not args[head.decreasing]:
                new_args = list(args)
                new_args[head.decreasing] = dec
                t = make_app(head, new_args)
            return t
        return t


def normalize(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel | None = None) -> Term:
    """Full normal form; deterministic leftmost-outermost strategy. ctx is
    informational (open terms reduce fine: free variables are neutral)."""
    if fuel is None:
        fuel = Fuel()
    return _norm(env, t, fuel)


def _norm(env: GlobalEnv, t: Term, fuel: Fuel) -> Term:
    t = whnf(env, t, fuel)
    t2 = map_subterms(t, lambda s, _extra: _norm(env, s, fuel))
    if t2 != t:
        t3 = whnf(env, t2, fuel)
        if t3 != t2:
            return _norm(env, t3, fuel)
    return t2


def convertible(env: GlobalEnv, ctx: list[Term], t: Term, u: Term,
                fuel: Fuel | None = None) -> bool:
    """True iff t and u share a normal form up to alpha."""
    if fuel is None:
        fuel = Fuel()
    if alpha_eq(t, u):
        return True
    return alpha_eq(_norm(env, t, fuel), _norm(env, u, fuel))


def beta_reduce(t: Term, fuel: Fuel | None = None) -> Term:
    """Beta-only normalization (no delta/iota/fix); used when building
    statements whose redexes are display artifacts."""
    if fuel is None:
        fuel = Fuel()

    def go(s: Term) -> Term:
        while True:
            head, args = spine(s)
            if isinstance(head, Lam) and args:
                fuel.consume()
                s = make_app(subst(head.body, 0, args[0]), args[1:])
                continue
            break
        return map_subterms(s, lambda c, _e: go(c))

    out = go(t)
    while True:
        again = go(out)
        if again == out:
            return out
        out = again


# ---------------------------------------------------------------------------
# Ground evaluation (environment machine)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class VInt(Value):
    value: int


@dataclass(frozen=True)
class VCtor(Value):
    inductive: str
    ctor_index: int
    type_args: tuple[Term, ...]
    args: tuple[Value, ...]


@dataclass(frozen=True)
class VType(Value):
    """A type used as an argument; payload is a closed type term."""
    type_term: Term


@dataclass(frozen=True)
class VClosure(Value):
    env_values: tuple[Value, ...]
    term: Term  # Lam


@dataclass(frozen=True)
class VFix(Value):
    env_values: tuple[Value, ...]
    term: Term  # Fix
    args: tuple[Value, ...]


@dataclass(frozen=True)
class VCtorPartial(Value):
    inductive: str
    ctor_index: int
    collected: tuple[Value, ...]


@dataclass(frozen=True)
class VBuiltin(Value):
    name: str
    collected: tuple[Value, ...]


VTRUE = VCtor("Bool", 0, (), ())
VFALSE = VCtor("Bool", 1, (), ())


def _vbool(b: bool) -> Value:
    return VTRUE if b else VFALSE


_BUILTIN_ARITY = {"add": 2, "sub": 2, "mul": 2, "le": 2, "lt": 2,
                  "orb": 2, "andb": 2, "negb": 1, "eqb": 3}


def eval_ground(env: GlobalEnv, t: Term, fuel: Fuel | None = None) -> Value:
    """Evaluate a closed term; agrees with normalize on ground terms."""
    if fuel is None:
        fuel = Fuel()
    return _eval(env, t, (), fuel)


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


def _reify_type(t: Term, venv: tuple[Value, ...]) -> Term:
    """Resolve Var references inside a type argument to the closed types
    recorded in the value environment."""
    def on_free(k: int, d: int) -> Term:
        v = venv[k]
        if not isinstance(v, VType):
            raise EvalError("type argument position held a non-type value")
        return lift(v.type_term, d)
    return rebind(t, on_free)


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


def _run_builtin(env: GlobalEnv, name: str, args: tuple[Value, ...], fuel: Fuel) -> Value:
    if name in _ARITH or name in _CMP:
        a, b = args
        if not (isinstance(a, VInt) and isinstance(b, VInt)):
            raise EvalError(f"{name} expects integer arguments")
        if name in _ARITH:
            return VInt(_ARITH[name](a.value, b.value))
        return _vbool(_CMP[name](a.value, b.value))
    if name in _BOOLOP:
        a, b = args
        return _vbool(_BOOLOP[name](a == VTRUE, b == VTRUE))
    if name == "negb":
        return _vbool(args[0] == VFALSE)
    if name == "eqb":
        _ty, a, b = args
        return _vbool(_values_identical(a, b))
    raise EvalError(f"unknown builtin {name}")


def _values_identical(a: Value, b: Value) -> bool:
    if isinstance(a, VInt) and isinstance(b, VInt):
        return a.value == b.value
    if isinstance(a, VCtor) and isinstance(b, VCtor):
        return (a.inductive == b.inductive and a.ctor_index == b.ctor_index
                and len(a.args) == len(b.args)
                and all(_values_identical(x, y) for x, y in zip(a.args, b.args)))
    raise EvalError("decidable equality applied to non-data values")


def value_to_term(v: Value) -> Term:
    """Read a data value back into the term language."""
    if isinstance(v, VInt):
        return IntLit(v.value)
    if isinstance(v, VCtor):
        return make_app(Ctor(v.inductive, v.ctor_index),
                        list(v.type_args) + [value_to_term(a) for a in v.args])
    if isinstance(v, VType):
        return v.type_term
    raise EvalError(f"value of kind {type(v).__name__} has no term form")


# ---------------------------------------------------------------------------
# Random data generation
# ---------------------------------------------------------------------------

_INF = float("inf")


def min_term_size(env: GlobalEnv, ty: Term, _active: frozenset = frozenset()):
    """Least constructor-node count of an inhabitant of the ground type ty,
    or infinity when it has none; computed once per environment and type."""
    if isinstance(ty, IntT):
        return 1
    if not _active:
        size = env.memo.get(("min_term_size", ty))
        if size is None:
            size = env.memo["min_term_size", ty] = _min_term_size(env, ty, _active)
        return size
    return _min_term_size(env, ty, _active)


def _min_term_size(env: GlobalEnv, ty: Term, active: frozenset):
    """min_term_size of ty with the types in `active` (those being sized
    further up) counted as uninhabited."""
    inst = as_inductive_instance(ty)
    if inst is None or ty in active:
        return _INF
    name, targs = inst
    decl = env.inductive(name)
    if len(targs) != len(decl.params):
        return _INF
    best = _INF
    for k in range(len(decl.ctors)):
        arg_tys = ctor_arg_types(env, name, k, targs)
        total = 1
        for at in arg_tys:
            total += min_term_size(env, at, active | {ty})
        best = min(best, total)
    return best


def random_ground_term(env: GlobalEnv, ty: Term, size: int, seed=0) -> Term:
    """A closed well-typed term of the ground object type ty with at most
    max(size, minimal) constructor nodes; deterministic for a fixed seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _random_value_term(env, ty, size, rng)


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


# ---------------------------------------------------------------------------
# Propositional evaluation and the randomized truth oracle
# ---------------------------------------------------------------------------

class EvalUnsupported(FolbridgeError):
    """Statement shape outside the decidable evaluation fragment."""


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


def eval_prop(env: GlobalEnv, t: Term, rng: random.Random | None = None,
              fuel: Fuel | None = None) -> bool:
    """Decide a closed quantifier-free proposition (implications allowed;
    existentials only in the datatype-exhaustiveness shape)."""
    if rng is None:
        rng = random.Random(0)
    if fuel is None:
        fuel = Fuel()
    return _eval_prop(env, t, rng, fuel)


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


@dataclass
class Counterexample:
    statement: Term
    instance: Term
    detail: str = ""


def replace_tvars(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, TVar) and t.name in mapping:
        return mapping[t.name]
    return map_subterms(t, lambda s, _e: replace_tvars(s, mapping))


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
