"""Typechecking, normalization, convertibility, and a ground evaluator.

normalize is a substitution-based rewriter (beta/delta/iota/guarded fix,
deterministic leftmost-outermost); eval_ground is an independent
environment machine used as the semantic oracle. The two agree on closed
ground terms and that agreement is itself property-tested.

random_truth_check instantiates a statement's prenex binders with random
ground data and decides the rest with the evaluator. The instances are
drawn as Values and bound in the evaluator's value environment: the body
is evaluated as it stands, not rewritten with the instances' terms, and
fuel counts only the statement's own nodes. Random data is read off one
constructor table per ground type, kept in GlobalEnv.memo (each
constructor's instantiated argument types, their least sizes and the
total), and the random arguments that probe function values are built as
Values alongside their terms, not evaluated again. Functions over an empty
domain are equal without a probe. The type of each closed binder domain or
instantiated implication premise is computed once per environment
(GlobalEnv.memo).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter

from .terms import (
    BUILTIN_FUNCTIONS, FALSE, INT, PROP, TRUE, TYPE, And, App, Const,
    Ctor, Eq, Exists, FalseP, Fix, FolbridgeError, GlobalEnv, Ind, IntLit,
    IntT, Lam, Match, Not, Or, Pi, SortProp, SortType, TVar, Term, TrueP,
    Var, as_inductive_instance, builtin_type, children, ctor_arg_types,
    ctor_type, ind_type, lift, make_app, map_subterms, rebind, spine, subst,
    subst_list, well_scoped,
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
# Typechecking
# ---------------------------------------------------------------------------

_SORTS = (SortType, SortProp)

# Closed leaves whose type is Type. Flat universes: both sorts live in Type
# (no hierarchy).
_TYPE_TYPED = frozenset({TVar, IntT, SortType, SortProp})


def infer(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel | None = None) -> tuple[Term, Term]:
    """(t, type of t): the typing judgement as a pair. Typing never
    rebuilds a term, so the first component is t itself."""
    return t, typecheck(env, ctx, t, fuel)


def typecheck(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel | None = None) -> Term:
    """Type of t in ctx (ctx[0] is the innermost binder's type); raises
    TypingError when t is ill-typed."""
    if fuel is None:
        fuel = Fuel()
    return _infer(env, ctx, t, fuel)


def _closed_type_of(env: GlobalEnv, t: Term) -> Term:
    """typecheck(env, [], t), computed once per environment and term; a
    term whose typecheck raises is typechecked (and raises) on every call."""
    ty = env.memo.get(("closed_type_of", t))
    if ty is None:
        ty = env.memo["closed_type_of", t] = typecheck(env, [], t)
    return ty


def _infer(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel) -> Term:
    # Dispatch is on the exact node class, the most frequent first.
    cls = type(t)
    if cls is App:
        hty = _infer(env, ctx, t.head, fuel)
        if type(hty) is not Pi:  # a product is its own whnf
            hty = whnf(env, hty, fuel)
            if type(hty) is not Pi:
                raise TypingError("application head is not a function")
        aty = _infer(env, ctx, t.arg, fuel)
        if not convertible(env, ctx, aty, hty.domain, fuel):
            raise TypingError(
                f"argument type mismatch: expected {hty.domain}, found {aty}")
        return subst(hty.codomain, 0, t.arg)
    if cls is Var:
        if not 0 <= t.index < len(ctx):
            raise TypingError(f"unbound variable index {t.index}")
        return lift(ctx[t.index], t.index + 1)
    if cls is Const:
        b = builtin_type(t.name)
        return b if b is not None else env.definition(t.name).type
    if cls is Ctor:
        return ctor_type(env, t.inductive, t.ctor_index)
    if cls is Ind:
        return ind_type(env.inductive(t.inductive))
    if cls is IntLit:
        return INT
    if cls in _TYPE_TYPED:
        return TYPE
    if cls is Pi:
        if type(_infer(env, ctx, t.domain, fuel)) not in _SORTS:
            raise TypingError("binder domain is not a type or proposition")
        csort = _infer(env, [t.domain] + ctx, t.codomain, fuel)
        if type(csort) not in _SORTS:
            raise TypingError("product codomain is not a type or proposition")
        return csort
    if cls is Lam:
        if type(_infer(env, ctx, t.domain, fuel)) not in _SORTS:
            raise TypingError("lambda domain is not a type")
        return Pi(t.binder, t.domain, _infer(env, [t.domain] + ctx, t.body, fuel))
    if cls is Match:
        inst = as_inductive_instance(whnf(env, _infer(env, ctx, t.scrutinee, fuel), fuel))
        if inst is None or inst[0] != t.inductive:
            raise TypingError(f"match scrutinee is not of type {t.inductive}")
        type_args = inst[1]
        decl = env.inductive(t.inductive)
        if len(type_args) != len(decl.params):
            raise TypingError(f"{t.inductive} applied to wrong number of type arguments")
        if len(t.branches) != len(decl.ctors):
            raise TypingError(
                f"match on {t.inductive} needs {len(decl.ctors)} branches, "
                f"found {len(t.branches)}")
        rty = t.return_type
        if type(_infer(env, ctx, rty, fuel)) not in _SORTS:
            raise TypingError("match return annotation is not a type")
        for k, (br, cd) in enumerate(zip(t.branches, decl.ctors)):
            if br.arity != len(cd.arg_types):
                raise TypingError(
                    f"branch for {cd.name} binds {br.arity} arguments, "
                    f"constructor has {len(cd.arg_types)}")
            # ctx extension: first ctor arg is outermost.
            bctx = ctx
            for j, at in enumerate(ctor_arg_types(env, t.inductive, k, type_args)):
                bctx = [lift(at, j)] + bctx
            bty = _infer(env, bctx, br.body, fuel)
            if not convertible(env, bctx, bty, lift(rty, br.arity), fuel):
                raise TypingError(f"branch for {cd.name} has type {bty}, expected {rty}")
        return rty
    if cls is Fix:
        fty = t.full_type
        if type(_infer(env, ctx, fty, fuel)) not in _SORTS:
            raise TypingError("fixpoint type annotation is not a type")
        binders = []
        walk = fty
        while type(walk) is Pi:
            binders.append(walk.domain)
            walk = walk.codomain
        if not 0 <= t.decreasing < len(binders):
            raise TypingError("fixpoint decreasing index out of range")
        if as_inductive_instance(whnf(env, binders[t.decreasing], fuel)) is None:
            raise TypingError("fixpoint decreasing argument is not of an inductive type")
        fctx = [fty] + ctx
        if not convertible(env, fctx, _infer(env, fctx, t.body, fuel), lift(fty, 1), fuel):
            raise TypingError("fixpoint body type differs from its annotation")
        return fty
    if cls is Eq:
        lty = _infer(env, ctx, t.lhs, fuel)
        rty = _infer(env, ctx, t.rhs, fuel)
        at = t.at_type
        if type(_infer(env, ctx, at, fuel)) not in _SORTS:
            raise TypingError("equality annotation is not a type")
        if not convertible(env, ctx, lty, at, fuel) or not convertible(env, ctx, rty, at, fuel):
            raise TypingError(
                f"equality sides disagree: {lty} vs {rty} at {at}")
        return PROP
    if cls is TrueP or cls is FalseP:
        return PROP
    if cls is And or cls is Or:
        ls, rs = _infer(env, ctx, t.lhs, fuel), _infer(env, ctx, t.rhs, fuel)
        if type(ls) is not SortProp or type(rs) is not SortProp:
            raise TypingError("connective applied to non-propositions")
        return PROP
    if cls is Not:
        if type(_infer(env, ctx, t.body, fuel)) is not SortProp:
            raise TypingError("negation applied to a non-proposition")
        return PROP
    if cls is Exists:
        if type(_infer(env, ctx, t.domain, fuel)) is not SortType:
            raise TypingError("existential domain is not a type")
        if type(_infer(env, [t.domain] + ctx, t.body, fuel)) is not SortProp:
            raise TypingError("existential body is not a proposition")
        return PROP
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
            return _bool_term(a == b)
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
                t = make_app(Match(scrut, head.inductive, head.return_type, head.branches), args)
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
    if t2 is not t:
        t3 = whnf(env, t2, fuel)
        if t3 != t2:
            return _norm(env, t3, fuel)
    return t2


def convertible(env: GlobalEnv, ctx: list[Term], t: Term, u: Term,
                fuel: Fuel | None = None) -> bool:
    """True iff t and u share a normal form up to alpha (term equality)."""
    if fuel is None:
        fuel = Fuel()
    if t == u:
        return True
    return _norm(env, t, fuel) == _norm(env, u, fuel)


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

    try:
        out = go(t)
        while True:
            again = go(out)
            if again == out:
                return out
            out = again
    finally:
        del go  # empties go's own closure cell: no reference cycle is left


# ---------------------------------------------------------------------------
# Ground evaluation (environment machine)
# ---------------------------------------------------------------------------

class Value:
    """Base of the evaluator's values: slotted, immutable by convention,
    compared field by field with `==` (the fields the class's `_key`
    reads) and not hashable."""
    __slots__ = ()
    # The field-less base (the proof binder's value) compares by class.
    _key = attrgetter("__class__")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class VInt(Value):
    __slots__ = ("value",)
    _key = attrgetter("value")

    def __init__(self, value: int) -> None:
        self.value = value


class VCtor(Value):
    __slots__ = ("inductive", "ctor_index", "type_args", "args")
    _key = attrgetter("inductive", "ctor_index", "type_args", "args")

    def __init__(self, inductive: str, ctor_index: int,
                 type_args: tuple[Term, ...], args: tuple[Value, ...]) -> None:
        self.inductive = inductive
        self.ctor_index = ctor_index
        self.type_args = type_args
        self.args = args


class VType(Value):
    """A type used as an argument; payload is a closed type term."""
    __slots__ = ("type_term",)
    _key = attrgetter("type_term")

    def __init__(self, type_term: Term) -> None:
        self.type_term = type_term


class VClosure(Value):
    __slots__ = ("env_values", "term")
    _key = attrgetter("env_values", "term")

    def __init__(self, env_values: tuple[Value, ...], term: Term) -> None:
        self.env_values = env_values
        self.term = term  # Lam


class VFix(Value):
    __slots__ = ("env_values", "term", "args")
    _key = attrgetter("env_values", "term", "args")

    def __init__(self, env_values: tuple[Value, ...], term: Term,
                 args: tuple[Value, ...]) -> None:
        self.env_values = env_values
        self.term = term  # Fix
        self.args = args


class VCtorPartial(Value):
    __slots__ = ("inductive", "ctor_index", "collected")
    _key = attrgetter("inductive", "ctor_index", "collected")

    def __init__(self, inductive: str, ctor_index: int,
                 collected: tuple[Value, ...]) -> None:
        self.inductive = inductive
        self.ctor_index = ctor_index
        self.collected = collected


class VBuiltin(Value):
    __slots__ = ("name", "collected")
    _key = attrgetter("name", "collected")

    def __init__(self, name: str, collected: tuple[Value, ...]) -> None:
        self.name = name
        self.collected = collected


# The value of an implication's proof binder: reading it raises the error
# that evaluating the proof term TrueP raises.
_PROOF = Value()

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
    # One fuel step per visited node (Fuel.consume, inlined). Dispatch is on
    # the exact node class, most frequent first.
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("reduction step budget exhausted")
    cls = type(t)
    if cls is App:
        f = _eval(env, t.head, venv, fuel)
        return _apply(env, f, _eval(env, t.arg, venv, fuel), fuel)
    if cls is Var:
        v = venv[t.index]
        if v is _PROOF:
            raise EvalError("not an object-level term: TrueP")
        return v
    if cls is Match:
        v = _eval(env, t.scrutinee, venv, fuel)
        if type(v) is not VCtor:
            raise EvalError("match scrutinee did not evaluate to a constructor")
        return _eval(env, t.branches[v.ctor_index].body, v.args[::-1] + venv, fuel)
    if cls is Const:
        d = env.definitions.get(t.name)
        if d is not None:
            return _eval(env, d.body, (), fuel)
        if t.name in _BUILTIN_ARITY:
            return VBuiltin(t.name, ())
        raise EvalError(f"cannot evaluate unknown constant {t.name}")
    if cls is Ctor:
        if _ctor_arity(env, t.inductive, t.ctor_index) == 0:
            return VCtor(t.inductive, t.ctor_index, (), ())
        return VCtorPartial(t.inductive, t.ctor_index, ())
    if cls is IntLit:
        return VInt(t.value)
    if cls is Lam:
        return VClosure(venv, t)
    if cls is Fix:
        return VFix(venv, t, ())
    if cls in _TYPE_LEAVES:
        return VType(t)  # no variables to resolve
    if cls is Pi:
        return VType(_reify_type(t, venv))
    raise EvalError(f"not an object-level term: {cls.__name__}")


_TYPE_LEAVES = frozenset({Ind, IntT, TVar, SortType, SortProp})


def _ctor_arity(env: GlobalEnv, ind: str, index: int) -> int:
    """Type parameters plus value arguments of a constructor; computed once
    per environment."""
    n = env.memo.get(("ctor_arity", ind, index))
    if n is None:
        decl = env.inductive(ind)
        n = env.memo["ctor_arity", ind, index] = (
            len(decl.params) + len(decl.ctors[index].arg_types))
    return n


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
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("reduction step budget exhausted")
    cls = type(f)
    if cls is VCtorPartial:
        collected = f.collected + (a,)
        if len(collected) < _ctor_arity(env, f.inductive, f.ctor_index):
            return VCtorPartial(f.inductive, f.ctor_index, collected)
        n_params = len(env.inductive(f.inductive).params)
        type_args = []
        for v in collected[:n_params]:
            if type(v) is not VType:
                raise EvalError("constructor type argument is not a type")
            type_args.append(v.type_term)
        return VCtor(f.inductive, f.ctor_index, tuple(type_args), collected[n_params:])
    if cls is VClosure:
        return _eval(env, f.term.body, (a,) + f.env_values, fuel)
    if cls is VFix:
        fix = f.term
        args = f.args + (a,)
        n_binders = 0
        walk = fix.body
        while type(walk) is Lam:
            n_binders += 1
            walk = walk.body
        if len(args) < n_binders:
            return VFix(f.env_values, fix, args)
        if len(args) > n_binders:
            raise EvalError("fixpoint applied to too many arguments")
        if type(args[fix.decreasing]) not in (VCtor, VInt):
            raise EvalError("fixpoint decreasing argument is not a data value")
        inner = args[::-1] + (VFix(f.env_values, fix, ()),) + f.env_values
        return _eval(env, walk, inner, fuel)
    if cls is VBuiltin:
        collected = f.collected + (a,)
        if len(collected) == _BUILTIN_ARITY[f.name]:
            return _run_builtin(env, f.name, collected, fuel)
        return VBuiltin(f.name, collected)
    if cls is VType:
        # A type constructor applied to a type argument stays a type.
        if type(a) is not VType:
            raise EvalError("type constructor applied to a non-type value")
        return VType(App(f.type_term, a.type_term))
    raise EvalError(f"cannot apply value of kind {cls.__name__}")


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
    if len(targs) != len(env.inductive(name).params):
        return _INF
    best = _INF
    for arg_tys in _ctor_arg_types(env, ty, name, targs):
        total = 1
        for at in arg_tys:
            total += min_term_size(env, at, active | {ty})
        best = min(best, total)
    return best


def _ctor_arg_types(env: GlobalEnv, ty: Term, name: str,
                    targs: list[Term]) -> tuple[tuple[Term, ...], ...]:
    """Each constructor's argument types instantiated at the type arguments
    of ty = name targs; computed once per environment and type."""
    arg_tys = env.memo.get(("ctor_arg_types", ty))
    if arg_tys is None:
        arg_tys = env.memo["ctor_arg_types", ty] = tuple(
            tuple(ctor_arg_types(env, name, k, targs))
            for k in range(len(env.inductive(name).ctors)))
    return arg_tys


@dataclass
class _CtorTable:
    """How to build data of one ground inductive instance ty = name targs:
    rows[k] holds constructor k's instantiated argument types, their least
    sizes and 1 + their sum; least is the least of those totals."""
    name: str
    targs: tuple[Term, ...]
    rows: tuple[tuple[tuple[Term, ...], tuple, float], ...]
    least: float
    vtargs: tuple[Term, ...] | None = None  # targs as eval_ground gives them


def _ctor_table(env: GlobalEnv, ty: Term) -> _CtorTable | None:
    """The constructor table of ty, built once per environment and type;
    None when ty is not an inductive instance."""
    table = env.memo.get(("ctor_table", ty))
    if table is None:
        inst = as_inductive_instance(ty)
        if inst is None:
            return None
        name, targs = inst
        rows = []
        for arg_tys in _ctor_arg_types(env, ty, name, targs):
            mins = tuple(min_term_size(env, at) for at in arg_tys)
            rows.append((arg_tys, mins, 1 + sum(mins)))
        table = env.memo["ctor_table", ty] = _CtorTable(
            name, tuple(targs), tuple(rows), min(total for _, _, total in rows))
    return table


def _type_values(env: GlobalEnv, targs: tuple[Term, ...]) -> tuple[Term, ...]:
    """The closed types eval_ground makes of the type arguments targs (an
    alias unfolds)."""
    out = []
    for t in targs:
        v = eval_ground(env, t)
        if not isinstance(v, VType):
            raise EvalError("constructor type argument is not a type")
        out.append(v.type_term)
    return tuple(out)


def random_ground_term(env: GlobalEnv, ty: Term, size: int, seed=0) -> Term:
    """A closed well-typed term of the ground object type ty with at most
    max(size, minimal) constructor nodes; deterministic for a fixed seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _random_datum(env, ty, size, rng, False)[0]


def _random_datum(env: GlobalEnv, ty: Term, size: int, rng: random.Random,
                  with_value: bool = True) -> tuple[Term, Value | None]:
    """A random inhabitant of ty as a pair: its term and the Value that
    eval_ground gives that term. Without with_value, constructed data gets
    no Value (None), only the term."""
    if isinstance(ty, IntT):
        n = rng.randint(-20, 20)
        return IntLit(n), VInt(n)
    table = _ctor_table(env, ty)
    if table is None:
        raise Uninhabited(f"cannot generate a value of type {ty!r}")
    if table.least == _INF:
        raise Uninhabited(f"type {ty!r} has no inhabitants")
    budget = max(size, table.least)
    k = rng.choice([i for i, row in enumerate(table.rows) if row[2] <= budget])
    arg_tys, arg_mins, total = table.rows[k]
    slack = budget - total
    args = list(table.targs)
    values = []
    for at, m in zip(arg_tys, arg_mins):
        extra = rng.randint(0, slack) if slack > 0 else 0
        slack -= extra
        term, value = _random_datum(env, at, int(m) + extra, rng, with_value)
        args.append(term)
        values.append(value)
    term = make_app(Ctor(table.name, k), args)
    if not with_value:
        return term, None
    if table.vtargs is None:
        table.vtargs = _type_values(env, table.targs)
    return term, VCtor(table.name, k, table.vtargs, tuple(values))


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
         fuel: Fuel, probes: int = 6, depth: int = 3,
         venv: tuple[Value, ...] = ()) -> bool:
    """Semantic equality: structural on data, extensional sampling on
    function values (sound for refutation, probabilistic for assent).
    at_type may mention the type variables bound in venv; it is resolved
    only when a and b are functions."""
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
        return a.type_term == b.type_term
    # Function-valued: probe at random arguments.
    if depth <= 0:
        raise EvalUnsupported("function comparison nesting too deep")
    at = _reify_type(at_type, venv) if venv and at_type is not None else at_type
    if not isinstance(at, Pi):
        raise EvalUnsupported("cannot compare non-data values without an arrow type")
    table = None if isinstance(at.domain, SortType) else _ctor_table(env, at.domain)
    if table is not None and table.least == _INF:
        return True  # no argument to apply them to: equal vacuously
    for _ in range(probes):
        if isinstance(at.domain, SortType):
            garg = random_ground_type(env, rng)
            va: Value = VType(garg)
        else:
            garg, va = _random_datum(env, at.domain, rng.randint(1, 5), rng)
        ra = _apply(env, a, va, fuel)
        rb = _apply(env, b, va, fuel)
        cod = subst(at.codomain, 0, garg)
        if not _veq(env, ra, rb, cod, rng, fuel, probes, depth - 1):
            return False
    return True


def eval_prop(env: GlobalEnv, t: Term, rng: random.Random | None = None,
              fuel: Fuel | None = None) -> bool:
    """Decide a closed quantifier-free proposition (implications allowed;
    existentials only in the datatype-exhaustiveness shape). Fuel counts
    the evaluated nodes of t. random_truth_check runs the same evaluation on
    a statement's body with the prenex instances bound as values in the
    environment, so the instances' own nodes are never evaluated or
    charged."""
    if rng is None:
        rng = random.Random(0)
    if fuel is None:
        fuel = Fuel()
    return _eval_prop(env, t, (), (), rng, fuel)


def _eval_prop(env: GlobalEnv, t: Term, venv: tuple[Value, ...],
               insts: tuple[Term, ...], rng: random.Random, fuel: Fuel) -> bool:
    """eval_prop of t with its free variables bound in venv; insts holds
    the closed term of each venv value, in the same order, and is read only
    to instantiate an implication premise (to type it) or an existential."""
    if isinstance(t, Eq):
        va = _eval(env, t.lhs, venv, fuel)
        vb = _eval(env, t.rhs, venv, fuel)
        return _veq(env, va, vb, t.at_type, rng, fuel, venv=venv)
    if isinstance(t, TrueP):
        return True
    if isinstance(t, FalseP):
        return False
    if isinstance(t, And):
        return (_eval_prop(env, t.lhs, venv, insts, rng, fuel)
                and _eval_prop(env, t.rhs, venv, insts, rng, fuel))
    if isinstance(t, Or):
        return (_eval_prop(env, t.lhs, venv, insts, rng, fuel)
                or _eval_prop(env, t.rhs, venv, insts, rng, fuel))
    if isinstance(t, Not):
        return not _eval_prop(env, t.body, venv, insts, rng, fuel)
    if isinstance(t, Pi):
        # Non-dependent Pi over Prop is implication; quantifiers must have
        # been instantiated by the caller. The codomain's binder is the
        # premise's proof, bound to _PROOF, whose term is TrueP.
        premise = subst_list(t.domain, insts) if insts else t.domain
        if not isinstance(_closed_type_of(env, premise), SortProp):
            raise EvalUnsupported("residual quantifier in propositional evaluation")
        if not _eval_prop(env, t.domain, venv, insts, rng, fuel):
            return True
        return _eval_prop(env, t.codomain, (_PROOF,) + venv, (TrueP(),) + insts, rng, fuel)
    if isinstance(t, Exists):
        return _eval_exists(env, subst_list(t, insts) if insts else t, rng, fuel)
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
    """Names of the TVars in t, in preorder of first occurrence."""
    seen: list[str] = []
    stack = [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is App:
            stack.append(s.arg)
            stack.append(s.head)
        elif cls is TVar:
            if s.name not in seen:
                seen.append(s.name)
        elif cls in _COMPOUND:
            stack.extend([c for c, _ in reversed(children(s))])
    return seen


# Node classes with subterms, App aside.
_COMPOUND = frozenset({Pi, Lam, Match, Fix, Eq, And, Or, Not, Exists})


def random_truth_check(env: GlobalEnv, statement: Term, samples: int = 50,
                       size: int = 6, seed: int = 0) -> Counterexample | None:
    """Randomized semantic truth test: instantiate the prenex universal
    binders (types and objects) with random ground data and evaluate.
    Returns a counterexample on the first falsifying sample.

    The instances are drawn as values and bound in the evaluator's value
    environment; the statement's body is not rewritten, and the instances'
    terms are substituted into it only to report a counterexample. Each
    sample gets a fresh Fuel, which counts the evaluated nodes of the
    statement's own terms only: neither the instance data nor the random
    arguments that probe function values are charged."""
    rng = random.Random(seed)
    tvs = collect_tvars(statement)
    for _ in range(samples):
        stmt = statement
        if tvs:
            stmt = replace_tvars(stmt, {n: random_ground_type(env, rng) for n in tvs})
        # insts[i] instantiates the i-th binder of the prenex prefix and
        # values[i] is its value, so reversed(values) is the environment of
        # Var(0), Var(1), ... under the binders taken.
        insts: list[Term] = []
        values: list[Value] = []
        ok = True
        while isinstance(stmt, Pi):
            dom = subst_list(stmt.domain, insts[::-1]) if insts else stmt.domain
            if isinstance(dom, SortType):
                inst = random_ground_type(env, rng)
                value: Value = VType(inst)
            elif isinstance(_closed_type_of(env, dom), SortProp):
                break  # implication: handled by eval_prop
            else:
                try:
                    inst, value = _random_datum(env, dom, rng.randint(1, max(size, 1)), rng)
                except Uninhabited:
                    ok = False  # vacuously true: domain empty
                    break
            insts.append(inst)
            values.append(value)
            stmt = stmt.codomain
        if not ok:
            continue
        terms = tuple(reversed(insts))
        if not _eval_prop(env, stmt, tuple(reversed(values)), terms, rng, Fuel()):
            return Counterexample(statement, subst_list(stmt, terms) if terms else stmt)
    return None
