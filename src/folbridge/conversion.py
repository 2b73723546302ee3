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
constructor table per ground type (each constructor's instantiated
argument types, their least sizes and the total), and the random arguments
that probe function values are built as Values alongside their terms, not
evaluated again. A type that mentions a definition (an alias) is sized and
sampled as its normal form. Functions over an empty
domain are equal without a probe, and so are structurally equal function
values (the same closure, fixpoint or partial application over equal
captured values), which is how the hypothesis `c = body` of a definition
is decided: by reflexivity, as the paper's Coq proof does. Such a
comparison draws no random argument, so the draws that follow it in the
same call differ from those of an oracle that probes every function. The
oracle never typechecks: whether a binder domain or an implication premise
is a proposition is read off its shape (terms.is_prop), and a domain that
is neither Int nor an inductive instance cannot be sampled and raises
EvalUnsupported.

Only this module uses GlobalEnv.memo, for five caches: the closed-type
table (`_infer`), the closed-value table (`_eval`), per ground type its
least inhabitant size (`min_term_size`) and its constructor table
(`_ctor_table`), and the draw memo of random_truth_check.

The closed-value table holds, per closed application that holds no Lam and
no Fix, its value and the fuel steps its evaluation took; a hit charges
those steps, so fuel counts as if the term were evaluated. Such a term
reads no value environment, and no closure in its value can capture one,
because a constant's body is evaluated under the empty environment: its
value is the same wherever it is evaluated. A closed `fun` or `fix`, by
contrast, captures the environment it is evaluated in, so two of its
closures from different places are different values that `_veq` probes
with random arguments; read from a table they would be one value, compared
without a probe, and the draws after that comparison would move. With the
rule, every value, verdict, draw, counterexample and fuel count is the one
evaluating each node gives.

A first sample always starts from
`random.Random(seed)`, so what it draws is fixed by the key `(seed, size,
number of declared inductives, type-variable names in collect_tvars order,
prenex binder domains as written)`; the memo keeps, per key, the type
variables' instances, the binder instances' terms and values, or the fact
that a domain is empty. The inductive count is in the key because
random_ground_type chooses among every declared inductive, so a declaration
changes the draws. The memo keeps no generator state (a `getstate()` tuple
is about 24 KB): a check that needs the generator after its first sample
seeds one and replays that sample's draws. None of the caches is ever
invalidated: a declaration only adds names (for the draw memo it changes
the key instead), and only successes are stored. A term key is name-blind,
so a table's type arguments, and the instances in a draw memo entry, keep
the binder names of the alpha-equal term that filled them; they reach
random data and counterexamples only.
"""

from __future__ import annotations

import random
from operator import attrgetter

from .terms import (
    BUILTIN_FUNCTIONS, FALSE, HAS_CONST, HAS_FIX, HAS_LAM, HAS_MATCH, HAS_TVAR,
    INT, PROP, TRUE, TYPE, And, App, Const,
    Ctor, Eq, Exists, FalseP, Fix, FolbridgeError, GlobalEnv, Ind, IntLit,
    IntT, LEAVES, Lam, Match, Not, Or, Pi, Record, ScopeError, SortProp, SortType, TVar,
    Term, TrueP, Var, as_inductive_instance, builtin_type, children, ctor_arg_types,
    is_prop, lift, make_app, node_repr, normal_form, rebind,
    spine, strip_pis, subst, subst_list, well_scoped,
)
from .printer import print_term


class TypingError(FolbridgeError):
    pass


class FuelExhausted(FolbridgeError):
    pass


class EvalError(FolbridgeError):
    pass


class Uninhabited(FolbridgeError):
    pass


DEFAULT_FUEL = 100_000


class Fuel(Record):
    """Reduction-step budget; turns divergence bugs into diagnosable errors."""
    __slots__ = _fields = ("remaining",)
    __hash__ = None

    def __init__(self, remaining: int = DEFAULT_FUEL) -> None:
        self.remaining = remaining

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
    TypingError when t is ill-typed, a fixpoint whose recursion is not
    structural included (see `_check_guard`). The types of closed compound
    subterms, the closed heads of open spines among them, come from the
    environment's closed-type table (see `_infer`) when they are there, and
    a table hit consumes no fuel."""
    if fuel is None:
        fuel = Fuel()
    return _infer(env, ctx, t, fuel)


# The closed-type table's key in GlobalEnv.memo.
_CLOSED_TYPES = ("closed_type",)


def _infer(env: GlobalEnv, ctx: list[Term], t: Term, fuel: Fuel) -> Term:
    """The type of t in ctx. A closed compound term's type does not depend
    on ctx: it is read from the environment's closed-type table, or computed
    and stored there. Only successes are stored, so a term whose typing
    raises raises on every call. The table is keyed by the identity of the
    term, and an entry holds the term, so its id is not reused: a type
    always carries the binder names of its own term, never those of an
    alpha-equal one. An open spine is typed from its longest closed
    prefix, so a head such as `length (list Int)` that many terms apply is
    instantiated once per environment, not at every occurrence. A closed
    type needs no index rewrite, so a variable whose context type is closed
    gets that very object, and so does a spine whose final codomain is
    closed: neither calls a kernel."""
    # Dispatch is on the exact node class, the most frequent first. A leaf
    # or a variable returns its type at once; a compound node's type is
    # `ty`, stored in the table when the node is closed.
    cls = type(t)
    table = None
    if not t._free and cls not in LEAVES:
        table = env.memo.get(_CLOSED_TYPES)
        if table is None:
            table = env.memo[_CLOSED_TYPES] = {}
        hit = table.get(id(t))
        if hit is not None:
            return hit[1]
    if cls is App:
        # The spine at once: each argument is checked against its domain
        # instantiated with the arguments before it, and the codomain is
        # instantiated once, at the end. `done` holds the arguments that
        # hty, under as many binders, still waits for. An open spine stops
        # at its longest closed prefix, whose type the recursive call reads
        # from the table or stores there; a closed spine (table is not
        # None) is walked down to its head, and only its whole is stored.
        args: list[Term] = []
        head = t
        while type(head) is App and (head._free or table is not None):
            args.append(head.arg)
            head = head.head
        hty = _infer(env, ctx, head, fuel)
        done: list[Term] = []
        for arg in reversed(args):
            if type(hty) is not Pi:  # a product is its own whnf
                if done:
                    hty = subst_list(hty, done[::-1], env.apps)
                    done = []
                hty = whnf(env, hty, fuel)
                if type(hty) is not Pi:
                    raise TypingError("application head is not a function")
            aty = _infer(env, ctx, arg, fuel)
            dom = hty.domain
            if done and dom._free:
                # A variable bound by the spine stands for its argument.
                dom = (done[-1 - dom.index] if type(dom) is Var and dom.index < len(done)
                       else subst_list(dom, done[::-1], env.apps))
            if not convertible(env, aty, dom, fuel):
                raise TypingError(
                    f"argument type mismatch: expected {dom}, found {aty}")
            done.append(arg)
            hty = hty.codomain
        ty = subst_list(hty, done[::-1], env.apps) if hty._free else hty
    elif cls is Var:
        if not 0 <= t.index < len(ctx):
            raise TypingError(f"unbound variable index {t.index}")
        ty = ctx[t.index]
        return lift(ty, t.index + 1) if ty._free else ty
    elif cls is Const:
        b = builtin_type(t.name)
        return b if b is not None else env.definition(t.name).type
    elif cls is Ctor:
        try:
            return env.inductive(t.inductive).ctor_types[t.ctor_index]
        except IndexError:
            raise ScopeError(f"{t.inductive} has no constructor {t.ctor_index}") from None
    elif cls is Ind:
        return env.inductive(t.inductive).type
    elif cls is IntLit:
        return INT
    elif cls in _TYPE_TYPED:
        return TYPE
    elif cls is Pi:
        if type(_infer(env, ctx, t.domain, fuel)) not in _SORTS:
            raise TypingError("binder domain is not a type or proposition")
        ty = _infer(env, [t.domain] + ctx, t.codomain, fuel)
        if type(ty) not in _SORTS:
            raise TypingError("product codomain is not a type or proposition")
    elif cls is Lam:
        if type(_infer(env, ctx, t.domain, fuel)) not in _SORTS:
            raise TypingError("lambda domain is not a type")
        ty = Pi(t.binder, t.domain, _infer(env, [t.domain] + ctx, t.body, fuel))
    elif cls is Match:
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
            if not convertible(env, bty, lift(rty, br.arity), fuel):
                raise TypingError(f"branch for {cd.name} has type {bty}, expected {rty}")
        ty = rty
    elif cls is Fix:
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
        if not convertible(env, _infer(env, fctx, t.body, fuel), lift(fty, 1), fuel):
            raise TypingError("fixpoint body type differs from its annotation")
        _check_guard(env, t)
        ty = fty
    elif cls is Eq:
        lty = _infer(env, ctx, t.lhs, fuel)
        rty = _infer(env, ctx, t.rhs, fuel)
        at = t.at_type
        if type(_infer(env, ctx, at, fuel)) not in _SORTS:
            raise TypingError("equality annotation is not a type")
        if not convertible(env, lty, at, fuel) or not convertible(env, rty, at, fuel):
            raise TypingError(
                f"equality sides disagree: {lty} vs {rty} at {at}")
        ty = PROP
    elif cls is TrueP or cls is FalseP:
        return PROP
    elif cls is And or cls is Or:
        ls, rs = _infer(env, ctx, t.lhs, fuel), _infer(env, ctx, t.rhs, fuel)
        if type(ls) is not SortProp or type(rs) is not SortProp:
            raise TypingError("connective applied to non-propositions")
        ty = PROP
    elif cls is Not:
        if type(_infer(env, ctx, t.body, fuel)) is not SortProp:
            raise TypingError("negation applied to a non-proposition")
        ty = PROP
    elif cls is Exists:
        if type(_infer(env, ctx, t.domain, fuel)) is not SortType:
            raise TypingError("existential domain is not a type")
        if type(_infer(env, [t.domain] + ctx, t.body, fuel)) is not SortProp:
            raise TypingError("existential body is not a proposition")
        ty = PROP
    else:
        raise TypingError(f"cannot type {t!r}")
    if table is not None:
        table[id(t)] = (t, ty)
    return ty


def _check_guard(env: GlobalEnv, t: Fix) -> None:
    """Raise TypingError unless every recursive call of the fixpoint t is
    structural: each occurrence of its self variable is applied to at least
    `decreasing + 1` arguments, and the decreasing one is a variable bound
    by a branch of a match on the decreasing binder (one of the body's
    leading lambdas), or on a variable already known to be smaller. Such a
    variable is a constructor argument of the value it was matched out of,
    so every call recurses on a strictly smaller finite value (Gimenez,
    TYPES 1994, the basis of Coq's guard checker).

    Inductives need no positivity check for this to hold: a constructor
    argument of arrow type is refused at declaration ("argument types must
    be first-order"), so every value is a finite tree. A change that admits
    such arguments must add one."""
    # A variable is named by its level, the number of binders around its
    # own: the self variable is level 0 and the body's k-th leading lambda
    # level k. `names` holds the binder names in scope, innermost first, so
    # Var(i) under them is level len(names) - 1 - i, and `smaller` has bit
    # L set when level L is known to be smaller. A variable bound outside
    # the fixpoint has no level.
    n_lams = 0
    walk = t.body
    while type(walk) is Lam:
        n_lams += 1
        walk = walk.body
    dec_bit = 1 << t.decreasing + 1 if t.decreasing < n_lams else 0
    stack = [(t.body, (t.binder,), 0)]
    while stack:
        s, names, smaller = stack.pop()
        depth = len(names)
        if not s._free >> (depth - 1) & 1:
            continue  # the self variable does not occur in s
        cls = type(s)
        if cls is App or cls is Var:
            head, args = spine(s)
            if type(head) is Var and head.index == depth - 1:
                arg = args[t.decreasing] if t.decreasing < len(args) else None
                if (type(arg) is not Var or arg.index >= depth
                        or not smaller >> (depth - 1 - arg.index) & 1):
                    # Variables bound outside the fixpoint print as ?0, ?1, ...
                    outer = [f"?{k}" for k in range(s._free.bit_length() - depth)]
                    raise TypingError(
                        f"fixpoint {t.binder} is not structurally recursive: "
                        f"{print_term(s, env, list(names) + outer)}")
            else:
                stack.append((head, names, smaller))
            stack += [(a, names, smaller) for a in args]
        elif cls is Match:
            scrut = s.scrutinee
            grow = (type(scrut) is Var and scrut.index < depth
                    and (smaller | dec_bit) >> (depth - 1 - scrut.index) & 1)
            stack += [(scrut, names, smaller), (s.return_type, names, smaller)]
            for br in s.branches:
                # A branch's binders are the levels depth, depth + 1, ...
                bound = smaller | ((1 << br.arity) - 1) << depth if grow else smaller
                stack.append((br.body, tuple(reversed(br.binders)) + names, bound))
        else:
            stack += [(c, (s.binder,) + names if extra else names, smaller)
                      for c, extra in children(s)]


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

_ARITH = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}
_CMP = {"le": lambda a, b: a <= b, "lt": lambda a, b: a < b}
_BOOLOP = {"orb": lambda a, b: a or b, "andb": lambda a, b: a and b}
_BUILTIN_ARITY = {name: len(strip_pis(ty)[0]) for name, ty in BUILTIN_FUNCTIONS.items()}


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
    if len(args) != _BUILTIN_ARITY[name]:
        return None
    if name in _ARITH or name in _CMP:
        a = whnf(env, args[0], fuel)
        b = whnf(env, args[1], fuel)
        if isinstance(a, IntLit) and isinstance(b, IntLit):
            if name in _ARITH:
                return IntLit(_ARITH[name](a.value, b.value))
            return _bool_term(_CMP[name](a.value, b.value))
        return None
    if name in _BOOLOP:
        a = whnf(env, args[0], fuel)
        if a == TRUE or a == FALSE:
            b = whnf(env, args[1], fuel)
            if b == TRUE or b == FALSE:
                return _bool_term(_BOOLOP[name](a == TRUE, b == TRUE))
        return None
    if name == "negb":
        a = whnf(env, args[0], fuel)
        if a == TRUE or a == FALSE:
            return _bool_term(a == FALSE)
        return None
    if name == "eqb":
        a = normalize(env, args[1], fuel)
        b = normalize(env, args[2], fuel)
        if _is_ground_value(a) and _is_ground_value(b):
            return _bool_term(a == b)
        return None
    return None


def whnf(env: GlobalEnv, t: Term, fuel: Fuel) -> Term:
    """Weak head normal form: beta, delta, iota, guarded fix, builtins. A
    term that holds none of the classes of _WHNF_HEADS has no spine head to
    step on and is returned at once."""
    if not t._has & _WHNF_HEADS:
        return t
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
                value_args = cargs[len(env.inductive(chead.inductive).params):]
                try:
                    br = head.branches[chead.ctor_index]
                except IndexError:
                    raise EvalError(f"match has no branch for {chead}") from None
                if len(value_args) != br.arity:
                    raise EvalError("constructor application arity mismatch in match")
                fuel.consume()
                t = make_app(subst_list(br.body, value_args[::-1]), args)
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


def normalize(env: GlobalEnv, t: Term, fuel: Fuel | None = None) -> Term:
    """Full normal form; deterministic leftmost-outermost strategy. Open
    terms reduce fine: free variables are neutral."""
    if fuel is None:
        fuel = Fuel()
    return _norm(env, t, fuel)


def _norm(env: GlobalEnv, t: Term, fuel: Fuel) -> Term:
    if not t._has & _WHNF_HEADS:
        return t  # already normal: no closure for normal_form
    return normal_form(t, lambda s: whnf(env, s, fuel), _WHNF_HEADS)


# The spine heads whnf steps on: a lambda, a constant (delta and the
# builtins), a match and a fixpoint. A term holding none is normal.
_WHNF_HEADS = HAS_LAM | HAS_CONST | HAS_MATCH | HAS_FIX


def convertible(env: GlobalEnv, t: Term, u: Term, fuel: Fuel | None = None) -> bool:
    """True iff t and u share a normal form up to alpha (term equality)."""
    if fuel is None:
        fuel = Fuel()
    return t is u or t == u or _norm(env, t, fuel) == _norm(env, u, fuel)


def beta_reduce(t: Term, fuel: Fuel | None = None) -> Term:
    """Beta-only normalization (no delta/iota/fix); used when building
    statements whose redexes are display artifacts."""
    if not t._has & HAS_LAM:
        return t  # no lambda, so no redex: no closure, no Fuel
    if fuel is None:
        fuel = Fuel()

    def head(s: Term) -> Term:
        while type(s) is App:
            h, args = spine(s)
            if type(h) is not Lam:
                break
            fuel.consume()
            s = make_app(subst(h.body, 0, args[0]), args[1:])
        return s
    return normal_form(t, head, HAS_LAM)


# ---------------------------------------------------------------------------
# Ground evaluation (environment machine)
# ---------------------------------------------------------------------------

class Value:
    """Base of the evaluator's values: slotted, immutable by convention,
    compared by `_same_value` (the fields the class's `_key` reads) and
    not hashable."""
    __slots__ = ()
    # The field-less base (the proof binder's value) compares by class.
    _key = attrgetter("__class__")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return _same_value(self, other)

    __repr__ = node_repr


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


def _same_value(a: Value, b: Value) -> bool:
    """Structural equality of two values: the same class and equal `_key`
    fields, where tuples compare element by element, nested values
    (constructor arguments, captured environments, collected arguments)
    the same way, and terms with `==` (alpha-equivalence). The walk keeps
    its own stack, so it adds no Python recursion however deep the values."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif isinstance(x, Value):
            stack.append((x._key(x), y._key(y)))
        elif x != y:
            return False
    return True


def eval_ground(env: GlobalEnv, t: Term, fuel: Fuel | None = None) -> Value:
    """Evaluate a closed term; agrees with normalize on ground terms. A
    closed application that holds no Lam and no Fix is evaluated once per
    environment (see `_eval_closed`)."""
    if fuel is None:
        fuel = Fuel()
    return _eval(env, t, (), fuel)


def _eval(env: GlobalEnv, t: Term, venv: tuple[Value, ...], fuel: Fuel) -> Value:
    # One fuel step per visited node (Fuel.consume, inlined). Dispatch is on
    # the exact node class, most frequent first.
    cls = type(t)
    if cls is App and not t._free and not t._has & _BINDS_VALUES:
        return _eval_closed(env, t, fuel)
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("reduction step budget exhausted")
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
        try:
            br = t.branches[v.ctor_index]
        except IndexError:
            raise EvalError(f"match has no branch for {Ctor(v.inductive, v.ctor_index)}") from None
        return _eval(env, br.body, v.args[::-1] + venv, fuel)
    if cls is Const:
        d = env.definitions.get(t.name)
        if d is not None:
            return _eval(env, d.body, (), fuel)
        if t.name in _BUILTIN_ARITY:
            return VBuiltin(t.name, ())
        raise EvalError(f"cannot evaluate unknown constant {t.name}")
    if cls is Ctor:
        # A missing name falls through to env.inductive, which raises.
        decl = env.inductives.get(t.inductive) or env.inductive(t.inductive)
        try:
            if decl.params or decl.ctors[t.ctor_index].arg_types:
                return VCtorPartial(t.inductive, t.ctor_index, ())
        except IndexError:
            raise ScopeError(f"{t.inductive} has no constructor {t.ctor_index}") from None
        return VCtor(t.inductive, t.ctor_index, (), ())
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

# The nodes whose value captures the value environment: a closed term that
# holds either is never answered from the closed-value table.
_BINDS_VALUES = HAS_LAM | HAS_FIX

# The closed-value table's key in GlobalEnv.memo.
_CLOSED_VALUES = ("closed_value",)


def _eval_closed(env: GlobalEnv, t: App, fuel: Fuel) -> Value:
    """_eval of a closed application that holds no Lam and no Fix, through
    the environment's closed-value table: its value and the fuel steps it
    took, stored on its first successful evaluation. Such a term reads no
    value environment, so it is evaluated under the empty one. A hit
    charges the stored steps; when they exceed what is left, it raises
    FuelExhausted with `remaining` where stepping would have left it: one
    below zero, or one below a budget that was already negative."""
    table = env.memo.get(_CLOSED_VALUES)
    if table is None:
        table = env.memo[_CLOSED_VALUES] = {}
    hit = table.get(id(t))
    if hit is not None:
        steps = hit[2]
        if steps > fuel.remaining:
            fuel.remaining = min(fuel.remaining, 0) - 1
            raise FuelExhausted("reduction step budget exhausted")
        fuel.remaining -= steps
        return hit[1]
    before = fuel.remaining
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("reduction step budget exhausted")
    f = _eval(env, t.head, (), fuel)
    v = _apply(env, f, _eval(env, t.arg, (), fuel), fuel)
    table[id(t)] = (t, v, before - fuel.remaining)
    return v


def _reify_type(t: Term, venv: tuple[Value, ...]) -> Term:
    """Resolve Var references inside a type argument to the closed types
    recorded in the value environment. A closed type is returned as it is,
    without a closure."""
    if not t._free:
        return t
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
        decl = env.inductives[f.inductive]  # _eval found it for the partial
        n_params = len(decl.params)
        if len(collected) < n_params + len(decl.ctors[f.ctor_index].arg_types):
            return VCtorPartial(f.inductive, f.ctor_index, collected)
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
        # The fixpoint's own value, with no arguments: f itself when it had none.
        self_value = VFix(f.env_values, fix, ()) if f.args else f
        inner = args[::-1] + (self_value,) + f.env_values
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
        return _vbool(_values_identical(a, b, _not_data))
    raise EvalError(f"unknown builtin {name}")


def _values_identical(a: Value, b: Value, other) -> bool:
    """Structural equality of data values, one loop over the pairs in the
    order a recursion takes them; other(x, y) decides any other pair."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is VInt and type(y) is VInt:
            if x.value != y.value:
                return False
        elif type(x) is VCtor and type(y) is VCtor:
            if (x.inductive != y.inductive or x.ctor_index != y.ctor_index
                    or len(x.args) != len(y.args)):
                return False
            stack += zip(x.args[::-1], y.args[::-1])
        elif not other(x, y):
            return False
    return True


def _not_data(_a: Value, _b: Value) -> bool:
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


def _unfolded(env: GlobalEnv, ty: Term) -> Term:
    """ty, or its normal form when it mentions a definition."""
    return _norm(env, ty, Fuel()) if ty._has & HAS_CONST else ty


def min_term_size(env: GlobalEnv, ty: Term, _active: frozenset = frozenset()):
    """Least constructor-node count of an inhabitant of the ground type ty,
    or infinity when it has none; computed once per environment and type.
    A type that mentions a definition is sized as its normal form."""
    ty = _unfolded(env, ty)
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
        total = 1
        for at in ctor_arg_types(env, name, k, targs):
            total += min_term_size(env, at, active | {ty})
        best = min(best, total)
    return best


class _CtorTable(Record):
    """How to build data of one ground inductive instance ty = name targs:
    rows[k] holds constructor k's instantiated argument types, their least
    sizes and 1 + their sum; least is the least of those totals."""
    __slots__ = _fields = ("name", "targs", "rows", "least", "vtargs")
    __hash__ = None

    def __init__(self, name: str, targs: tuple[Term, ...],
                 rows: tuple[tuple[tuple[Term, ...], tuple, float], ...], least: float,
                 vtargs: tuple[Term, ...] | None = None) -> None:
        self.name = name
        self.targs = targs
        self.rows = rows
        self.least = least
        self.vtargs = vtargs  # targs as eval_ground gives them; set on first use


def _ctor_table(env: GlobalEnv, ty: Term) -> _CtorTable | None:
    """The constructor table of ty, built once per environment and type;
    None when ty is not an inductive instance. A type that mentions a
    definition gets the table of its normal form."""
    ty = _unfolded(env, ty)
    table = env.memo.get(("ctor_table", ty))
    if table is None:
        inst = as_inductive_instance(ty)
        if inst is None:
            return None
        name, targs = inst
        rows = []
        for k in range(len(env.inductive(name).ctors)):
            arg_tys = tuple(ctor_arg_types(env, name, k, targs))
            mins = tuple(min_term_size(env, at) for at in arg_tys)
            rows.append((arg_tys, mins, 1 + sum(mins)))
        table = env.memo["ctor_table", ty] = _CtorTable(
            name, tuple(targs), tuple(rows), min(total for _, _, total in rows))
    return table


def _type_values(env: GlobalEnv, targs: tuple[Term, ...]) -> tuple[Term, ...]:
    """The closed types eval_ground makes of the type arguments targs (a
    redex among them reduces)."""
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
    return _random_datum(env, ty, size, rng)[0]


def _random_datum(env: GlobalEnv, ty: Term, size: int,
                  rng: random.Random) -> tuple[Term, Value]:
    """A random inhabitant of ty as a pair: its term and the Value that
    eval_ground gives that term. A type that mentions a definition is
    sampled as its normal form."""
    ty = _unfolded(env, ty)
    if isinstance(ty, IntT):
        n = rng.randint(-20, 20)
        return IntLit(n), VInt(n)
    table = _ctor_table(env, ty)
    if table is None:
        raise EvalUnsupported(f"cannot generate a value of type {ty!r}")
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
        term, value = _random_datum(env, at, int(m) + extra, rng)
        args.append(term)
        values.append(value)
    term = make_app(Ctor(table.name, k), args)
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


# Random arguments at which _veq compares two function values that differ.
_PROBES = 6


def _veq(env: GlobalEnv, a: Value, b: Value, at_type: Term, rng: random.Random | _Replay,
         fuel: Fuel, depth: int = 3, venv: tuple[Value, ...] = ()) -> bool:
    """Semantic equality: structural on data, extensional sampling on
    function values (sound for refutation, probabilistic for assent).
    Function values that are structurally equal (_same_value) are equal
    without a probe and draw no random argument: the hypothesis `c = body`
    of a definition c compares two equal closures, which Coq proves by
    `reflexivity`. at_type may mention the type variables bound in venv;
    it is resolved, and read as its normal form when it mentions a
    definition, only when a and b are functions that differ. rng may be a
    _Replay, whose generator is asked for before the first probe."""
    if isinstance(a, (VInt, VCtor)) and isinstance(b, (VInt, VCtor)):
        return type(a) is type(b) and _values_identical(
            a, b, lambda x, y: _veq(env, x, y, None, rng, fuel))
    if isinstance(a, VType) and isinstance(b, VType):
        return a.type_term == b.type_term
    # Function-valued: equal values need no probe, since _eval and _apply
    # are deterministic; values that differ are probed at random arguments.
    if _same_value(a, b):
        return True
    if depth <= 0:
        raise EvalUnsupported("function comparison nesting too deep")
    at = at_type
    if at is not None:
        at = _unfolded(env, _reify_type(at, venv) if venv else at)
    if not isinstance(at, Pi):
        raise EvalUnsupported("cannot compare non-data values without an arrow type")
    table = None if isinstance(at.domain, SortType) else _ctor_table(env, at.domain)
    if table is not None and table.least == _INF:
        return True  # no argument to apply them to: equal vacuously
    if type(rng) is _Replay:
        rng = rng.generator()
    for _ in range(_PROBES):
        if isinstance(at.domain, SortType):
            garg = random_ground_type(env, rng)
            va: Value = VType(garg)
        else:
            garg, va = _random_datum(env, at.domain, rng.randint(1, 5), rng)
        ra = _apply(env, a, va, fuel)
        rb = _apply(env, b, va, fuel)
        cod = subst(at.codomain, 0, garg)
        if not _veq(env, ra, rb, cod, rng, fuel, depth - 1):
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
               insts: tuple[Term, ...], rng: random.Random | _Replay, fuel: Fuel) -> bool:
    """eval_prop of t with its free variables bound in venv; insts holds
    the closed term of each venv value, in the same order, and is read only
    to instantiate an existential."""
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
        if not is_prop(t.domain):
            raise EvalUnsupported("residual quantifier in propositional evaluation")
        if not _eval_prop(env, t.domain, venv, insts, rng, fuel):
            return True
        return _eval_prop(env, t.codomain, (_PROOF,) + venv, (TrueP(),) + insts, rng, fuel)
    if isinstance(t, Exists):
        return _eval_exists(env, subst_list(t, insts) if insts else t, fuel)
    raise EvalUnsupported(f"cannot evaluate proposition {type(t).__name__}")


def _eval_exists(env: GlobalEnv, t: Term, fuel: Fuel) -> bool:
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


class Counterexample(Record):
    __slots__ = _fields = ("statement", "instance", "detail")
    __hash__ = None

    def __init__(self, statement: Term, instance: Term, detail: str = "") -> None:
        self.statement = statement
        self.instance = instance
        self.detail = detail


def replace_tvars(t: Term, mapping: dict[str, Term]) -> Term:
    if not t._has & HAS_TVAR:
        return t  # no type variable: no closure for normal_form
    return normal_form(t, lambda s: mapping.get(s.name, s) if type(s) is TVar else s,
                       HAS_TVAR)


def collect_tvars(t: Term) -> list[str]:
    """Names of the TVars in t, in preorder of first occurrence. A subterm
    whose class mask has no HAS_TVAR is skipped whole, so a term without a
    TVar costs one test."""
    seen: list[str] = []
    stack = [t]
    while stack:
        s = stack.pop()
        if not s._has & HAS_TVAR:
            continue
        if type(s) is TVar:
            if s.name not in seen:
                seen.append(s.name)
        else:
            stack.extend([c for c, _ in reversed(children(s))])
    return seen


def _draw(env: GlobalEnv, tvs: list[str], doms: list[Term], size: int,
          rng: random.Random) -> tuple[dict[str, Term], tuple | None, tuple | None]:
    """One sample's draws from rng: a ground type for each type variable
    named in tvs, in that order, then an instance of each prenex binder
    domain in doms, outermost first, with the type variables and the
    instances drawn before it substituted. Returns the type-variable mapping,
    the instance terms and their values, both innermost first (the value
    environment of Var(0), Var(1), ...), or None for both when a domain is
    empty (the sample is vacuously true)."""
    mapping = {n: random_ground_type(env, rng) for n in tvs}
    insts: list[Term] = []
    values: list[Value] = []
    for dom in doms:
        if tvs:
            dom = replace_tvars(dom, mapping)
        if insts:
            dom = subst_list(dom, insts[::-1])
        if isinstance(dom, SortType):
            inst = random_ground_type(env, rng)
            value: Value = VType(inst)
        else:
            try:
                inst, value = _random_datum(env, dom, rng.randint(1, max(size, 1)), rng)
            except Uninhabited:
                return mapping, None, None
        insts.append(inst)
        values.append(value)
    return mapping, tuple(reversed(insts)), tuple(reversed(values))


# The draws of a sample that instantiates nothing.
_NO_DRAWS = ({}, (), ())


class _Replay:
    """The generator of one check, made only when something draws from it.
    A check whose first sample came from the draw memo (or drew nothing)
    has none yet; `generator()` then seeds one and replays that sample's
    draws, once, so that it is in the state the sample left it in. `rng`
    is the generator once it exists."""
    __slots__ = ("env", "tvs", "doms", "size", "seed", "rng")

    def __init__(self, env: GlobalEnv, tvs: list[str], doms: list[Term],
                 size: int, seed: int) -> None:
        self.env = env
        self.tvs = tvs
        self.doms = doms
        self.size = size
        self.seed = seed
        self.rng: random.Random | None = None

    def generator(self) -> random.Random:
        if self.rng is None:
            self.rng = random.Random(self.seed)
            _draw(self.env, self.tvs, self.doms, self.size, self.rng)
        return self.rng


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
    arguments that probe function values are charged.

    The first sample always starts from `random.Random(seed)`, so what it
    draws is fixed by its key in the draw memo (see the module docstring).
    A check whose key is there takes the first sample's instances from the
    memo, and one with no type variable and no prenex binder draws none;
    either evaluates that sample with no generator. The generator is made,
    by seeding it and replaying those draws, only when `_veq` probes two
    function values that differ or a second sample follows, so every draw,
    verdict, counterexample and fuel count is the one a fresh generator
    gives.

    Equal function values are equal without a probe (see _veq), so a
    definition's hypothesis `c = body` costs one evaluation of each side
    per sample and draws nothing. Because such a comparison consumes no
    random draws, the draws after it in the same call, and so the
    instances of later samples, differ from an oracle that probes it. A
    sample that instantiates nothing and draws nothing is the last one."""
    tvs = collect_tvars(statement)
    doms: list[Term] = []
    body = statement
    while isinstance(body, Pi) and not is_prop(body.domain):
        doms.append(body.domain)  # an implication's premise is handled by eval_prop
        body = body.codomain
    replay = _Replay(env, tvs, doms, size, seed)
    drawn = _NO_DRAWS
    for k in range(samples):
        if k:
            drawn = _draw(env, tvs, doms, size, replay.generator())
        elif tvs or doms:
            key = ("draws", seed, size, len(env.inductives), tuple(tvs), tuple(doms))
            drawn = env.memo.get(key)
            if drawn is None:
                replay.rng = random.Random(seed)
                drawn = env.memo[key] = _draw(env, tvs, doms, size, replay.rng)
        mapping, terms, values = drawn
        if terms is None:
            continue  # vacuously true: a domain is empty
        stmt = replace_tvars(body, mapping) if tvs else body
        if not _eval_prop(env, stmt, values, terms, replay, Fuel()):
            return Counterexample(statement, subst_list(stmt, terms) if terms else stmt)
        if not (tvs or doms) and replay.rng is None:
            return None  # nothing instantiated or drawn: every sample repeats this one
    return None
