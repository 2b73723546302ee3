"""The six context-extending transformations.

Each consumes a ProofState and returns new named hypotheses paired with
Justifications; none of them modifies existing hypotheses or the goal.
Justifications are recorded with each hypothesis but not yet replayed:
nothing checks them before a hypothesis enters the context.

A caller saturates the context by applying the transformations until a
round adds nothing, committing each hypothesis it keeps with
`ProofState.add`, which indexes it (do not append to `hypotheses`
directly). The ProofState remembers what the
saturating ones have done, so that the last round, which only confirms
the fixpoint, does lookups: `monomorphize` keeps each instantiation of a
polymorphic statement and `interp_alg_types` the axioms of each algebraic
instance. Both read the type instances from one running list that the
state extends as statements arrive, the goal at construction and each
hypothesis at `add`: each is walked once by `collect_type_instances`,
with one `seen` set shared by all of them, so each alpha class of closed
subterms is walked once per state and typechecked at most once.
"""

from __future__ import annotations

import itertools

from .conversion import Fuel, beta_reduce, typecheck, whnf
from .terms import (
    HAS_MATCH, And, App, Const, Ctor, Eq, Exists, Fix, FolbridgeError,
    GlobalEnv, Ind, IntT, LEAVES, Lam, Match, Not, Or, Pi,
    Record, SortProp, SortType, TVar, Term, Var,
    as_inductive_instance, children, ctor_arg_types,
    has_interior_type_binder, is_prop, lift, make_app, make_pis, normal_form,
    spine, strip_lams, strip_pis, subst_list, INTERPRETED_TYPES,
)
# Not called here; bench/tracer.py wraps the kernels at this module's
# bindings, so the names must resolve in it.
from .terms import alpha_eq, subst  # noqa: F401


class TransformError(FolbridgeError):
    pass


class UnknownConstant(TransformError):
    pass


class AlreadyPresent(TransformError):
    pass


class NotAnEquation(TransformError):
    pass


class NoFixpointFound(TransformError):
    pass


class NoMatchOnBoundVar(TransformError):
    pass


class NotAlgebraic(TransformError):
    pass


# ---------------------------------------------------------------------------
# Justifications and proof states
# ---------------------------------------------------------------------------

class Justification(Record):
    __slots__ = ()


class Given(Justification):
    """User-supplied hypothesis or lemma; taken on trust."""
    __slots__ = ()


class ByDefinition(Justification):
    __slots__ = _fields = ("const_name",)

    def __init__(self, const_name: str) -> None:
        self.const_name = const_name


class ByConversion(Justification):
    """Closes by `rewrite source; reflexivity`: plain convertibility after
    an optional oriented rewrite with the cited source hypothesis."""
    __slots__ = _fields = ("source",)

    def __init__(self, source: str | None = None) -> None:
        self.source = source


class ByCaseConversion(Justification):
    """Conversion after case-splitting the listed telescope binders
    (positions from the outside) to the given depth; the destruct-then-
    reflexivity pattern required by guarded fix unfolding."""
    __slots__ = _fields = ("source", "split_vars", "depth")

    def __init__(self, source: str | None, split_vars: tuple[int, ...], depth: int = 1) -> None:
        self.source = source
        self.split_vars = split_vars
        self.depth = depth


class ByInstantiation(Justification):
    __slots__ = _fields = ("source", "type_args")

    def __init__(self, source: str, type_args: tuple[Term, ...]) -> None:
        self.source = source
        self.type_args = type_args


class Injectivity(Record):
    __slots__ = _fields = ("ctor_index",)

    def __init__(self, ctor_index: int) -> None:
        self.ctor_index = ctor_index


class Disjointness(Record):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first: int, second: int) -> None:
        self.first = first
        self.second = second


class Exhaustiveness(Record):
    __slots__ = ()


class DatatypeAxiom(Justification):
    __slots__ = _fields = ("instance", "kind")

    def __init__(self, instance: Term, kind: Injectivity | Disjointness | Exhaustiveness) -> None:
        self.instance = instance
        self.kind = kind


class Hypothesis(Record):
    __slots__ = _fields = ("name", "statement", "justification")

    def __init__(self, name: str, statement: Term, justification: Justification) -> None:
        self.name = name
        self.statement = statement
        self.justification = justification


class ProofState(Record):
    """Named hypotheses plus goal; extended but never rewritten.

    A hypothesis enters the state only through `add`, which indexes it
    there, once: its name (the first hypothesis of each name is kept), its
    statement in the set of statements, which term equality
    (alpha-equivalence) makes an alpha index, and its type instances. The
    constructor copies the list it is given, walks the goal, then adds each
    hypothesis; do not append to `hypotheses` directly. The state also
    remembers the work of the saturating transformations, so that a round
    that only confirms that nothing is new does lookups and builds nothing:
    - the type instances of the goal and the hypotheses, in one running
      list, and every closed subterm walked to find them;
    - each instantiation of a polymorphic statement at a combination of
      type instances (`monomorphize`);
    - the datatype axioms of each instance (`interp_alg_types`).
    Instantiations are kept per statement and combination by identity, not
    by equality, because they carry the binder names of that exact
    statement and those instances into printed hypotheses; `hypotheses` and
    the list of instances hold each such statement and instance, so its id
    is not reused.

    Removing or replacing hypotheses, or changing `env` or `goal`, is not
    supported. The fields are `env`, `hypotheses` and `goal`; `==` and
    `repr` skip the indexes. A copied or unpickled state is rebuilt from
    its fields, as an environment is, since the instantiations' id keys
    would name other statements in the copy."""
    __slots__ = ("env", "hypotheses", "goal", "_by_name", "_statements",
                 "_seen", "_found", "_goal_instances", "_instantiations", "_axioms")
    _fields = ("env", "hypotheses", "goal")
    __hash__ = None

    def __init__(self, env: GlobalEnv, hypotheses: list[Hypothesis] | None = None,
                 goal: Term = None) -> None:
        self.env = env
        self.hypotheses: list[Hypothesis] = []
        self.goal = goal
        self._by_name: dict[str, Hypothesis] = {}
        self._statements: set[Term] = set()
        # The closed subterms walked so far, the type instances found in
        # them, and how many of those the goal gave.
        self._seen: set[Term] = set()
        self._found = [] if goal is None else collect_type_instances(env, goal, self._seen)
        self._goal_instances = len(self._found)
        # id(source statement) -> {ids of a combination of type instances:
        # the instantiated statement}, or None for a source with an
        # interior type binder.
        self._instantiations: dict[int, dict[tuple[int, ...], Term] | None] = {}
        # (instance, include_exhaustiveness) -> its axioms, as _instance_axioms gives them.
        self._axioms: dict[tuple[Term, bool], list[tuple[str, Term, DatatypeAxiom]]] = {}
        for h in hypotheses or ():
            self.add(h)

    def __reduce__(self) -> tuple:
        return ProofState, (self.env, self.hypotheses, self.goal)

    def add(self, hyp: Hypothesis) -> None:
        """Append hyp and index its name, its statement and its type
        instances."""
        self.hypotheses.append(hyp)
        self._by_name.setdefault(hyp.name, hyp)
        self._statements.add(hyp.statement)
        self._found += collect_type_instances(self.env, hyp.statement, self._seen)

    def find(self, name: str) -> Hypothesis:
        try:
            return self._by_name[name]
        except KeyError:
            raise TransformError(f"no hypothesis named {name!r}") from None

    def statements(self) -> set[Term]:
        """The set of all hypothesis statements; do not mutate."""
        return self._statements

    def has_alpha(self, statement: Term) -> bool:
        return statement in self._statements

    def fresh_name(self, base: str, taken: set[str] | None = None) -> str:
        """`base`, or the first of `base_2`, `base_3`, ... that names no
        hypothesis, no declaration and nothing in `taken`. The name returned
        is added to `taken`, so a transformation that returns several
        hypotheses passes one set to all its calls."""
        by_name, declared = self._by_name, self.env.names()
        name, i = base, 2
        while name in by_name or name in declared or (taken is not None and name in taken):
            name = f"{base}_{i}"
            i += 1
        if taken is not None:
            taken.add(name)
        return name

    def type_instances(self) -> list[Term]:
        """The type instances of the goal, then of each hypothesis in order,
        the first of each alpha class; the first `_goal_instances` are the
        goal's. Each statement was walked when it entered the state, the
        goal at construction and a hypothesis at `add`, all with the
        state's one `seen` set; a hypothesis appended to `hypotheses`
        directly is not indexed. Do not mutate."""
        return self._found

    def algebraic_instances(self) -> list[Term]:
        """The type instances headed by an inductive, minus the types the
        back-end interprets natively, in `type_instances` order."""
        return [t for t in self._found
                if type(head := spine(t)[0]) is Ind and head.inductive not in INTERPRETED_TYPES]


# ---------------------------------------------------------------------------
# Definitions (get_def)
# ---------------------------------------------------------------------------

def get_def(state: ProofState, const_name: str) -> Hypothesis:
    """Add the verbatim environment definition as a proven equation."""
    if const_name not in state.env.definitions:
        raise UnknownConstant(f"no definition for {const_name!r}")
    d = state.env.definitions[const_name]
    stmt = Eq(d.type, Const(const_name), d.body)
    if state.has_alpha(stmt):
        raise AlreadyPresent(f"{const_name} is already unfolded in the context")
    return Hypothesis(state.fresh_name(f"{const_name}_def"), stmt,
                      ByDefinition(const_name))


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------

def _base_name(hyp_name: str) -> str:
    for suffix in ("_def", "_eq", "_unfix"):
        if hyp_name.endswith(suffix):
            return hyp_name[: -len(suffix)]
    return hyp_name


def expand(state: ProofState, hyp_name: str) -> Hypothesis:
    """t = (fun xs => b)  ~>  forall xs, t xs = b: both sides are lifted
    once past the telescope of the equation's type, read through `whnf`
    so that an alias of an arrow type counts, and applied to its
    variables. Identity for equations at zero-arrow types."""
    h = state.find(hyp_name)
    if not isinstance(h.statement, Eq):
        raise NotAnEquation(f"{hyp_name} is not an equation")
    eq = h.statement
    binders: list[tuple[str, Term]] = []
    codomain, fuel = eq.at_type, Fuel()
    while type(ty := whnf(state.env, codomain, fuel)) is Pi:
        binders.append((ty.binder, ty.domain))
        codomain = ty.codomain
    stmt = eq
    if binders:
        n = len(binders)
        xs = [Var(n - 1 - j) for j in range(n)]
        stmt = beta_reduce(make_pis(binders, Eq(
            codomain, make_app(lift(eq.lhs, n), xs), make_app(lift(eq.rhs, n), xs))))
    return Hypothesis(state.fresh_name(f"{_base_name(hyp_name)}_eq"),
                      stmt, ByConversion(source=hyp_name))


# ---------------------------------------------------------------------------
# Elimination of fixpoints
# ---------------------------------------------------------------------------

def eliminate_fix(state: ProofState, hyp_name: str) -> Hypothesis:
    """Replace the anonymous fix with the constant it defines:
    forall xs, f xs = (fix F ys := b) zs  ~>  forall xs, f xs = b' with the
    recursive self-calls rewritten to f."""
    h = state.find(hyp_name)
    binders, body = strip_pis(h.statement)
    if not isinstance(body, Eq):
        raise NoFixpointFound(f"{hyp_name} is not a universally quantified equation")
    n = len(binders)
    rhead, rargs = spine(body.rhs)
    if not isinstance(rhead, Fix):
        raise NoFixpointFound(f"{hyp_name}: right-hand side is not a fix application")
    k = len(rargs)
    if rargs != [Var(k - 1 - i) for i in range(k)]:
        raise NoFixpointFound(f"{hyp_name}: fix is not applied to the bound variables")
    lhead, largs = spine(body.lhs)
    if not isinstance(lhead, Const):
        raise NoFixpointFound(f"{hyp_name}: left-hand side head is not a constant")
    if largs != [Var(n - 1 - i) for i in range(n)]:
        raise NoFixpointFound(f"{hyp_name}: constant is not applied to all bound variables")
    lam_binders, fix_inner = strip_lams(rhead.body)
    if len(lam_binders) != k:
        raise NoFixpointFound(f"{hyp_name}: fix binder list does not match its arguments")
    m = n - k
    if m < 0:
        raise NoFixpointFound(f"{hyp_name}: fix consumes more arguments than are bound")
    # Under the lam chain, Var(j < k) are the lam binders, which become the
    # trailing bound variables, and Var(k) is the self-reference, which
    # becomes the constant applied to the leading binders.
    new_rhs = subst_list(fix_inner, [Var(j) for j in range(k)]
                         + [make_app(lhead, [Var(n - 1 - j) for j in range(m)])])
    stmt = make_pis(binders, Eq(body.at_type, body.lhs, new_rhs))
    dec_position = m + rhead.decreasing
    return Hypothesis(state.fresh_name(f"{_base_name(hyp_name)}_unfix"),
                      stmt,
                      ByCaseConversion(source=hyp_name,
                                       split_vars=(dec_position,), depth=1))


# ---------------------------------------------------------------------------
# Elimination of pattern matching
# ---------------------------------------------------------------------------

def _match_candidates(body: Term, n: int) -> list[int]:
    """Telescope positions (outside-based) of bound variables that are
    scrutinees of a match in the body, found in one loop over (subterm,
    depth) pairs. A subterm in which no telescope variable occurs, or
    which holds no match, is skipped whole."""
    found: set[int] = set()
    stack = [(body, 0)]
    while stack:
        t, depth = stack.pop()
        if not t._free >> depth or not t._has & HAS_MATCH:
            continue
        if type(t) is Match and type(t.scrutinee) is Var:
            idx = t.scrutinee.index - depth
            if idx >= 0:
                found.add(n - 1 - idx)
        for child, extra in children(t):
            stack.append((child, depth + extra))
    return sorted(found)


def iota_reduce(env: GlobalEnv, t: Term) -> Term:
    """Select branches of matches whose scrutinee is constructor-headed;
    no delta or fix unfolding. A match with no branch for its constructor,
    or whose branch binds another number of arguments, stays stuck."""
    if not t._has & HAS_MATCH:
        return t  # no match: no closure for normal_form
    def head(s: Term) -> Term:
        while type(s) is Match:
            h, cargs = spine(s.scrutinee)
            if type(h) is not Ctor or h.ctor_index >= len(s.branches):
                break
            value_args = cargs[len(env.inductive(h.inductive).params):]
            br = s.branches[h.ctor_index]
            if len(value_args) != br.arity:
                break
            s = subst_list(br.body, value_args[::-1])
        return s
    return normal_form(t, head, HAS_MATCH)


def eliminate_pattern_matching(state: ProofState, hyp_name: str) -> list[Hypothesis]:
    """One statement per constructor: substitute the matched bound variable
    by each constructor applied to fresh binders, in the binders after it
    (a premise that mentions it included, as `destruct` does) and the
    body, and iota-reduce."""
    h = state.find(hyp_name)
    binders, body = strip_pis(h.statement)
    candidates = _match_candidates(body, len(binders))
    if not candidates:
        raise NoMatchOnBoundVar(f"{hyp_name} has no match on a bound variable")
    i = candidates[0]
    # binders[i]'s type is in the context of binders[:i]; `rest` is in that
    # of binders[:i + 1], with the matched variable as Var(0).
    inst = as_inductive_instance(whnf(state.env, binders[i][1], Fuel()))
    if inst is None:
        raise NotAlgebraic(f"{hyp_name}: matched variable is not of an algebraic type")
    ind_name, type_args = inst
    rest = make_pis(binders[i + 1:], body)
    out: list[Hypothesis] = []
    base = _base_name(hyp_name)
    apps = state.env.apps
    for k, cd in enumerate(state.env.inductive(ind_name).ctors):
        arg_tys = ctor_arg_types(state.env, ind_name, k, type_args)
        r = len(arg_tys)
        hint = cd.name[0] if cd.name else "a"
        ctor_binders = [(f"{hint}{j}" if r > 1 else hint, lift(at, j))
                        for j, at in enumerate(arg_tys)]
        ctor_app = make_app(Ctor(ind_name, k), [lift(a, r) for a in type_args]
                            + [Var(r - 1 - j) for j in range(r)], apps)
        # The statement is closed, so rest has no free variable past binders[:i].
        new_rest = subst_list(rest, [ctor_app] + [Var(r + j) for j in range(i)], apps)
        stmt = make_pis(binders[:i] + ctor_binders, iota_reduce(state.env, new_rest))
        out.append(Hypothesis(state.fresh_name(f"{base}_{cd.name}"),
                              stmt, ByConversion(source=hyp_name)))
    return out


# ---------------------------------------------------------------------------
# Monomorphization
# ---------------------------------------------------------------------------

def collect_type_instances(env: GlobalEnv, t: Term, seen: set[Term]) -> list[Term]:
    """Closed subterms of sort Type, nested instances included, in first
    occurrence order, except those in `seen` and below them.

    One preorder walk, with an explicit stack of terms, asks `typecheck` of
    every closed subterm but a sort, a Lam or Fix (whose type is a product),
    a proposition (`is_prop`), and the heads of a closed application that
    typechecks, which a loop walks pushing each argument: a head of sort
    Type would make that application ill-typed. Every closed subterm walked
    is added to `seen`, and one already there is skipped with everything
    below it: what it holds was found where its alpha-equal (`==`) copy was
    walked. So one `seen` shared by several statements gives each alpha
    class once; for one statement's instances, pass `set()`. An open
    subterm is no instance: the walk only passes through it."""
    out: list[Term] = []
    stack = [t]
    while stack:
        s = stack.pop()
        cls = type(s)
        if not s._free:
            if s in seen:
                continue
            seen.add(s)
            if not (cls in (SortType, SortProp, Lam, Fix) or is_prop(s)):
                try:
                    ty = typecheck(env, [], s)
                except FolbridgeError:
                    pass
                else:
                    if type(ty) is SortType:
                        out.append(s)
                    if cls is App:
                        while True:  # the head chain, untyped
                            stack.append(s.arg)
                            s = s.head
                            if s in seen:
                                break
                            seen.add(s)
                            if type(s) is not App:
                                stack += [c for c, _ in reversed(children(s))]
                                break
                        continue
        if cls is App:
            stack.append(s.arg)
            stack.append(s.head)
        elif cls is not Var and cls not in LEAVES:
            stack += [c for c, _ in reversed(children(s))]
    return out


def _leading_type_binders(stmt: Term) -> tuple[int, Term]:
    """How many type binders lead stmt, and what they bind."""
    k = 0
    while isinstance(stmt, Pi) and isinstance(stmt.domain, SortType):
        k += 1
        stmt = stmt.codomain
    return k, stmt


def type_slug(t: Term) -> str:
    """Readable tag for a ground type, used in generated hypothesis names."""
    if isinstance(t, IntT):
        return "Int"
    if isinstance(t, TVar):
        return t.name
    head, args = spine(t)
    if isinstance(head, Ind):
        return "_".join([head.inductive] + [type_slug(a) for a in args])
    if isinstance(t, Pi):
        return "arrow"
    return "ty"


def monomorphize(state: ProofState, from_context: bool = False) -> list[Hypothesis]:
    """Instantiate every prenex-polymorphic hypothesis at all ground type
    instances of the goal, or with `from_context` of the goal and the
    hypotheses (Cartesian product for multiple leading binders); instances
    already present are skipped. A lemma to instantiate enters the state
    as a hypothesis first, so every instance cites a source in the state.
    The state keeps each instantiation, so a repeated call substitutes
    nothing."""
    insts = state.type_instances()
    if not from_context:
        insts = insts[:state._goal_instances]
    if not insts:
        return []
    statements = state.statements()
    emitted: set[Term] = set()
    taken: set[str] = set()
    out: list[Hypothesis] = []
    for h in state.hypotheses:
        src_name, stmt = h.name, h.statement
        k, body = _leading_type_binders(stmt)
        if k == 0:
            continue
        memo = state._instantiations
        if id(stmt) not in memo:
            memo[id(stmt)] = None if has_interior_type_binder(stmt) else {}
        table = memo[id(stmt)]
        if table is None:
            continue
        for combo in itertools.product(insts, repeat=k):
            key = tuple(map(id, combo))
            inst_stmt = table.get(key)
            if inst_stmt is None:
                # The instances are closed: one substitution, innermost first.
                inst_stmt = table[key] = subst_list(body, combo[::-1], state.env.apps)
            if inst_stmt in statements or inst_stmt in emitted:
                continue
            emitted.add(inst_stmt)
            name = state.fresh_name(
                f"{src_name}_{'_'.join(type_slug(ty) for ty in combo)}", taken)
            out.append(Hypothesis(name, inst_stmt, ByInstantiation(src_name, combo)))
    return out


# ---------------------------------------------------------------------------
# Interpreting algebraic types
# ---------------------------------------------------------------------------

def _instance_axioms(env: GlobalEnv, inst: Term,
                     include_exhaustiveness: bool) -> list[tuple[str, Term, DatatypeAxiom]]:
    """The axioms of one closed algebraic instance as (base of the hypothesis
    name, statement, justification): injectivity of each constructor with
    arguments, disjointness of each pair, then, when asked, exhaustiveness.
    Every argument type is closed too, so none is shifted under a binder.

    injectivity:    forall (x1 y1 : A1) .. (xn yn : An),
                    C x1..xn = C y1..yn -> x1 = y1 /\\ .. /\\ xn = yn
    disjointness:   forall (x1 : A1)..(xn : An)(y1 : B1)..(yp : Bp),
                    C x1..xn <> C' y1..yp
    exhaustiveness: forall (x : I), (exists e1 .., x = C1 e1 ..) \\/ ..
                    \\/ (exists e1 .., x = Cm e1 ..)"""
    ind_name, targs = as_inductive_instance(inst)
    ctors = env.inductive(ind_name).ctors
    slug = type_slug(inst)
    heads = [make_app(Ctor(ind_name, k), targs, env.apps) for k in range(len(ctors))]
    arg_tys = [ctor_arg_types(env, ind_name, k, targs) for k in range(len(ctors))]
    out: list[tuple[str, Term, DatatypeAxiom]] = []
    for k, tys in enumerate(arg_tys):
        n = len(tys)
        if not n:
            continue  # Nullary constructors are trivially injective.
        binders = [b for j, at in enumerate(tys) for b in ((f"x{j + 1}", at), (f"y{j + 1}", at))]
        premise = Eq(inst, make_app(heads[k], [Var(2 * n - 1 - 2 * j) for j in range(n)]),
                     make_app(heads[k], [Var(2 * n - 2 - 2 * j) for j in range(n)]))
        # Under the premise's binder as well: x_j is Var(2n-2j), y_j Var(2n-1-2j).
        conj = Eq(tys[-1], Var(2), Var(1))
        for j in reversed(range(n - 1)):
            conj = And(Eq(tys[j], Var(2 * n - 2 * j), Var(2 * n - 1 - 2 * j)), conj)
        out.append((f"{slug}_{ctors[k].name}_inj", make_pis(binders, Pi("_", premise, conj)),
                    DatatypeAxiom(inst, Injectivity(k))))
    for a, b in itertools.combinations(range(len(ctors)), 2):
        n, p = len(arg_tys[a]), len(arg_tys[b])
        binders = ([(f"x{j + 1}", at) for j, at in enumerate(arg_tys[a])]
                   + [(f"y{j + 1}", bt) for j, bt in enumerate(arg_tys[b])])
        body = Not(Eq(inst, make_app(heads[a], [Var(n + p - 1 - j) for j in range(n)]),
                      make_app(heads[b], [Var(p - 1 - j) for j in range(p)])))
        out.append((f"{slug}_{ctors[a].name}_{ctors[b].name}_disj", make_pis(binders, body),
                    DatatypeAxiom(inst, Disjointness(a, b))))
    if include_exhaustiveness:
        disj = None
        for k in reversed(range(len(ctors))):
            r = len(arg_tys[k])
            body = Eq(inst, Var(r), make_app(heads[k], [Var(r - 1 - j) for j in range(r)]))
            for j in reversed(range(r)):
                body = Exists(f"e{j + 1}", arg_tys[k][j], body)
            disj = body if disj is None else Or(body, disj)
        out.append((f"{slug}_exhaust", Pi("x", inst, disj), DatatypeAxiom(inst, Exhaustiveness())))
    return out


def interp_alg_types(state: ProofState, include_exhaustiveness: bool = False) -> list[Hypothesis]:
    """Injectivity and disjointness axioms (and, behind the flag, the
    exhaustiveness disjunction) for every algebraic instance in the goal
    and context, excluding solver-interpreted types. The state keeps each
    instance's axioms, so a repeated call builds none."""
    statements = state.statements()
    emitted: set[Term] = set()
    taken: set[str] = set()
    out: list[Hypothesis] = []
    for inst in state.algebraic_instances():
        key = inst, include_exhaustiveness
        axioms = state._axioms.get(key)
        if axioms is None:
            axioms = state._axioms[key] = _instance_axioms(state.env, inst, include_exhaustiveness)
        for name, stmt, just in axioms:
            if stmt in statements or stmt in emitted:
                continue
            emitted.add(stmt)
            out.append(Hypothesis(state.fresh_name(name, taken), stmt, just))
    return out
