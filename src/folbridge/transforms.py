"""The six context-extending transformations.

Each consumes a ProofState and returns new named hypotheses paired with
Justifications; none of them modifies existing hypotheses or the goal.
Justifications are recorded with each hypothesis but not yet replayed:
nothing checks them before a hypothesis enters the context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .conversion import beta_reduce, typecheck
from .terms import (
    And, App, Const, Ctor, Eq, Exists, Fix, FolbridgeError,
    GlobalEnv, Ind, IntLit, IntT, Lam, Match, Not, Or, Pi, SortProp,
    SortType, TVar, Term, Var,
    as_inductive_instance, builtin_type, children, ctor_arg_types,
    has_interior_type_binder, lift, make_app, make_pis, map_subterms, rebind,
    spine, strip_lams, strip_pis, subst, subst_list, INTERPRETED_TYPES, PROP_HEADS,
)
# Not called here; bench/tracer.py wraps the kernels at this module's
# bindings, so the name must resolve in it.
from .terms import alpha_eq  # noqa: F401


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

@dataclass(frozen=True)
class Justification:
    pass


@dataclass(frozen=True)
class Given(Justification):
    """User-supplied hypothesis or lemma; taken on trust."""


@dataclass(frozen=True)
class ByDefinition(Justification):
    const_name: str


@dataclass(frozen=True)
class ByConversion(Justification):
    """Closes by `rewrite source; reflexivity`: plain convertibility after
    an optional oriented rewrite with the cited source hypothesis."""
    source: str | None = None


@dataclass(frozen=True)
class ByCaseConversion(Justification):
    """Conversion after case-splitting the listed telescope binders
    (positions from the outside) to the given depth; the destruct-then-
    reflexivity pattern required by guarded fix unfolding."""
    source: str | None
    split_vars: tuple[int, ...]
    depth: int = 1


@dataclass(frozen=True)
class ByInstantiation(Justification):
    source: str
    type_args: tuple[Term, ...]


@dataclass(frozen=True)
class Injectivity:
    ctor_index: int


@dataclass(frozen=True)
class Disjointness:
    first: int
    second: int


@dataclass(frozen=True)
class Exhaustiveness:
    pass


@dataclass(frozen=True)
class DatatypeAxiom(Justification):
    instance: Term
    kind: Injectivity | Disjointness | Exhaustiveness


@dataclass(frozen=True)
class Hypothesis:
    name: str
    statement: Term
    justification: Justification


def fresh_name(base: str, used: set[str]) -> str:
    """`base`, or the first of `base_2`, `base_3`, ... that is not in
    `used`; the name returned is added to `used`."""
    name, i = base, 2
    while name in used:
        name = f"{base}_{i}"
        i += 1
    used.add(name)
    return name


@dataclass
class ProofState:
    """Named hypotheses plus goal; extended but never rewritten.

    The state indexes its hypotheses: each name with its first hypothesis,
    and the set of their statements, which term equality (alpha-equivalence)
    makes an alpha index. It also remembers what it has decided about types:
    the type instances of every statement it was asked about, the algebraic
    instances of the goal and the hypotheses, and one is-a-type decision per
    candidate subterm up to alpha, which every `collect_type_instances` call
    it makes consults and extends. The instances of a statement are kept by
    identity, not by equality, because they carry the binder names of that
    exact statement into printed hypotheses. The index catches up lazily
    with `hypotheses`, so a list passed in prefilled or extended by a plain
    `append` is indexed too; removing or replacing hypotheses, or changing
    `env`, is not supported."""
    env: GlobalEnv
    hypotheses: list[Hypothesis] = field(default_factory=list)
    goal: Term = None
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _by_name: dict[str, Hypothesis] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)
    _statements: set[Term] = field(default_factory=set, init=False, repr=False,
                                   compare=False)
    # id(statement) -> (statement, its instances); holding the statement
    # keeps its id from being reused.
    _instances: dict[int, tuple[Term, tuple[Term, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _is_type: dict[Term, bool] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)
    # The algebraic instances found so far, the first of each alpha class in
    # occurrence order, and how many statements (the goal, then the
    # hypotheses in order) they were collected from.
    _algebraic: dict[Term, Term] = field(default_factory=dict, init=False, repr=False,
                                         compare=False)
    _algebraic_seen: int = field(default=0, init=False, repr=False, compare=False)

    def _sync(self) -> None:
        for h in self.hypotheses[self._indexed:]:
            self._by_name.setdefault(h.name, h)
            self._statements.add(h.statement)
        self._indexed = len(self.hypotheses)

    def find(self, name: str) -> Hypothesis:
        self._sync()
        try:
            return self._by_name[name]
        except KeyError:
            raise TransformError(f"no hypothesis named {name!r}") from None

    def statements(self) -> set[Term]:
        """The set of all hypothesis statements; do not mutate."""
        self._sync()
        return self._statements

    def used_names(self) -> set[str]:
        """A new set of the hypothesis and environment names."""
        self._sync()
        return self._by_name.keys() | self.env.names()

    def has_alpha(self, statement: Term) -> bool:
        return statement in self.statements()

    def fresh_name(self, base: str) -> str:
        return fresh_name(base, self.used_names())

    def type_instances(self, t: Term) -> tuple[Term, ...]:
        """`collect_type_instances(env, t)`, computed once per exact term:
        the instances keep the binder names of their occurrence in t."""
        hit = self._instances.get(id(t))
        if hit is None:
            hit = self._instances[id(t)] = (
                t, tuple(collect_type_instances(self.env, t, self._is_type)))
        return hit[1]

    def algebraic_instances(self) -> list[Term]:
        """Ground algebraic instances in goal and context, in first
        occurrence order, minus the types the back-end interprets natively."""
        statements = [self.goal] + [h.statement for h in self.hypotheses]
        for t in statements[self._algebraic_seen:]:
            for cand in self.type_instances(t):
                head, args = spine(cand)
                if not isinstance(head, Ind) or head.inductive in INTERPRETED_TYPES:
                    continue
                if len(args) != len(self.env.inductive(head.inductive).params):
                    continue
                self._algebraic.setdefault(cand, cand)
        self._algebraic_seen = len(statements)
        return list(self._algebraic.values())

    def add(self, hyp: Hypothesis) -> None:
        self.hypotheses.append(hyp)


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
# Expansion (arrow_split / gen_eq / expand)
# ---------------------------------------------------------------------------

def arrow_split(ty: Term) -> tuple[list[Term], Term]:
    """Pi chain to ([A0..An], B); each piece keeps the de Bruijn references
    into the previous binders."""
    binders, codomain = strip_pis(ty)
    return [d for _, d in binders], codomain


def gen_eq(domains: list[Term], codomain: Term, t: Term, u: Term,
           names: list[str] | None = None) -> Term:
    """forall x0..xn, t x0..xn = u x0..xn; t and u are lifted at every
    recursive step, the domain/codomain pieces already live in the
    extended contexts."""
    if not domains:
        return Eq(codomain, t, u)
    name = names[0] if names else "x"
    rest_names = names[1:] if names else None
    inner = gen_eq(domains[1:], codomain,
                   App(lift(t, 1), Var(0)), App(lift(u, 1), Var(0)),
                   rest_names)
    return Pi(name, domains[0], inner)


def _base_name(hyp_name: str) -> str:
    for suffix in ("_def", "_eq", "_unfix"):
        if hyp_name.endswith(suffix):
            return hyp_name[: -len(suffix)]
    return hyp_name


def expand(state: ProofState, hyp_name: str) -> Hypothesis:
    """t = (fun xs => b)  ~>  forall xs, t xs = b. Identity for
    equations at zero-arrow types."""
    h = state.find(hyp_name)
    if not isinstance(h.statement, Eq):
        raise NotAnEquation(f"{hyp_name} is not an equation")
    eq = h.statement
    binders, codomain = strip_pis(eq.at_type)
    if not binders:
        return Hypothesis(state.fresh_name(f"{_base_name(hyp_name)}_eq"),
                          eq, ByConversion(source=hyp_name))
    stmt = gen_eq([d for _, d in binders], codomain, eq.lhs, eq.rhs,
                  names=[n for n, _ in binders])
    stmt = beta_reduce(stmt)
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
    # Replace the self-reference (index k under the lam chain) by the
    # constant applied to the leading binders, then substitute the lam
    # binders by the trailing bound variables.
    repl = make_app(lhead, [Var(n - 1 - j) for j in range(m)])
    body2 = subst(fix_inner, k, repl)
    new_rhs = subst_list(body2, [Var(j) for j in range(k)])
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
    scrutinees of a match in the body. One loop over (subterm, depth)
    pairs, as in terms.well_scoped."""
    found: set[int] = set()
    stack = [(body, 0)]
    while stack:
        t, depth = stack.pop()
        if type(t) is Match and type(t.scrutinee) is Var:
            idx = t.scrutinee.index - depth
            if idx >= 0:
                found.add(n - 1 - idx)
        for child, extra in children(t):
            stack.append((child, depth + extra))
    return sorted(found)


def _shift_above(t: Term, at: int, by: int) -> Term:
    """Lift indices strictly greater than `at` by `by`; index == at must
    not occur."""
    def on_free(k: int, d: int) -> Term:
        if k == 0:
            raise TransformError("dependency on the substituted binder")
        return Var(k + d + by)
    return rebind(t, on_free, at)


def iota_reduce(env: GlobalEnv, t: Term, rounds: int = 64) -> Term:
    """Select branches of matches whose scrutinee is constructor-headed;
    no delta or fix unfolding."""
    for _ in range(rounds):
        t2 = _iota_once(env, t)
        if t2 is t:
            return t
        t = t2
    raise TransformError("iota reduction did not converge")


def _iota_once(env: GlobalEnv, t: Term) -> Term:
    t = map_subterms(t, lambda s, _e: _iota_once(env, s))
    if isinstance(t, Match):
        head, cargs = spine(t.scrutinee)
        if isinstance(head, Ctor):
            decl = env.inductive(head.inductive)
            value_args = cargs[len(decl.params):]
            br = t.branches[head.ctor_index]
            if len(value_args) == br.arity:
                return subst_list(br.body, list(reversed(value_args)))
    return t


def eliminate_pattern_matching(state: ProofState, hyp_name: str) -> list[Hypothesis]:
    """One statement per constructor: substitute the matched bound variable
    by each constructor applied to fresh binders and iota-reduce."""
    h = state.find(hyp_name)
    binders, body = strip_pis(h.statement)
    n = len(binders)
    candidates = _match_candidates(body, n)
    if not candidates:
        raise NoMatchOnBoundVar(f"{hyp_name} has no match on a bound variable")
    i = candidates[0]
    sty = binders[i][1]  # in the context of binders[:i]
    inst = as_inductive_instance(sty)
    if inst is None:
        raise NotAlgebraic(f"{hyp_name}: matched variable is not of an algebraic type")
    ind_name, type_args = inst
    decl = state.env.inductive(ind_name)
    out: list[Hypothesis] = []
    base = _base_name(hyp_name)
    for k, cd in enumerate(decl.ctors):
        arg_tys = ctor_arg_types(state.env, ind_name, k, type_args)
        r = len(arg_tys)
        new_binders = list(binders[:i])
        for j, at in enumerate(arg_tys):
            hint = cd.name[0] if cd.name else "a"
            new_binders.append((f"{hint}{j}" if r > 1 else hint, lift(at, j)))
        for j, (bn, bd) in enumerate(binders[i + 1:]):
            # bd lives under binders[:i+1+j]; the slot of binder i becomes
            # r slots, so references past it move up by r-1.
            new_binders.append((bn, _shift_above(bd, j, r - 1)))
        trailing = n - 1 - i
        ctor_app = make_app(
            Ctor(ind_name, k),
            [lift(a, r + trailing) for a in type_args]
            + [Var(trailing + (r - 1 - j)) for j in range(r)])
        new_body = _replace_binder(body, n - 1 - i, r - 1, ctor_app)
        new_body = iota_reduce(state.env, new_body)
        stmt = make_pis(new_binders, new_body)
        out.append(Hypothesis(state.fresh_name(f"{base}_{cd.name}"),
                              stmt, ByConversion(source=hyp_name)))
    return out


def _replace_binder(t: Term, at: int, widen: int, replacement: Term) -> Term:
    """Replace Var(at) by `replacement` (expressed at the root of t's new
    context) and shift references above `at` by `widen`."""
    return rebind(t, lambda k, d: lift(replacement, d - at) if k == 0 else Var(k + d + widen),
                  at)


# ---------------------------------------------------------------------------
# Monomorphization
# ---------------------------------------------------------------------------

# Spine heads of subterms that are never type instances. `_infer` types
# none of the others as SortType: a constructor's type is `I params` or a
# product, and an application of any of them is ill-typed. The sorts do have
# sort Type, but are not instances.
_NEVER_TYPE_HEADS = frozenset({Ctor, IntLit, SortType, SortProp}) | PROP_HEADS


def _never_a_type(env: GlobalEnv, name: str, nargs: int) -> bool:
    """True when the constant `name` applied to `nargs` arguments cannot
    have sort Type: its declared type has at least `nargs` leading Pis and
    what remains is a Pi, or is headed by an Ind or Int. Substituting the
    arguments keeps that head, so `typecheck` can only return a type that
    is not a sort, or raise."""
    ty = builtin_type(name)
    if ty is None:
        d = env.definitions.get(name)
        if d is None:
            return False
        ty = d.type
    for _ in range(nargs):
        if not isinstance(ty, Pi):
            return False
        ty = ty.codomain
    return isinstance(ty, Pi) or isinstance(spine(ty)[0], (Ind, IntT))


def collect_type_instances(env: GlobalEnv, t: Term,
                           decided: dict[Term, bool] | None = None) -> list[Term]:
    """Closed subterms of sort Type, nested instances included, in first
    occurrence order.

    One post-order walk finds the candidates: closed subterms whose spine
    head can have sort Type, other than an unapplied Lam or Fix (whose type
    is a product), a product whose final codomain is a proposition, an
    inductive applied to other than its parameter count, and a constant
    application that `_never_a_type` rules out. That filter is only a
    necessary condition. The candidates are taken in preorder; one
    alpha-equal (`==`) to a candidate already taken is skipped, and
    `typecheck` makes the final decision on the rest. `decided` maps
    candidates, up to alpha, to those decisions; it is consulted and
    extended, so callers that share it typecheck each candidate once."""
    candidates: list[tuple[int, Term]] = []
    position = itertools.count()

    def walk(s: Term) -> tuple[Term, int]:
        """Return the head of s's spine (of its final codomain's, for a
        product) and the number of arguments applied to that head."""
        pos = next(position)
        head, nargs = s, 0
        cls = type(s)
        for c, _extra in children(s):
            c_head, c_nargs = walk(c)
            if (cls is App and c is s.head) or (cls is Pi and c is s.codomain):
                head, nargs = c_head, c_nargs + (cls is App)
        if s._reach == 0 and cls is not Lam and cls is not Fix and _maybe_a_type(env, s, head, nargs):
            candidates.append((pos, s))
        return head, nargs

    try:
        walk(t)
    finally:
        del walk  # empties walk's own closure cell: no reference cycle holds env
    candidates.sort(key=lambda c: c[0])
    if decided is None:
        decided = {}
    out: list[Term] = []
    taken: set[Term] = set()
    for _pos, s in candidates:
        if s in taken:
            continue
        taken.add(s)
        is_type = decided.get(s)
        if is_type is None:
            try:
                is_type = isinstance(typecheck(env, [], s), SortType)
            except FolbridgeError:
                is_type = False
            decided[s] = is_type
        if is_type:
            out.append(s)
    return out


def _maybe_a_type(env: GlobalEnv, s: Term, head: Term, nargs: int) -> bool:
    """False when the closed term s, whose (final codomain's) spine head is
    `head` with `nargs` arguments, cannot have sort Type."""
    cls = type(head)
    if type(s) is Pi:
        return cls not in PROP_HEADS
    if cls in _NEVER_TYPE_HEADS:
        return False
    if cls is Const:
        return not _never_a_type(env, head.name, nargs)
    if cls is Ind and head.inductive in env.inductives:
        return nargs == len(env.inductives[head.inductive].params)
    return True


def _leading_type_binders(stmt: Term) -> int:
    k = 0
    while isinstance(stmt, Pi) and isinstance(stmt.domain, SortType):
        k += 1
        stmt = stmt.codomain
    return k


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


def monomorphize(state: ProofState, extra_lemmas: list[tuple[str, Term]] | None = None,
                 from_context: bool = False) -> list[Hypothesis]:
    """Instantiate every prenex-polymorphic hypothesis (and extra lemma) at
    all ground type instances of the goal (Cartesian product for multiple
    leading binders); instances already present are skipped."""
    insts = list(state.type_instances(state.goal))
    if from_context:
        first = {s: s for s in insts}
        for h in state.hypotheses:
            for cand in state.type_instances(h.statement):
                first.setdefault(cand, cand)
        insts = list(first.values())
    if not insts:
        return []
    sources = [(h.name, h.statement) for h in state.hypotheses]
    for name, stmt in (extra_lemmas or []):
        if not any(n == name for n, _ in sources):
            sources.append((name, stmt))
    existing = set(state.statements())
    used_names = state.used_names()
    out: list[Hypothesis] = []
    for src_name, stmt in sources:
        k = _leading_type_binders(stmt)
        if k == 0 or has_interior_type_binder(stmt):
            continue
        for combo in itertools.product(insts, repeat=k):
            inst_stmt = stmt
            for ty in combo:
                assert isinstance(inst_stmt, Pi)
                inst_stmt = subst(inst_stmt.codomain, 0, ty)
            if inst_stmt in existing:
                continue
            existing.add(inst_stmt)
            name = fresh_name(
                f"{src_name}_{'_'.join(type_slug(ty) for ty in combo)}", used_names)
            out.append(Hypothesis(name, inst_stmt,
                                  ByInstantiation(src_name, tuple(combo))))
    return out


# ---------------------------------------------------------------------------
# Interpreting algebraic types
# ---------------------------------------------------------------------------

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


def interp_alg_types(state: ProofState, include_exhaustiveness: bool = False) -> list[Hypothesis]:
    """Injectivity and disjointness axioms (and, behind the flag, the
    exhaustiveness disjunction) for every algebraic instance in the goal
    and context, excluding solver-interpreted types."""
    out: list[Hypothesis] = []
    existing = set(state.statements())
    used = state.used_names()

    def emit(name: str, stmt: Term, just: Justification) -> None:
        if stmt in existing:
            return
        existing.add(stmt)
        out.append(Hypothesis(fresh_name(name, used), stmt, just))

    for inst in state.algebraic_instances():
        ind_name, _targs = as_inductive_instance(inst)
        decl = state.env.inductive(ind_name)
        slug = type_slug(inst)
        for k, cd in enumerate(decl.ctors):
            if not cd.arg_types:
                continue  # nullary constructors are trivially injective
            stmt = injectivity_statement(state.env, inst, k)
            emit(f"{slug}_{cd.name}_inj", stmt, DatatypeAxiom(inst, Injectivity(k)))
        for a in range(len(decl.ctors)):
            for b in range(a + 1, len(decl.ctors)):
                stmt = disjointness_statement(state.env, inst, a, b)
                emit(f"{slug}_{decl.ctors[a].name}_{decl.ctors[b].name}_disj",
                     stmt, DatatypeAxiom(inst, Disjointness(a, b)))
        if include_exhaustiveness:
            stmt = exhaustiveness_statement(state.env, inst)
            emit(f"{slug}_exhaust", stmt, DatatypeAxiom(inst, Exhaustiveness()))
    return out
