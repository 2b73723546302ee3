"""The one-pass `collect_type_instances` against the reference version,
alone, over several statements with one shared `seen` set, and through a
`ProofState`'s running list of instances, and its cost as the list literal
or the nesting of constant applications in a goal grows;
`ProofState.algebraic_instances`, which filters that list, against the
reference; `terms.is_prop`, which reads propositions off their shape,
against `typecheck`. Instances are compared by `repr`, so that their binder
names must agree too: term equality ignores them."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PRELUDE
from folbridge import conversion, transforms
from folbridge.parser import parse_problem, parse_term
from folbridge.terms import (
    INT, TYPE, And, App, Eq, Exists, Fix, FolbridgeError, Ind, IntT, Lam, Not,
    Or, Pi, SortProp, SortType, TVar, Var, children, is_prop, map_subterms, subterms,
)
from folbridge.transforms import Given, Hypothesis, ProofState, collect_type_instances

import debruijn_reference
import instances_reference

# Type-level definitions: with a flat universe, constants and redexes can
# have sort Type too. G's type is a product only after unfolding Arrow.
FLAT = """\
def T : Type = list Int.
def id : forall (A : Type), A -> A = fun (A : Type) (x : A) => x.
def F : Type -> Type = fun (A : Type) => list A.
def Arrow : Type = Type -> Type.
def G : Arrow = fun (A : Type) => list A.
"""

# Each denotes list Int.
FLAT_TYPES = ("T", "id Type (list Int)", "F Int", "G Int",
              "(fun (A : Type) => list A) Int")


@pytest.fixture(scope="module")
def flat_env():
    return parse_problem(
        PRELUDE.replace("goal true = true.", FLAT + "goal true = true.")).env


def nat(v: int) -> str:
    out = "O"
    for _ in range(v):
        out = f"S ({out})"
    return out


def list_literal(ty: str, values: list[str]) -> str:
    out = f"nil ({ty})"
    for v in reversed(values):
        out = f"cons ({ty}) ({v}) ({out})"
    return out


@st.composite
def ground_value(draw, ty: str) -> str:
    if ty == "Int":
        return str(draw(st.integers(0, 99)))
    if ty == "nat":
        return nat(draw(st.integers(0, 3)))
    if ty == "Bool":
        return draw(st.sampled_from(("true", "false")))
    if ty == "list Int":
        return list_literal("Int", draw(st.lists(ground_value("Int"), max_size=3)))
    if draw(st.booleans()):
        return "none nat"
    return f"some nat ({draw(ground_value('nat'))})"


def atoms(ty: str, lit: str, x: str) -> st.SearchStrategy[str]:
    """Propositions over a list `lit` of elements of type `ty`, and `x : ty`."""
    return st.sampled_from((
        f"length ({ty}) ({lit}) = 3",
        f"({lit}) = ({lit})",
        f"search ({ty}) ({x}) ({lit}) = true",
        f"hd_error ({ty}) ({lit}) = hd_error ({ty}) ({lit})",
        f"nlength ({ty}) (app ({ty}) ({lit}) ({lit})) = nlength ({ty}) ({lit})",
    ))


@st.composite
def ground_atom(draw) -> str:
    ty = draw(st.sampled_from(("Int", "nat", "Bool", "list Int", "option nat")))
    lit = list_literal(ty, draw(st.lists(ground_value(ty), max_size=12)))
    return draw(atoms(ty, lit, draw(ground_value(ty))))


@st.composite
def polymorphic_atom(draw) -> str:
    ty = draw(st.sampled_from(("A", "list A", "option A")))
    lit = draw(st.sampled_from(("l", f"cons ({ty}) x l", f"app ({ty}) l (nil ({ty}))")))
    body = draw(atoms(ty, lit, "x"))
    return f"forall (A : Type) (x : {ty}) (l : list ({ty})), {body}"


@st.composite
def flat_atom(draw) -> str:
    ty = draw(st.sampled_from(FLAT_TYPES))
    body = draw(st.sampled_from((
        "length Int l = length Int l",
        "l = l",
        "app Int l (nil Int) = l",
    )))
    return f"forall (l : {ty}), {body}"


# Constant-headed applications, fully and partially applied: builtins,
# definitions whose type is a product, a type (F, G) or a variable (id).
CONST_APPS = (
    "add 1 2", "add 1", "add", "eqb Int 1 2", "eqb Int", "eqb (list Int)",
    "negb true", "two", "length Int", "length Int (nil Int)",
    "search Int 7", "hd_error nat (nil nat)", "id Int 3", "id Type",
    "id Type (list Int)", "id (Type -> Type) F", "id Arrow G Int",
    "F", "F Int", "G", "G nat", "add (add 1 2) (length Int (nil Int))",
)


@st.composite
def const_atom(draw) -> str:
    app = draw(st.sampled_from(CONST_APPS))
    return f"({app}) = ({app})"


@st.composite
def goals(draw) -> tuple[str, bool]:
    """A statement text and whether to make Int a rigid type symbol."""
    parts = draw(st.lists(
        st.one_of(ground_atom(), flat_atom(), const_atom()),
        min_size=1, max_size=3))
    text = " /\\ ".join(f"({p})" for p in parts)
    if draw(st.booleans()):
        # Type binders must form a leading prefix.
        text = draw(polymorphic_atom()) + f" /\\ ({text})"
    return text, draw(st.booleans())


def rigid_int(t):
    """Replace Int by the rigid type symbol A everywhere, literals' types
    included, so some subterms no longer typecheck."""
    if isinstance(t, IntT):
        return TVar("A")
    return map_subterms(t, lambda s, _e: rigid_int(s))


@settings(deadline=None, max_examples=80)
@given(goals())
def test_matches_reference(flat_env, goal):
    text, rigid = goal
    t = parse_term(text, flat_env)
    if rigid:
        t = rigid_int(t)
    expected = instances_reference.collect_type_instances(flat_env, t)
    assert repr(collect_type_instances(flat_env, t, set())) == repr(expected)


# Statements with closed products over a proposition, which are not
# typechecked, an inductive applied to too few arguments, and ones whose
# typecheck raises (an unknown inductive, an over-applied one, whose head
# is then typechecked).
SKIPPED_TEXTS = (
    "(forall (n : nat), n = n) /\\ (forall (l : list Int), l = l -> true_p)",
    "list = list",
    "id (Type -> Type) list Int = list Int",
    "(forall (x : option nat), ~ (x = x)) -> (exists (b : Bool), b = b \\/ false_p)",
)
# Statements that share a candidate which is not a type (id Int 3).
SHARED_TEXTS = ("id Int 3 = 3", "add (id Int 3) 1 = 4", "id (list Int) (nil Int) = nil Int")
BUILT = (
    Eq(TYPE, App(App(Ind("list"), INT), INT), INT),
    Eq(TYPE, Ind("nosuch"), App(Ind("nosuch"), INT)),
    Eq(TYPE, App(Ind("option"), App(Ind("list"), INT)), App(Ind("list"), INT)),
)


@st.composite
def statements(draw, env):
    kind = draw(st.sampled_from(("goal", "skipped", "built")))
    if kind == "built":
        return draw(st.sampled_from(BUILT))
    if kind == "skipped":
        t = parse_term(draw(st.sampled_from(SKIPPED_TEXTS + SHARED_TEXTS)), env)
        rigid = draw(st.booleans())
    else:
        text, rigid = draw(goals())
        t = parse_term(text, env)
    return rigid_int(t) if rigid else t


def statement_lists(env):
    """Statements, ill-typed ones included, with repeats."""
    return st.lists(statements(env), min_size=1, max_size=6).flatmap(
        lambda stmts: st.lists(st.sampled_from(stmts), min_size=len(stmts),
                               max_size=2 * len(stmts) + 2))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_shared_seen_matches_reference(flat_env, data):
    """Statements walked in turn with one `seen` set give each alpha class
    once: the first-of-class union of the reference's instances."""
    stmts = data.draw(statement_lists(flat_env))
    seen = set()
    got = [s for t in stmts for s in collect_type_instances(flat_env, t, seen)]
    assert repr(got) == repr(instances_reference.type_instances(flat_env, stmts))


def recorded_typecheck(monkeypatch) -> list:
    """The terms the instance walk asks `typecheck` of, from now on."""
    checked = []
    typecheck = transforms.typecheck

    def recording_typecheck(env, ctx, t, *rest):
        checked.append(t)
        return typecheck(env, ctx, t, *rest)

    monkeypatch.setattr(transforms, "typecheck", recording_typecheck)
    return checked


def test_open_subterms_are_only_passed_through(flat_env, monkeypatch):
    """An open subterm is no instance: `typecheck` sees closed subterms
    only."""
    checked = recorded_typecheck(monkeypatch)
    texts = SKIPPED_TEXTS + SHARED_TEXTS + (
        "forall (A : Type) (l : list A), length A l = length A (app A l (nil A))",
        "forall (f : nat -> list (option Int)), f O = f (S O)")
    # An open application whose closed head is an instance.
    over_applied = Pi("x", INT, Eq(TYPE, App(App(Ind("list"), INT), Var(0)), INT))
    for t in [parse_term(text, flat_env) for text in texts] + [*BUILT, over_applied]:
        got = collect_type_instances(flat_env, t, set())
        assert repr(got) == repr(instances_reference.collect_type_instances(flat_env, t))
    assert checked
    for t in checked:
        assert debruijn_reference.well_scoped(t, 0), t


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_state_matches_reference(flat_env, data):
    """A state's running list, read before and after more hypotheses
    arrive, is the reference's first-of-class union over the goal and the
    hypotheses in order, and starts with the goal's own instances."""
    goal, *hyps = data.draw(statement_lists(flat_env))
    cut = data.draw(st.integers(0, len(hyps)))
    state = ProofState(flat_env, [Hypothesis(f"h{i}", t, Given())
                                  for i, t in enumerate(hyps[:cut])], goal)

    def check():
        stmts = [goal] + [h.statement for h in state.hypotheses]
        insts = state.type_instances()
        assert repr(insts) == repr(instances_reference.type_instances(flat_env, stmts))
        assert repr(insts[:state._goal_instances]) == repr(
            instances_reference.collect_type_instances(flat_env, goal))

    check()
    for i, t in enumerate(hyps[cut:], cut):
        state.add(Hypothesis(f"h{i}", t, Given()))
        check()


@pytest.mark.parametrize("ty", FLAT_TYPES)
def test_flat_universe_instances(flat_env, ty):
    t = parse_term(f"forall (l : {ty}), l = l", flat_env)
    insts = collect_type_instances(flat_env, t, set())
    assert repr(insts) == repr(instances_reference.collect_type_instances(flat_env, t))
    assert insts[0] == parse_term(ty, flat_env)


def ground_goal(env, n: int):
    values = [str(v % 100) for v in range(n)]
    return parse_term(
        f"length Int (app Int ({list_literal('Int', values)}) (cons Int 7 (nil Int)))"
        f" = {n + 1} /\\ search Int 7 (cons Int 8 (nil Int)) = false", env)


def add_chain_goal(env, n: int):
    """add 0 (add 1 (... (add (n-1) 0))) = 5"""
    chain = "0"
    for v in reversed(range(n)):
        chain = f"add {v} ({chain})"
    return parse_term(f"{chain} = 5", env)


def typed_heads_only(env, t) -> set:
    """The subterms of t that occur only as the head of a closed
    application that typechecks."""
    heads, others = set(), {t}
    for s in subterms(t):
        typed_app = (isinstance(s, App) and debruijn_reference.well_scoped(s, 0)
                     and well_typed(env, s))
        for c, _ in children(s):
            (heads if typed_app and c is s.head else others).add(c)
    return heads - others


def test_infer_visits_grow_linearly(env, monkeypatch):
    """Each element of a list literal or link of an add chain costs a
    bounded number of `_infer` visits, and no head of a closed application
    that typechecks is typechecked."""
    visits = 0
    infer = conversion._infer

    def counting_infer(*args):
        nonlocal visits
        visits += 1
        return infer(*args)

    checked = recorded_typecheck(monkeypatch)
    monkeypatch.setattr(conversion, "_infer", counting_infer)
    for make_goal in (ground_goal, add_chain_goal):
        counts = {}
        for n in (40, 80):
            goal = make_goal(env, n)
            visits = 0
            checked.clear()
            collect_type_instances(env, goal, set())
            counts[n] = visits
            heads = typed_heads_only(env, goal)
            assert heads
            assert not [t for t in checked if t in heads], make_goal.__name__
        assert counts[80] <= 2.2 * counts[40], (make_goal.__name__, counts)


def test_ruled_out_shapes_are_not_typechecked(flat_env, monkeypatch):
    """`typecheck` is asked of no sort, Lam, Fix or proposition, and of no
    head of a closed application that typechecks; the head of one that
    does not typecheck is asked."""
    checked = recorded_typecheck(monkeypatch)
    asked = []
    for t in [parse_term(text, flat_env) for text in SKIPPED_TEXTS] + list(BUILT):
        checked.clear()
        collect_type_instances(flat_env, t, set())
        heads = typed_heads_only(flat_env, t)
        for s in checked:
            assert not isinstance(s, (SortType, SortProp, Lam, Fix)), s
            assert not is_prop(s), s
            assert s not in heads, s
        asked += checked
    assert any(isinstance(t, Pi) for t in asked)  # Type -> Type is typechecked
    checked.clear()
    collect_type_instances(flat_env, BUILT[0], set())
    assert App(Ind("list"), INT) in checked  # the head of list Int Int


def well_typed(env, t) -> bool:
    try:
        conversion.typecheck(env, [], t)
    except FolbridgeError:
        return False
    return True


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_algebraic_instances_match_reference(flat_env, data):
    """A goal and well-typed hypotheses, some added after a first call."""
    stmts = [t for t in data.draw(st.lists(statements(flat_env), min_size=2, max_size=6))
             if well_typed(flat_env, t)]
    assume(stmts)
    goal, hyps = stmts[0], stmts[1:]
    cut = data.draw(st.integers(0, len(hyps)))
    state = ProofState(flat_env, [Hypothesis(f"h{i}", t, Given())
                                  for i, t in enumerate(hyps[:cut])], goal)
    state.algebraic_instances()
    for i, t in enumerate(hyps[cut:], cut):
        state.add(Hypothesis(f"h{i}", t, Given()))
    expected = instances_reference.algebraic_instances(flat_env, stmts)
    assert repr(state.algebraic_instances()) == repr(expected)


def test_algebraic_instances_in_preorder(env):
    """A redex's head is walked before its arguments."""
    stmt = parse_term("(fun (o : option Bool) (l : list nat) => 1) (none Bool) (nil nat) = 1", env)
    state = ProofState(env, [Hypothesis("h", stmt, Given())], parse_term("true = true", env))
    expected = instances_reference.algebraic_instances(env, [state.goal, stmt])
    assert [repr(t) for t in expected] == [
        repr(parse_term(ty, env)) for ty in ("option Bool", "list nat", "nat")]
    assert repr(state.algebraic_instances()) == repr(expected)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", ["ground_data", "poly_lemmas", "unfold_defs"])
def test_type_instances_on_benchmark_problems(bench_driver, workload, seed):
    """One problem per size, saturated as the benchmark does: the state's
    running list is the reference's, over the goal and every hypothesis."""
    driver, workloads = bench_driver
    for index in range(3):
        state = driver.preprocess(workloads.problem(workload, seed, index)[1]).state
        stmts = [state.goal] + [h.statement for h in state.hypotheses]
        assert repr(state.type_instances()) == repr(
            instances_reference.type_instances(state.env, stmts))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", ["ground_data", "poly_lemmas", "unfold_defs"])
def test_algebraic_instances_on_benchmark_problems(bench_driver, workload, seed):
    """One problem per size, saturated round by round as the benchmark
    does, and a fresh state over the same statements."""
    driver, workloads = bench_driver
    for index in range(3):
        state = driver.preprocess(workloads.problem(workload, seed, index)[1]).state
        stmts = [state.goal] + [h.statement for h in state.hypotheses]
        expected = repr(instances_reference.algebraic_instances(state.env, stmts))
        assert repr(state.algebraic_instances()) == expected
        fresh = ProofState(state.env, list(state.hypotheses), state.goal)
        assert repr(fresh.algebraic_instances()) == expected


def premises_agree_with_typecheck(env, stmt) -> list[bool]:
    """Assert that `is_prop` and `typecheck` agree on every binder domain
    of the proposition structure of stmt (prenex domains, implication
    premises, and the domains under connectives and exists), each in its
    own context; return the `is_prop` verdicts."""
    verdicts = []
    stack = [(stmt, [])]
    while stack:
        t, ctx = stack.pop()
        if isinstance(t, (Pi, Exists)):
            sort = conversion.typecheck(env, ctx, t.domain)
            verdicts.append(is_prop(t.domain))
            assert verdicts[-1] == isinstance(sort, SortProp), t.domain
            stack.append((t.codomain if isinstance(t, Pi) else t.body, [t.domain] + ctx))
        elif isinstance(t, (And, Or)):
            stack += [(t.lhs, ctx), (t.rhs, ctx)]
        elif isinstance(t, Not):
            stack.append((t.body, ctx))
    return verdicts


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_is_prop_agrees_with_typecheck(flat_env, data):
    stmts = [t for t in data.draw(st.lists(statements(flat_env), min_size=1, max_size=4))
             if well_typed(flat_env, t)]
    assume(stmts)
    for t in stmts:
        premises_agree_with_typecheck(flat_env, t)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", ["ground_data", "poly_lemmas", "unfold_defs"])
def test_is_prop_agrees_with_typecheck_on_benchmark_outputs(bench_driver, workload, seed):
    """Every output hypothesis of one problem; its domains include both
    implication premises and object types."""
    driver, workloads = bench_driver
    state = driver.preprocess(workloads.problem(workload, seed, 0)[1]).state
    verdicts = set()
    for h in state.hypotheses:
        verdicts.update(premises_agree_with_typecheck(state.env, h.statement))
    assert verdicts == {True, False}
