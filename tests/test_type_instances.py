"""The one-pass `collect_type_instances` against the reference version,
alone and through the decisions a `ProofState` shares between statements,
and its cost as the list literal or the nesting of constant applications
in a goal grows. Instances are compared by `repr`, so that their binder
names must agree too: term equality ignores them."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRELUDE
from folbridge import conversion, transforms
from folbridge.parser import parse_problem, parse_term
from folbridge.terms import (
    INT, TYPE, And, App, Ctor, Eq, Exists, FalseP, Ind, IntT, Not, Or, Pi,
    TVar, TrueP, map_subterms, spine, strip_pis,
)
from folbridge.transforms import ProofState, collect_type_instances

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
    assert repr(collect_type_instances(flat_env, t)) == repr(expected)


PROP_HEADS = (Eq, And, Or, Not, Exists, TrueP, FalseP)

# Statements with the candidate shapes that are ruled out without a
# typecheck (a closed product over a proposition, an inductive applied to
# too few or too many arguments) and ones whose typecheck raises (an unknown
# inductive, an over-applied one).
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


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_state_matches_reference(flat_env, data):
    """One state, asked about many statements in a random order, repeats
    included, answers each as the reference does on its own."""
    stmts = data.draw(st.lists(statements(flat_env), min_size=1, max_size=6))
    order = data.draw(st.lists(st.sampled_from(range(len(stmts))),
                               min_size=len(stmts), max_size=2 * len(stmts) + 2))
    state = ProofState(flat_env)
    decided = {}
    for i in order:
        t = stmts[i]
        expected = instances_reference.collect_type_instances(flat_env, t)
        assert repr(list(state.type_instances(t))) == repr(expected), t
        assert repr(collect_type_instances(flat_env, t, decided)) == repr(expected), t


@pytest.mark.parametrize("ty", FLAT_TYPES)
def test_flat_universe_instances(flat_env, ty):
    t = parse_term(f"forall (l : {ty}), l = l", flat_env)
    insts = collect_type_instances(flat_env, t)
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


def test_infer_visits_grow_linearly(env, monkeypatch):
    visits = 0
    infer = conversion._infer

    def counting_infer(*args):
        nonlocal visits
        visits += 1
        return infer(*args)

    typecheck = transforms.typecheck

    def checked_typecheck(env, ctx, t, *rest):
        assert not isinstance(spine(t)[0], Ctor), t
        return typecheck(env, ctx, t, *rest)

    monkeypatch.setattr(conversion, "_infer", counting_infer)
    monkeypatch.setattr(transforms, "typecheck", checked_typecheck)
    for make_goal in (ground_goal, add_chain_goal):
        counts = {}
        for n in (40, 80):
            goal = make_goal(env, n)
            visits = 0
            collect_type_instances(env, goal)
            counts[n] = visits
        assert counts[80] <= 2.2 * counts[40], (make_goal.__name__, counts)


def test_ruled_out_shapes_are_not_typechecked(flat_env, monkeypatch):
    checked = []
    typecheck = transforms.typecheck

    def recording_typecheck(env, ctx, t, *rest):
        checked.append(t)
        return typecheck(env, ctx, t, *rest)

    monkeypatch.setattr(transforms, "typecheck", recording_typecheck)
    for text in SKIPPED_TEXTS:
        collect_type_instances(flat_env, parse_term(text, flat_env))
    for t in BUILT:
        collect_type_instances(flat_env, t)
    assert checked
    assert any(isinstance(t, Pi) for t in checked)  # Type -> Type is typechecked
    for t in checked:
        codomain_head = spine(strip_pis(t)[1])[0]
        assert not (isinstance(t, Pi) and isinstance(codomain_head, PROP_HEADS)), t
        head, args = spine(t)
        assert not isinstance(head, PROP_HEADS), t
        if isinstance(head, Ind) and head.inductive in flat_env.inductives:
            assert len(args) == len(flat_env.inductives[head.inductive].params), t
