"""Lifting/substitution against an independent named-variable oracle, the
other `rebind`-based traversals against their hand-written originals, term
equality and hashing against the recursive alpha-equivalence, each node's
cached free-variable and node-class masks against recursive references, the
walks that the masks spare, `repr` against its recursive original, the
kernels' sharing of unchanged nodes, and the slotted node classes.

Term equality ignores binder names, so a comparison that must also pin the
names compares `repr`."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alpha_reference
import debruijn_reference as reference
import repr_reference
from conftest import PRELUDE, count_calls
from folbridge import conversion, parser, printer, terms, transforms
from folbridge.conversion import (
    Value, VBuiltin, VClosure, VCtor, VCtorPartial, VFix, VInt, VType, infer,
)
from folbridge.parser import parse_problem
from folbridge.terms import (
    And, App, BOOL, Branch, Const, Ctor, Eq, Exists, FalseP, Fix, FolbridgeError, INT, Ind,
    IntLit, IntT, Lam, Match, Not, Or, PROP, Pi, ScopeError, SortProp, SortType, TYPE, Term,
    TrueP, TVar, Var, alpha_eq, is_closed, lift, make_app, subst, subst_list, subterms,
    well_scoped,
)
from named_calculus import from_named, named_subst, to_named


def random_term(rng: random.Random, depth: int, size: int) -> Term:
    """Random untyped lambda/pi/app skeleton with depth free variables."""
    if size <= 1:
        choices = ["leaf"]
        if depth > 0:
            choices.append("var")
        kind = rng.choice(choices)
    else:
        kind = rng.choice(["var", "leaf", "lam", "pi", "app", "app"] if depth else ["leaf", "lam", "pi", "app", "app"])
    if kind == "var":
        return Var(rng.randrange(depth))
    if kind == "leaf":
        return rng.choice([Const("c"), Const("d"), IntLit(rng.randint(-9, 9)), INT])
    if kind == "lam":
        return Lam("x", random_term(rng, depth, size // 2),
                   random_term(rng, depth + 1, size - size // 2))
    if kind == "pi":
        return Pi("x", random_term(rng, depth, size // 2),
                  random_term(rng, depth + 1, size - size // 2))
    return App(random_term(rng, depth, size // 2),
               random_term(rng, depth, size - size // 2))


class TestLift:
    def test_lift_free_var(self):
        assert lift(Var(0), 1, 0) == Var(1)

    def test_lift_below_cutoff(self):
        assert lift(Var(0), 1, 1) == Var(0)

    def test_lift_under_binder(self):
        assert lift(Lam("_", INT, Var(1)), 2, 0) == Lam("_", INT, Var(3))

    def test_lift_zero_is_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            t = random_term(rng, 3, 12)
            assert repr(lift(t, 0, 0)) == repr(t)

    def test_lift_against_named_oracle(self):
        # Reading a named term back in a context padded with k fresh slots
        # below the free variables is exactly lift by k.
        rng = random.Random(13)
        for _ in range(300):
            t = random_term(rng, 3, 10)
            ctx = ["a", "b", "c"]
            named = to_named(t, ctx)
            assert alpha_eq(from_named(named, ctx), t)
            k = rng.randint(0, 3)
            padded = [f"pad{i}" for i in range(k)] + ctx
            assert alpha_eq(from_named(named, padded), lift(t, k, 0))
            assert well_scoped(lift(t, k, 0), 3 + k)


class TestSubst:
    def test_subst_hit(self):
        assert subst(Var(0), 0, Const("c")) == Const("c")

    def test_subst_shift(self):
        assert subst(Var(1), 0, Const("c")) == Var(0)

    def test_subst_under_binder(self):
        t = Lam("_", INT, App(Var(1), Var(0)))
        assert subst(t, 0, Const("c")) == Lam("_", INT, App(Const("c"), Var(0)))

    def test_subst_against_named_oracle(self):
        rng = random.Random(99)
        ctx = ["u", "v", "w", "z"]
        for _ in range(400):
            t = random_term(rng, 4, 12)
            i = rng.randrange(4)
            # the replacement lives in the context at index i: ctx[i+1:]
            r = random_term(rng, len(ctx) - i - 1, 8)
            got = subst(t, i, r)
            named_t = to_named(t, ctx)
            named_r = to_named(r, ctx[i + 1:])
            want_named = named_subst(named_t, ctx[i], named_r)
            want = from_named(want_named, ctx[:i] + ctx[i + 1:])
            assert alpha_eq(got, want), (t, i, r, got, want)

    def test_subst_lift_cancel(self):
        rng = random.Random(5)
        for _ in range(300):
            t = random_term(rng, 3, 12)
            u = random_term(rng, 3, 6)
            i = rng.randrange(3)
            assert repr(subst(lift(t, 1, i), i, u)) == repr(t)


class TestSubstList:
    def test_simultaneous(self):
        # t = Var0 Var1 Var2 with values [a, b]: Var2 drops to Var0.
        t = App(App(Var(0), Var(1)), Var(2))
        got = subst_list(t, [Const("a"), Const("b")])
        assert got == App(App(Const("a"), Const("b")), Var(0))

    def test_matches_sequential_for_closed_values(self):
        rng = random.Random(21)
        for _ in range(200):
            t = random_term(rng, 3, 12)
            vals = [Const("a"), Const("b"), Const("c")]
            got = subst_list(t, vals)
            want = t
            # sequential: substitute index 0 repeatedly (values are closed)
            for v in vals:
                want = subst(want, 0, v)
            assert repr(got) == repr(want)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=4))
@settings(deadline=None, max_examples=60)
def test_lift_compose(i: int, j: int):
    rng = random.Random(i * 31 + j)
    t = random_term(rng, 2, 10)
    assert alpha_eq(lift(lift(t, i, 0), j, 0), lift(t, i + j, 0))


def test_well_scoped_preserved():
    rng = random.Random(3)
    for _ in range(300):
        t = random_term(rng, 2, 10)
        assert well_scoped(t, 2)
        assert well_scoped(lift(t, 3, 1), 5)
        assert well_scoped(subst(t, 1, Const("c")), 1)
    assert is_closed(Const("c"))
    assert not is_closed(Var(0))


LEAVES = st.sampled_from(
    (Var(0), Var(1), Const("c"), IntLit(0), INT, TYPE, TrueP()))
NAMES = st.sampled_from(("x", "y", "_"))
INDUCTIVES = st.sampled_from(("list", "nat"))


@st.composite
def term_pairs(draw, depth: int = 3, renamed_only: bool | None = None):
    """Two terms of one shape whose binder names are drawn apart. Unless
    `renamed_only`, each leaf, `Fix.decreasing`, branch arity and
    `Match.inductive` of the second term may also be drawn apart from the
    first."""
    if renamed_only is None:
        renamed_only = draw(st.booleans())

    def apart(first, strategy):
        if renamed_only or draw(st.integers(0, 5)):
            return first
        return draw(strategy)

    kinds = ("leaf", "pi", "lam", "exists", "fix", "match", "eq", "app")
    kind = draw(st.sampled_from(kinds if depth else kinds[:1]))
    if kind == "leaf":
        t = draw(LEAVES)
        return t, apart(t, LEAVES)

    def sub():
        return draw(term_pairs(depth - 1, renamed_only))

    if kind in ("pi", "lam", "exists"):
        cls = {"pi": Pi, "lam": Lam, "exists": Exists}[kind]
        (d1, d2), (b1, b2) = sub(), sub()
        return cls(draw(NAMES), d1, b1), cls(draw(NAMES), d2, b2)
    if kind == "fix":
        decreasing = draw(st.integers(0, 1))
        (f1, f2), (b1, b2) = sub(), sub()
        return (Fix(draw(NAMES), decreasing, f1, b1),
                Fix(draw(NAMES), apart(decreasing, st.integers(0, 1)), f2, b2))
    if kind == "app":
        (h1, h2), (a1, a2) = sub(), sub()
        return App(h1, a1), App(h2, a2)
    (l1, l2), (r1, r2) = sub(), sub()
    if kind == "eq":
        a1, a2 = sub()
        return Eq(a1, l1, r1), Eq(a2, l2, r2)
    inductive = draw(INDUCTIVES)
    branches1, branches2 = [], []
    for _ in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(0, 2))
        arity2 = apart(arity, st.integers(0, 2))
        b1, b2 = sub()
        branches1.append(Branch(tuple(draw(NAMES) for _ in range(arity)), b1))
        branches2.append(Branch(tuple(draw(NAMES) for _ in range(arity2)), b2))
    return (Match(l1, inductive, r1, tuple(branches1)),
            Match(l2, apart(inductive, INDUCTIVES), r2, tuple(branches2)))


@given(term_pairs())
@settings(deadline=None, max_examples=300)
def test_equality_is_alpha_equivalence(pair):
    t, u = pair
    assert (t == u) == alpha_reference.alpha_eq(t, u)
    assert (t != u) != (t == u)
    assert alpha_eq(t, u) == (t == u)
    if t == u:
        assert hash(t) == hash(u)


def test_equality_sees_arity_decreasing_and_inductive():
    renamed = (Pi("x", INT, Var(0)), Pi("y", INT, Var(0)))
    assert renamed[0] == renamed[1] and repr(renamed[0]) != repr(renamed[1])
    apart = [
        (Match(Var(0), "nat", INT, (Branch(("a",), IntLit(1)),)),
         Match(Var(0), "nat", INT, (Branch((), IntLit(1)),))),
        (Fix("f", 0, INT, Var(0)), Fix("f", 1, INT, Var(0))),
        (Match(Var(0), "Bool", INT, (Branch((), IntLit(1)), Branch((), IntLit(0)))),
         Match(Var(0), "nat", INT, (Branch((), IntLit(1)), Branch((), IntLit(0))))),
    ]
    for t, u in apart:
        assert not alpha_reference.alpha_eq(t, u)
        assert t != u and u != t
        assert len({t, u}) == 2


# Open terms: every node kind, and deeper random skeletons with three free
# variables.
OPEN_TERMS = st.one_of(
    term_pairs(renamed_only=True).map(lambda pair: pair[0]),
    st.integers(0, 2**32).map(lambda seed: random_term(random.Random(seed), 3, 12)))
VALUES = st.one_of(
    st.sampled_from((Var(0), Const("c"), App(Ind("list"), Var(1)))).map(VType),
    st.just(VInt(0)))


def outcome(f, *args):
    """f's result, or the class and message of the error it raised."""
    try:
        return f(*args)
    except (FolbridgeError, IndexError) as e:
        return type(e), str(e)


@given(OPEN_TERMS, st.integers(0, 3))
@example(Lam("x", INT, Var(1)), 1)
@settings(deadline=None, max_examples=100)
def test_unshift_matches_reference(t, amount):
    assert repr(parser._unshift(t, amount)) == repr(reference._unshift(t, amount))


@given(OPEN_TERMS, st.lists(VALUES, max_size=3).map(tuple))
@example(Var(1), (VType(INT), VInt(0)))
@example(Var(2), (VType(INT),))
@settings(deadline=None, max_examples=100)
def test_reify_type_matches_reference(t, venv):
    assert (repr(outcome(conversion._reify_type, t, venv))
            == repr(outcome(reference._reify_type, t, venv)))


@given(OPEN_TERMS)
@settings(deadline=None, max_examples=100)
def test_uses_binder_at_matches_reference(t):
    # The mask bit that the printer reads for each binder of the printed
    # term is the reference's answer about its scope.
    marks = []
    for s in subterms(t):
        if isinstance(s, (Pi, Lam, Exists, Fix)):
            scope = s.codomain if isinstance(s, Pi) else s.body
            marks.append((scope._free & 1, reference._uses_binder_at(scope, 0), s))
        elif isinstance(s, Match):
            for br in s.branches:
                for j in range(br.arity):
                    marks.append((br.body._free >> (br.arity - 1 - j) & 1,
                                  reference._uses_binder_at(br.body, br.arity - 1 - j), s))
    for got, want, s in marks:
        assert bool(got) == want, s


CLOSED_TERMS = st.integers(0, 2**32).map(lambda seed: random_term(random.Random(seed), 0, 12))


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS), st.integers(0, 4))
@example(Lam("x", INT, Var(1)), 0)
@settings(deadline=None, max_examples=200)
def test_well_scoped_matches_reference(t, depth):
    assert well_scoped(t, depth) == reference.well_scoped(t, depth)


# Open terms under three Pi binders: closed, with matches on bound
# variables.
CLOSED_MATCH_TERMS = term_pairs(renamed_only=True).map(
    lambda pair: Pi("a", INT, Pi("b", INT, Pi("c", INT, pair[0]))))


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS, CLOSED_MATCH_TERMS), st.integers(0, 4))
@example(Match(Var(1), "nat", INT, (Branch(("x",), Match(Var(0), "nat", INT, ())),)), 3)
@settings(deadline=None, max_examples=200)
def test_match_candidates_matches_reference(t, n):
    assert (transforms._match_candidates(t, n)
            == reference._match_candidates(t, n))


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS, CLOSED_MATCH_TERMS))
@example(Match(Var(2), "list", INT, (Branch(("x", "y"), Var(3)),)))
@example(Eq(Var(1), Var(0), Lam("x", INT, Var(1))))
@settings(deadline=None, max_examples=200)
def test_free_matches_reference(t):
    for s in subterms(t):
        bits = {i for i in range(s._free.bit_length()) if s._free >> i & 1}
        assert bits == reference.free(s), s
        assert s._free.bit_length() == reference.reach(s), s
    assert is_closed(t) == well_scoped(t, 0)


# Each bit of `Term._has` and the node class it stands for.
HAS_BITS = ((terms.HAS_LAM, Lam), (terms.HAS_CONST, Const), (terms.HAS_MATCH, Match),
            (terms.HAS_FIX, Fix), (terms.HAS_TVAR, TVar))


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS, CLOSED_MATCH_TERMS))
@example(Fix("f", 0, Pi("x", TVar("A"), TVar("B")),
             Lam("x", TVar("A"), Match(Var(0), "nat", TVar("B"), (Branch(("y",), Var(2)),)))))
@example(Eq(TVar("A"), Var(0), App(Const("c"), Var(1))))
@settings(deadline=None, max_examples=200)
def test_has_matches_reference(t):
    for s in subterms(t):
        present = reference.classes(s)
        for bit, cls in HAS_BITS:
            assert bool(s._has & bit) == (cls in present), (cls, s)
        assert s._has < 32, s


def test_closed_terms_are_not_walked(monkeypatch):
    """lift, subst and subst_list return a closed term, and lift an open one
    whose free variables stay below the cutoff, without visiting a
    subterm: the walk is an entry into rebind. Inside the walk of an open
    term, rebind's go enters only a child with something to rewrite and
    returns a closed sibling as it is."""
    calls = count_calls(monkeypatch, "rebind", terms)
    rng = random.Random(17)
    for _ in range(200):
        t = random_term(rng, 0, 12)
        assert lift(t, 2) is t
        assert subst(t, 0, Const("c")) is t
        assert subst_list(t, [Const("c"), INT]) is t
        u = random_term(rng, 3, 12)
        assert lift(u, 2, 3) is u
    assert calls == []
    # An open term is walked once; go is entered at the root, the App
    # head chain and Var(0), never at a closed argument.
    entered = []

    def probe(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "go" \
                and frame.f_code.co_filename == terms.__file__:
            entered.append(type(frame.f_locals["s"]).__name__)

    big, big2 = random_term(rng, 0, 12), random_term(rng, 0, 12)
    sys.setprofile(probe)
    try:
        out = subst(App(App(Var(0), big), big2), 0, Const("d"))
    finally:
        sys.setprofile(None)
    assert out == App(App(Const("d"), big), big2)
    assert out.arg is big2 and out.head.arg is big
    assert len(calls) == 1
    assert entered == ["App", "App", "Var"]


def test_kernels_with_nothing_to_rewrite_make_no_rebind_call(monkeypatch):
    """Every index rewrite reads the free-variable mask on entry: a closed
    term, or an open one whose free variables stay below the cutoff, comes
    back as it is, with no call into rebind."""
    calls = count_calls(monkeypatch, "rebind", terms, conversion)
    rng = random.Random(23)
    for _ in range(200):
        t = random_term(rng, 0, 12)
        assert lift(t, 2) is t and lift(t, 1, 5) is t
        assert subst(t, 0, Const("c")) is t
        assert subst_list(t, [Const("c"), INT]) is t
        # A closed type needs no value, not even one that is no type.
        assert conversion._reify_type(t, (VInt(0),)) is t
        u = random_term(rng, 3, 12)
        assert lift(u, 2, 3) is u
        assert subst(u, 3, Const("c")) is u
    assert calls == []
    # A variable at the cutoff is rewritten.
    assert lift(Var(3), 1, 3) == Var(4)
    assert len(calls) == 1


def test_printing_walks_no_term(prelude, monkeypatch):
    """print_term reads binder use off the masks: it never calls
    `children`."""
    calls = count_calls(monkeypatch, "children", terms, printer, transforms)
    rng = random.Random(19)
    for _ in range(100):
        printer.print_term(random_term(rng, 0, 12))
        printer.print_term(random_term(rng, 3, 12), context_names=["a", "b", "c"])
    assert "match" in printer.print_problem(prelude)
    assert calls == []


def test_printer_names_only_used_binders(prelude):
    """A binder whose hint is `_` gets a name exactly when its variable
    occurs, read off the mask bit of its position."""
    t = Match(Var(0), "list", INT, (Branch((), IntLit(0)), Branch(("_", "_"), Var(0))))
    assert (printer.print_term(t, prelude.env, ["l"])
            == "match l return Int with | nil => 0 | cons _ x => x end")
    cases = (
        (Lam("_", INT, Pi("_", INT, Pi("_", INT, Eq(INT, Var(0), Var(2))))),
         "fun (x : Int) => Int -> (forall (x0 : Int), x0 = x)"),
        (Lam("_", INT, Lam("_", INT, Var(1))), "fun (x : Int) (_ : Int) => x"),
        (Pi("_", INT, Pi("_", INT, Eq(INT, Var(1), Var(1)))), "forall (x : Int), Int -> x = x"),
    )
    for t, text in cases:
        assert printer.print_term(t) == text


def test_match_candidates_skips_closed_statements(prelude, monkeypatch):
    """A closed statement, such as a definition's `c = body`, costs one
    mask test; a body that mentions the telescope is walked."""
    calls = count_calls(monkeypatch, "children", terms, printer, transforms)
    env = prelude.env
    for d in env.definitions.values():
        assert transforms._match_candidates(Eq(d.type, Const(d.name), d.body), 0) == []
    assert calls == []
    body = parser.parse_term(
        "forall (l : list Int), length Int l = match l return Int with "
        "| nil => 0 | cons _ l' => 1 + length Int l' end", env)
    assert transforms._match_candidates(body.codomain, 1) == [0]
    assert calls


def test_match_candidates_skips_bodies_without_a_match(prelude, monkeypatch):
    """An open body that holds no match costs one mask test, however many
    telescope variables it mentions."""
    calls = count_calls(monkeypatch, "children", terms, printer, transforms)
    body = parser.parse_term(
        "forall (A : Type) (x : A) (l : list A), "
        "app A (cons A x l) (nil A) = cons A x (app A l (nil A))", prelude.env)
    _, inner = terms.strip_pis(body)
    assert inner._free and transforms._match_candidates(inner, 3) == []
    assert calls == []


def _cons_chain(n: int, innermost: int | Term) -> Term:
    """`cons Int i (...)` nested n deep over `nil Int`; the innermost
    element is `innermost`, a literal when it is an int."""
    t = App(Ctor("list", 0), INT)
    for i in range(n):
        x = innermost if i == 0 else i
        t = App(App(App(Ctor("list", 1), INT), IntLit(x) if type(x) is int else x), t)
    return t


def test_deep_chains_hash_and_compare_at_the_default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b = _cons_chain(10_000, 0), _cons_chain(10_000, 1)
        assert hash(a) == hash(_cons_chain(10_000, 0))
        assert a != b and not a == b
        assert b not in {a}
    finally:
        sys.setrecursionlimit(limit)


def test_app_spines_print_lift_and_subst_at_the_default_recursion_limit(prelude):
    """The printer and rebind take an application level in one frame, so
    an 800-element chain prints, lifts and substitutes at a recursion limit
    of 1000 (each failed from 331, 495 and 496 elements at two to three
    frames a level). It runs in a fresh thread, whose stack holds none of
    the test runner's frames."""
    closed = _cons_chain(800, 0)
    open_ = _cons_chain(800, Var(0))
    out = {}

    def run():
        try:
            out["print"] = printer.print_term(closed, prelude.env)
            out["lift"] = lift(open_, 1)
            out["subst"] = subst(open_, 0, IntLit(0))
        except RecursionError as e:
            out["error"] = e

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        sys.setrecursionlimit(limit)
    assert "error" not in out
    text = "cons Int 0 (nil Int)"
    for i in range(1, 800):
        text = f"cons Int {i} ({text})"
    assert out["print"] == text
    # `==` still recurses two frames a level; repr does not recurse.
    assert repr(out["lift"]) == repr(_cons_chain(800, Var(1)))
    assert repr(out["subst"]) == repr(closed)


def _value(kind: int, values: tuple, t: Term) -> Value:
    return (VCtor("list", 1, (INT, t), values), VClosure(values, t), VFix(values, t, values),
            VCtorPartial("list", 1, values), VBuiltin("add", values))[kind]


# Values of every class, nested, holding terms with binder names and
# branches.
VALUE_TREES = st.recursive(
    st.one_of(VALUES, st.just(Value())),
    lambda inner: st.builds(_value, st.integers(0, 4),
                            st.lists(inner, max_size=2).map(tuple), OPEN_TERMS),
    max_leaves=6)


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS, CLOSED_MATCH_TERMS, VALUE_TREES))
@example(Match(Var(0), "nat", INT, (Branch(("x",), Var(0)), Branch((), IntLit(-3)))))
@example(VCtor("list", 0, (INT,), ()))
@settings(deadline=None, max_examples=200)
def test_repr_matches_reference(x):
    assert repr(x) == repr_reference.node_repr(x)


def test_deep_chains_repr_at_the_default_recursion_limit():
    term = _cons_chain(10_000, 0)
    value = VCtor("list", 0, (INT,), ())
    for i in range(10_000):
        value = VCtor("list", 1, (INT,), (VInt(i), value))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        term_text, value_text = repr(term), repr(value)
    finally:
        sys.setrecursionlimit(limit)
    assert term_text.startswith("App(head=App(head=App(head=Ctor(inductive='list', ctor_index=1)")
    assert term_text.count("IntLit(") == 10_000
    assert value_text.startswith("VCtor(inductive='list', ctor_index=1, type_args=(IntT(),), "
                                 "args=(VInt(value=9999), VCtor(")
    assert value_text.count("VInt(") == 10_000


def _classes(base: type) -> list[type]:
    out = [base]
    for sub in base.__subclasses__():
        out += _classes(sub)
    return out


def test_nodes_and_values_have_no_instance_dict(prelude):
    for cls in [Branch, *_classes(Term), *_classes(Value)]:
        for k in cls.__mro__[:-1]:
            assert "__slots__" in vars(k), (cls, k)
    env = prelude.env
    nodes = [s for d in env.definitions.values() for s in subterms(d.body)]
    values = [conversion.eval_ground(env, parser.parse_term(text, env)) for text in (
        "app Int (cons Int 1 (nil Int)) (nil Int)", "length Int", "2 + 3", "search Int 1")]
    for obj in nodes + values:
        assert not hasattr(obj, "__dict__"), obj


def test_negative_index_rejected():
    """No term holds a negative de Bruijn or constructor index: building
    one raises, also once the shared table holds higher indices, and leaves
    no entry."""
    Var(63), Var(64), Ctor("nat", 3)
    with pytest.raises(ScopeError, match="-1"):
        Var(-1)
    with pytest.raises(ScopeError, match="-1"):
        Ctor("nat", -1)
    assert -1 not in terms._VARS and ("nat", -1) not in terms._CTORS


def _is_leaf(t: Term) -> bool:
    return type(t) is Var or type(t) in terms.LEAVES


def _leaves(t: Term) -> list[Term]:
    return [s for s in subterms(t) if _is_leaf(s)]


# Every leaf class with its table of shared nodes.
LEAF_TABLES = {Var: terms._VARS, Const: terms._CONSTS, Ctor: terms._CTORS,
               Ind: terms._INDS, TVar: terms._TVARS, IntLit: terms._INTLITS}


class TestSharedLeaves:
    """A leaf class gives one node per key, kept in a table with one entry
    per distinct key ever built; a compound constructor builds a new node
    (for the closed applications an environment shares, see
    TestSharedApplications). `==` and `hash` stay structural, so the
    sharing shows only through `is`."""

    def test_one_node_per_key(self):
        for i in (0, 1, 5, 63, 64, 10_000):
            assert Var(i) is Var(i) and Var(i).index == i
        assert Var(1) is not Var(2)
        assert Const("f") is Const("f") and Const("f") is not Const("g")
        assert Ctor("nat", 1) is Ctor("nat", 1)
        assert Ctor("nat", 1) is not Ctor("nat", 0) and Ctor("nat", 1) is not Ctor("tree", 1)
        assert Ind("list") is Ind("list") and Ind("list") is not Ind("nat")
        assert TVar("A") is TVar("A") and TVar("A") is not TVar("B")
        assert IntLit(-3) is IntLit(-3) and IntLit(3) is not IntLit(-3)
        for cls in (IntT, SortType, SortProp, TrueP, FalseP):
            assert cls() is cls() and repr(cls()) == f"{cls.__name__}()"
        assert INT is IntT() and TYPE is SortType() and PROP is SortProp()
        assert App(Const("f"), Var(0)) is not App(Const("f"), Var(0))
        for cls, table in LEAF_TABLES.items():
            for key, node in table.items():
                fields = tuple(getattr(node, n) for n in cls.__slots__)
                assert type(node) is cls and fields == (key if cls is Ctor else (key,))

    def test_shared_across_environments(self):
        """Two parses of one problem build two environments that share every
        leaf and no compound node."""
        first, second = parse_problem(PRELUDE), parse_problem(PRELUDE)
        assert first.env is not second.env
        for name, d in first.env.definitions.items():
            other = second.env.definitions[name]
            for t, u in [(d.type, other.type), (d.body, other.body)]:
                assert t == u
                for a, b in zip(subterms(t), subterms(u)):
                    assert (a is b) == _is_leaf(a)

    def test_copy_and_pickle_keep_the_shared_leaves(self):
        """Copies and pickles go back through the constructors: the result
        is `==` to the original, prints the same, and holds the very leaf
        nodes of the original."""
        t = Pi("x", App(Ind("list"), INT), Eq(
            App(Ind("list"), INT),
            Match(Var(0), "list", App(Ind("list"), TVar("A")), (
                Branch((), App(Const("nil"), TYPE)),
                Branch(("h", "tl"), make_app(Ctor("list", 1), [SortProp(), IntLit(7), Var(0)])))),
            Lam("b", BOOL, Exists("y", INT, And(TrueP(), Or(FalseP(), Not(Var(2))))))))
        assert {type(s) for s in subterms(t)} >= {Var, *terms.LEAVES}
        copies = [copy.copy(t), copy.deepcopy(t)] + [
            pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for u in copies:
            assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
            assert [id(s) for s in _leaves(u)] == [id(s) for s in _leaves(t)]
        for leaf in _leaves(t):
            assert copy.deepcopy(leaf) is leaf and pickle.loads(pickle.dumps(leaf)) is leaf

    def test_tables_grow_with_keys_not_with_terms(self, bench_driver):
        """Preprocessing and checking 36 benchmark problems adds only
        declared names to the name tables; doing it all again builds every
        term anew and adds no key to any table."""
        driver, workloads = bench_driver
        texts = [workloads.problem(w, seed, index)[1] for w in workloads.GENERATORS
                 for seed in range(4) for index in range(3)]

        def run() -> list:
            envs = []
            for text in texts:
                state = driver.preprocess(text).state
                for h in state.hypotheses:
                    conversion.random_truth_check(state.env, h.statement, samples=1, seed=0)
                envs.append(state.env)
            return envs

        before = {cls: set(table) for cls, table in LEAF_TABLES.items()}
        envs = run()
        after = {cls: set(table) for cls, table in LEAF_TABLES.items()}
        run()
        assert {cls: set(table) for cls, table in LEAF_TABLES.items()} == after
        names = frozenset().union(*[env.names() for env in envs])
        ctors = {(d.name, i) for env in envs for d in env.inductives.values()
                 for i in range(len(d.ctors))}
        assert after[Const] - before[Const] <= names
        assert after[Ind] - before[Ind] <= names
        assert after[Ctor] - before[Ctor] <= ctors


LEN_APP = "forall (A : Type) (l : list A), length A (app A l (nil A)) = length A l"
LEN_GOAL = "forall (l : list nat), length nat l = length nat (app nat (nil nat) l)"


def _module_tables() -> dict[str, int]:
    """The size of every dict, set and list a package module holds at
    module level."""
    return {f"{m.__name__}.{n}": len(v)
            for m in (terms, conversion, parser, printer, transforms)
            for n, v in vars(m).items() if type(v) in (dict, set, list)}


def _live_apps() -> int:
    gc.collect()
    return sum(type(o) is App for o in gc.get_objects())


class TestSharedApplications:
    """Each environment gives one App node per closed head and closed
    argument (`GlobalEnv.apps`, `terms.share_app`) to the parser, `_infer`,
    `ctor_arg_types`, `monomorphize`, `eliminate_pattern_matching` and the
    datatype axioms. The table is the
    environment's own: it starts empty, no other environment sees its
    nodes, and no process-wide table keeps them."""

    @staticmethod
    def monomorphized():
        problem = parse_problem(PRELUDE)
        env = problem.env
        state = transforms.ProofState(env, [transforms.Hypothesis(
            "len_app", parser.parse_term(LEN_APP, env), transforms.Given())],
            parser.parse_term(LEN_GOAL, env))
        return state, transforms.monomorphize(state)

    def test_fresh_environment_has_an_empty_table(self):
        assert terms.GlobalEnv().apps == {}
        assert parse_problem(PRELUDE).env.apps

    def test_one_node_per_closed_application(self):
        env = terms.GlobalEnv()
        apps = env.apps
        nat = Ind("nat")
        a = terms.share_app(apps, Ind("list"), nat)
        assert terms.share_app(apps, Ind("list"), nat) is a and apps == {(id(Ind("list")), id(nat)): a}
        assert terms.share_app(apps, Ind("list"), App(Ind("list"), nat)) is not terms.share_app(
            apps, Ind("list"), App(Ind("list"), nat))  # a child built anew is another key
        open_ = terms.share_app(apps, Ind("list"), Var(0))
        assert open_ is not terms.share_app(apps, Ind("list"), Var(0)) and len(apps) == 3
        assert make_app(Ctor("list", 0), [nat], apps) is make_app(Ctor("list", 0), [nat], apps)
        assert subst_list(App(Ind("list"), Var(0)), [nat], apps) is a
        assert subst_list(App(Ind("list"), Var(0)), [nat]) is not a

    def test_parser_infer_and_monomorphize_build_one_node(self):
        state, out = self.monomorphized()
        env, goal = state.env, state.goal
        list_nat = goal.domain                                   # the parser's
        nil_nat = goal.codomain.rhs.arg.head.arg
        length_nat = goal.codomain.lhs.head
        app_nat = goal.codomain.rhs.arg.head.head
        assert repr(list_nat) == "App(head=Ind(inductive='list'), arg=Ind(inductive='nat'))"
        assert conversion.typecheck(env, [], nil_nat) is list_nat  # `_infer`'s
        assert conversion.typecheck(env, [], app_nat).domain is list_nat
        inst = next(h.statement for h in out if h.name == "len_app_nat")
        assert inst.domain is list_nat                           # `monomorphize`'s
        assert inst.codomain.lhs.head is length_nat
        assert inst.codomain.lhs.arg.head.head is app_nat
        assert inst.codomain.lhs.arg.arg is nil_nat
        assert inst.codomain.rhs.head is length_nat

    def test_case_substitution_builds_the_same_nodes(self):
        env = parse_problem(PRELUDE).env
        goal = parser.parse_term("nlength nat (nil nat) = O", env)
        state = transforms.ProofState(env, [transforms.Hypothesis("h", parser.parse_term(
            "forall (l : list nat), nlength nat l = match l return nat with"
            " | nil => O | cons _ t => S (nlength nat t) end", env), transforms.Given())], goal)
        nil_case = transforms.eliminate_pattern_matching(state, "h")[0].statement
        assert nil_case == goal and nil_case is not goal
        assert nil_case.lhs is goal.lhs and nil_case.lhs.arg is goal.lhs.arg

    def test_monomorphize_output_repr_is_unchanged(self):
        _, out = self.monomorphized()
        h = next(h for h in out if h.name == "len_app_nat")
        assert repr(h) == (
            "Hypothesis(name='len_app_nat', statement=Pi(binder='l', domain=App("
            "head=Ind(inductive='list'), arg=Ind(inductive='nat')), codomain=Eq(at_type=IntT(), "
            "lhs=App(head=App(head=Const(name='length'), arg=Ind(inductive='nat')), "
            "arg=App(head=App(head=App(head=Const(name='app'), arg=Ind(inductive='nat')), "
            "arg=Var(index=0)), arg=App(head=Ctor(inductive='list', ctor_index=0), "
            "arg=Ind(inductive='nat')))), rhs=App(head=App(head=Const(name='length'), "
            "arg=Ind(inductive='nat')), arg=Var(index=0)))), "
            "justification=ByInstantiation(source='len_app', type_args=(Ind(inductive='nat'),)))")
        assert repr(h.statement) == repr_reference.node_repr(h.statement)
        assert printer.print_term(h.statement, parse_problem(PRELUDE).env) == (
            "forall (l : list nat), length nat (app nat l (nil nat)) = length nat l")

    def test_environments_share_no_compound_node(self, bench_driver):
        """Two runs of one benchmark problem: every compound node of the
        first run's statements is another object in the second's."""
        driver, workloads = bench_driver
        for w in workloads.GENERATORS:
            text = workloads.problem(w, 0, 0)[1]
            first, second = driver.preprocess(text).state, driver.preprocess(text).state
            assert first.hypotheses == second.hypotheses
            ids = {id(s) for h in first.hypotheses for s in subterms(h.statement)
                   if not _is_leaf(s)}
            assert not any(id(s) in ids for h in second.hypotheses
                           for s in subterms(h.statement) if not _is_leaf(s))

    def test_every_closed_application_in_the_output_is_shared(self, bench_driver):
        """Every closed App of every output hypothesis, the datatype axioms'
        constructor heads and argument types included, is its
        environment's node for its head and argument."""
        driver, workloads = bench_driver
        for w in workloads.GENERATORS:
            for index in range(3):
                state = driver.preprocess(workloads.problem(w, 2, index)[1]).state
                apps = state.env.apps
                for h in state.hypotheses:
                    for s in subterms(h.statement):
                        if type(s) is App and not s._free:
                            assert apps.get((id(s.head), id(s.arg))) is s, h.name

    def test_table_holds_one_entry_per_application_the_problem_builds(self, bench_driver):
        """After preprocessing, each entry is a closed application under the
        ids of its own children, no two entries print alike, and the same
        problem preprocessed again fills a table of the same size while the
        first stays as it was."""
        driver, workloads = bench_driver
        for w in workloads.GENERATORS:
            for index in range(3):
                text = workloads.problem(w, 1, index)[1]
                env = driver.preprocess(text).state.env
                apps = env.apps
                for (head, arg), node in apps.items():
                    assert type(node) is App and not node._free
                    assert (head, arg) == (id(node.head), id(node.arg))
                assert len({repr(node) for node in apps.values()}) == len(apps)
                size = len(apps)
                assert len(driver.preprocess(text).state.env.apps) == size == len(apps)

    def test_no_process_wide_table_grows_but_the_leaves(self, bench_driver):
        """Preprocessing 36 benchmark problems grows no module-level
        container of the package but the leaf tables, and once the states
        are dropped no App node they built is left."""
        driver, workloads = bench_driver
        texts = [workloads.problem(w, seed, index)[1] for w in workloads.GENERATORS
                 for seed in range(4) for index in range(3)]
        driver.preprocess(texts[0])   # first-use caches
        before, apps = _module_tables(), _live_apps()
        states = [driver.preprocess(text).state for text in texts]
        assert sum(len(s.env.apps) for s in states) > 0
        after = _module_tables()
        leaves = {f"folbridge.terms.{n}" for n in (
            "_VARS", "_CONSTS", "_CTORS", "_INDS", "_TVARS", "_INTLITS", "_SOLE")}
        assert {n for n in after if after[n] != before.get(n)} <= leaves
        del states
        assert _live_apps() <= apps


def test_well_scoped_deep_chain():
    """10^4 nested App/Not nodes over one variable, built directly."""
    t: Term = Var(0)
    for i in range(10_000):
        t = App(Const("f"), t) if i % 2 else Not(t)
    assert well_scoped(t, 1)
    assert not well_scoped(t, 0)
    assert well_scoped(Lam("x", INT, t), 0)


class TestSharing:
    """The kernels hand back the node they were given when nothing in it
    changes."""

    def test_closed_term_survives_lift_and_subst(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_term(rng, 0, 12)
            assert lift(t, 2) is t
            assert lift(t, 1, 5) is t
            assert subst(t, 0, Const("c")) is t
            assert subst_list(t, [Const("c"), INT]) is t

    def test_open_term_below_cutoff_survives_lift(self):
        rng = random.Random(12)
        for _ in range(200):
            t = random_term(rng, 3, 12)
            assert lift(t, 2, 3) is t

    @given(term_pairs(renamed_only=True))
    @settings(deadline=None, max_examples=200)
    def test_renamed_terms_share_entries(self, pair):
        """A renamed term finds the set or dict entry of its original, as
        is, with no copy of either: `setdefault` keeps the first term."""
        t, u = pair
        assert u in {t}
        first = {t: t}
        assert first.setdefault(u, u) is t and repr(first[u]) == repr(t)

    def test_elaborated_term_is_not_copied(self, prelude):
        env = prelude.env
        terms = [prelude.goal]
        for d in env.definitions.values():
            terms += [d.type, d.body]
        terms.append(parser.parse_term(
            "forall (A : Type) (x : A) (l : list A), search A x (cons A x l) = true"
            " /\\ hd_error A (app A l (nil A)) = hd_error A l", env))
        for t in terms:
            assert infer(env, [], t)[0] is t, t


def test_kernels_leave_no_garbage():
    """lift and subst leave no reference cycles for the collector."""
    t = Pi("x", App(Ind("list"), INT), Eq(App(Ind("list"), INT), Var(0), Var(1)))
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            lift(t, 1)
            subst(t, 0, Const("c"))
        assert gc.collect() == 0
    finally:
        gc.enable()
