"""Lifting/substitution against an independent named-variable oracle, the
other `rebind`-based traversals against their hand-written originals, term
equality and hashing against the recursive alpha-equivalence, each node's
cached reach against a recursive reference, the kernels' sharing of
unchanged nodes, and the slotted node classes.

Term equality ignores binder names, so a comparison that must also pin the
names compares `repr`."""

from __future__ import annotations

import gc
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alpha_reference
import debruijn_reference as reference
from folbridge import conversion, parser, printer, terms, transforms
from folbridge.conversion import Value, VInt, VType, infer
from folbridge.terms import (
    App, Branch, Const, Ctor, Eq, Exists, Fix, FolbridgeError, INT, Ind, IntLit, Lam,
    Match, Not, Pi, TYPE, Term, TrueP, Var, alpha_eq, is_closed, lift,
    subst, subst_list, subterms, well_scoped,
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


@given(OPEN_TERMS, st.integers(0, 2), st.integers(0, 3))
@example(Var(0), 0, 1)
@settings(deadline=None, max_examples=100)
def test_shift_above_matches_reference(t, at, by):
    assert (repr(outcome(transforms._shift_above, t, at, by))
            == repr(outcome(reference._shift_above, t, at, by)))


@given(OPEN_TERMS, st.integers(0, 2), st.integers(0, 3), OPEN_TERMS)
@settings(deadline=None, max_examples=100)
def test_replace_binder_matches_reference(t, at, widen, replacement):
    assert (repr(transforms._replace_binder(t, at, widen, replacement))
            == repr(reference._replace_binder(t, at, widen, replacement)))


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
    # One walk marks every binder of the printed term, as one print_term
    # call does; each mark is the reference's answer about its scope.
    occurs = printer._binders_used(t)
    marks = []
    for s in subterms(t):
        if isinstance(s, (Pi, Lam, Exists, Fix)):
            scope = s.codomain if isinstance(s, Pi) else s.body
            marks.append((id(s) in occurs, reference._uses_binder_at(scope, 0), s))
        elif isinstance(s, Match):
            for br in s.branches:
                for j in range(br.arity):
                    marks.append(((id(br), j) in occurs,
                                  reference._uses_binder_at(br.body, br.arity - 1 - j), s))
    for got, want, s in marks:
        assert got == want, s


CLOSED_TERMS = st.integers(0, 2**32).map(lambda seed: random_term(random.Random(seed), 0, 12))


@given(st.one_of(OPEN_TERMS, CLOSED_TERMS), st.integers(0, 4))
@example(Var(-1), 1)
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
def test_reach_matches_reference(t):
    for s in subterms(t):
        assert s._reach == reference.reach(s), s
    assert is_closed(t) == well_scoped(t, 0)


def test_closed_terms_are_not_walked(monkeypatch):
    """lift, subst and subst_list return a closed term, and lift an open one
    whose free variables stay below the cutoff, without visiting a
    subterm."""
    calls = []
    real = terms.map_subterms
    monkeypatch.setattr(terms, "map_subterms",
                        lambda *args: calls.append(args) or real(*args))
    rng = random.Random(17)
    for _ in range(200):
        t = random_term(rng, 0, 12)
        assert lift(t, 2) is t
        assert subst(t, 0, Const("c")) is t
        assert subst_list(t, [Const("c"), INT]) is t
        u = random_term(rng, 3, 12)
        assert lift(u, 2, 3) is u
    assert calls == []
    # An open term is walked.
    assert subst(App(Var(0), Const("c")), 0, Const("d")) == App(Const("d"), Const("c"))
    assert len(calls) == 1


def _cons_chain(n: int, innermost: int) -> Term:
    """`cons Int i (...)` nested n deep over `nil Int`; the innermost
    element is `innermost`."""
    t = App(Ctor("list", 0), INT)
    for i in range(n):
        t = App(App(App(Ctor("list", 1), INT), IntLit(innermost if i == 0 else i)), t)
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
