"""Lifting/substitution against an independent named-variable oracle, the
other `rebind`-based traversals against their hand-written originals, alpha
keys against alpha_eq, and the kernels' sharing of unchanged nodes."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import debruijn_reference as reference
from folbridge import conversion, parser, printer, transforms
from folbridge.conversion import VInt, VType, infer
from folbridge.terms import (
    App, Branch, Const, Eq, Exists, Fix, FolbridgeError, INT, Ind, IntLit, Lam,
    Match, Pi, TYPE, Term, TrueP, Var, alpha_eq, alpha_key, is_closed, lift,
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
            assert lift(t, 0, 0) == t

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
            assert subst(lift(t, 1, i), i, u) == t


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
            assert got == want


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


@st.composite
def term_pairs(draw, depth: int = 3, renamed_only: bool | None = None):
    """Two terms of one shape whose binder names are drawn apart. Unless
    `renamed_only`, each leaf, `Fix.decreasing`, branch arity and `None`
    hole of the second term may also be drawn apart from the first."""
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
    (a1, a2), (l1, l2), (r1, r2) = sub(), sub(), sub()
    hole = draw(st.booleans())
    hole2 = apart(hole, st.booleans())
    a1 = None if hole else a1
    a2 = None if hole2 else a2
    if kind == "eq":
        return Eq(a1, l1, r1), Eq(a2, l2, r2)
    branches1, branches2 = [], []
    for _ in range(draw(st.integers(1, 2))):
        arity = draw(st.integers(0, 2))
        arity2 = apart(arity, st.integers(0, 2))
        b1, b2 = sub()
        branches1.append(Branch(tuple(draw(NAMES) for _ in range(arity)), b1))
        branches2.append(Branch(tuple(draw(NAMES) for _ in range(arity2)), b2))
    return (Match(l1, a1, r1, tuple(branches1)),
            Match(l2, a2, r2, tuple(branches2)))


@given(term_pairs())
@settings(deadline=None, max_examples=300)
def test_alpha_key_agrees_with_alpha_eq(pair):
    t, u = pair
    kt, ku = alpha_key(t), alpha_key(u)
    assert (kt == ku) == alpha_eq(t, u)
    if kt == ku:
        assert hash(kt) == hash(ku)
    assert alpha_eq(kt, t)


# Open terms: every node kind with `None` holes, and the deeper random
# skeletons with three free variables.
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
    assert (outcome(transforms._shift_above, t, at, by)
            == outcome(reference._shift_above, t, at, by))


@given(OPEN_TERMS, st.integers(0, 2), st.integers(0, 3), OPEN_TERMS)
@settings(deadline=None, max_examples=100)
def test_replace_binder_matches_reference(t, at, widen, replacement):
    assert (transforms._replace_binder(t, at, widen, replacement)
            == reference._replace_binder(t, at, widen, replacement))


@given(OPEN_TERMS, st.integers(0, 3))
@example(Lam("x", INT, Var(1)), 1)
@settings(deadline=None, max_examples=100)
def test_unshift_matches_reference(t, amount):
    assert parser._unshift(t, amount) == reference._unshift(t, amount)


@given(OPEN_TERMS, st.lists(VALUES, max_size=3).map(tuple))
@example(Var(1), (VType(INT), VInt(0)))
@example(Var(2), (VType(INT),))
@settings(deadline=None, max_examples=100)
def test_reify_type_matches_reference(t, venv):
    assert (outcome(conversion._reify_type, t, venv)
            == outcome(reference._reify_type, t, venv))


@given(OPEN_TERMS)
@settings(deadline=None, max_examples=100)
def test_uses_binder_at_matches_reference(t):
    # One printer state answers every question about every subterm, as one
    # print_term call does.
    state = printer._Namer(set())
    for s in subterms(t):
        for index in range(4):
            assert (state.uses_binder_at(s, index)
                    == reference._uses_binder_at(s, index)), (s, index)


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

    @given(term_pairs())
    @settings(deadline=None, max_examples=200)
    def test_binder_free_term_is_its_own_key(self, pair):
        key = alpha_key(pair[0])
        assert alpha_key(key) is key

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

    def test_holes_are_filled(self, env):
        raw = Match(parser.parse_term("true", env), None, INT,
                    (Branch((), IntLit(1)), Branch((), IntLit(0))))
        t = infer(env, [], Eq(None, raw, IntLit(1)))[0]
        assert t.at_type == INT and t.lhs.scrutinee_type == Ind("Bool")


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
