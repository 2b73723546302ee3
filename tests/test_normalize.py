"""The normalizers built on terms.normal_form against their hand-written
versions in tests/normalize_reference.py: the same terms, binder names
included, the same fuel, and the same errors. Also what the kernel adds:
one pass over an already-normal term that enters only the subterms holding
a class the rewrite acts on, and iota reduction with no round cap."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import normalize_reference as ref
from conftest import PRELUDE, count_calls
from folbridge import conversion, terms, transforms
from folbridge.conversion import Fuel, beta_reduce, replace_tvars
from folbridge.parser import parse_problem
from folbridge.terms import (
    HAS_LAM, HAS_MATCH, HAS_TVAR, INT, App, Branch, Const, Ctor, FolbridgeError, Ind, IntLit,
    Lam, Match, Term, TVar, Var, make_app, subterms,
)
from folbridge.transforms import TransformError, iota_reduce

ENV = parse_problem(PRELUDE).env

O = Ctor("nat", 0)
S = Ctor("nat", 1)
NIL = App(Ctor("list", 0), INT)
CONS = App(Ctor("list", 1), INT)
NAT = Ind("nat")
LIST_INT = App(Ind("list"), INT)

NAMES = st.sampled_from(("x", "y", "_"))
DOMAINS = st.sampled_from((INT, NAT, LIST_INT, TVar("A")))
LEAVES = st.sampled_from((
    Var(0), Var(1), Var(2), Const("c"), Const("two"), Const("add"), IntLit(1),
    O, NIL, TVar("A"), TVar("B"), INT))
TVAR_TYPES = {"A": LIST_INT, "B": App(Ind("option"), NAT)}


@st.composite
def ctor_terms(draw, inductive: str, depth: int):
    """A constructor-headed term of the inductive, arguments random."""
    if inductive == "nat":
        return App(S, draw(open_terms(depth))) if draw(st.booleans()) else O
    if draw(st.booleans()):
        return make_app(CONS, [draw(open_terms(depth)), draw(open_terms(depth))])
    return NIL


@st.composite
def open_terms(draw, depth: int = 4):
    """Random open terms (free variables up to index 2) of lambdas,
    applications, constructors and matches on nat and list, whose
    scrutinee is a variable, constructor-headed, or any term (a match or a
    redex among them)."""
    kinds = ("leaf", "lam", "app", "ctor", "match")
    kind = draw(st.sampled_from(kinds if depth else kinds[:1]))
    if kind == "leaf":
        return draw(LEAVES)

    def sub() -> Term:
        return draw(open_terms(depth - 1))

    if kind == "lam":
        return Lam(draw(NAMES), draw(DOMAINS), sub())
    if kind == "app":
        return App(sub(), sub())
    inductive = draw(st.sampled_from(("nat", "list")))
    if kind == "ctor":
        return draw(ctor_terms(inductive, depth - 1))
    scrutinee = draw(st.one_of(
        st.sampled_from((Var(0), Var(1))), ctor_terms(inductive, depth - 1),
        open_terms(depth - 1)))
    names = [draw(NAMES) for _ in range(2)]
    arities = (0, 1) if inductive == "nat" else (0, 2)
    branches = tuple(Branch(tuple(names[:k]), sub()) for k in arities)
    return Match(scrutinee, inductive, draw(DOMAINS), branches)


def _outcome(normalizer, *args):
    """The repr of the result, or the error's class and message; and the
    fuel left when one is passed last."""
    try:
        out = repr(normalizer(*args))
    except FolbridgeError as e:
        out = (type(e).__name__, str(e))
    return out, args[-1].remaining if isinstance(args[-1], Fuel) else None


# The root is a redex only once its scrutinee is normal, and the branch it
# selects holds one below its root once its binder is replaced.
NESTED_SCRUTINEE = Match(
    Match(App(S, O), "nat", NAT, (Branch((), O), Branch(("p",), App(S, Var(0))))),
    "nat", NAT, (Branch((), O), Branch(("q",), App(S, Match(
        Var(0), "nat", NAT, (Branch((), IntLit(1)), Branch(("r",), IntLit(2))))))))


@given(open_terms())
@settings(deadline=None, max_examples=600, derandomize=True)
@example(NESTED_SCRUTINEE)
@example(App(Lam("x", INT, App(Var(0), Var(0))), Lam("y", INT, App(Var(0), Var(0)))))
@example(Lam("x", NAT, App(App(Const("add"), Const("two")), IntLit(1))))
@example(Match(make_app(CONS, [IntLit(1), NIL]), "list", TVar("A"),
               (Branch((), TVar("B")), Branch(("h", "t"), Lam("z", TVar("A"), Var(1))))))
def test_normalizers_match_reference(t):
    fuel = 300
    assert (_outcome(conversion._norm, ENV, t, Fuel(fuel))
            == _outcome(ref._norm, ENV, t, Fuel(fuel)))
    assert _outcome(beta_reduce, t, Fuel(fuel)) == _outcome(ref.beta_reduce, t, Fuel(fuel))
    assert _outcome(iota_reduce, ENV, t) == _outcome(ref.iota_reduce, ENV, t)
    assert (_outcome(replace_tvars, t, TVAR_TYPES)
            == _outcome(ref.replace_tvars, t, TVAR_TYPES))


def test_reference_examples_reduce():
    """The explicit examples take the paths they are there for: a root
    redex made by a child and a redex made by the root (iota), divergence (beta and full), delta with a
    builtin, and type-variable replacement."""
    assert iota_reduce(ENV, NESTED_SCRUTINEE) == App(S, IntLit(1))
    with pytest.raises(conversion.FuelExhausted):
        beta_reduce(App(Lam("x", INT, App(Var(0), Var(0))),
                        Lam("y", INT, App(Var(0), Var(0)))), Fuel(300))
    t = Lam("x", NAT, App(App(Const("add"), Const("two")), IntLit(1)))
    assert conversion.normalize(ENV, t) == Lam("x", NAT, IntLit(3))
    assert replace_tvars(App(TVar("A"), TVar("B")), TVAR_TYPES) == App(
        LIST_INT, TVAR_TYPES["B"])


def _peeling_match(depth: int, scrutinee: Term) -> Term:
    """`match v with O => O | S p => match p with ... end end`, depth
    matches deep, the innermost `S p` branch returning p: each match
    reduces only once the one around it has."""
    body: Term = Var(0)
    for _ in range(depth - 1):
        body = Match(Var(0), "nat", NAT, (Branch((), O), Branch(("p",), body)))
    return Match(scrutinee, "nat", NAT, (Branch((), O), Branch(("p",), body)))


def test_deep_nested_match_reduces_in_one_pass():
    """A 100-deep nested match over S^103 O: each reduction exposes the
    next match, which the root rewrite takes at once. The round-based
    reference needs 100 rounds and gives up after 64."""
    numeral = O
    for _ in range(103):
        numeral = App(S, numeral)
    t = _peeling_match(100, numeral)
    assert iota_reduce(ENV, t) == App(S, App(S, App(S, O)))
    with pytest.raises(TransformError, match="did not converge"):
        ref.iota_reduce(ENV, t)


def test_normal_terms_take_one_pass(monkeypatch):
    """On a term that is already beta- and iota-normal, beta_reduce and
    iota_reduce visit once each subterm whose class mask holds what they
    rewrite (a lambda, a match), and nothing else: one map_subterms call
    per such subterm, and no confirming second pass. Here that is the root
    lambda for beta_reduce, and the lambda and its match for iota_reduce."""
    t = Lam("l", LIST_INT, Match(
        Var(0), "list", NAT,
        (Branch((), O),
         Branch(("h", "t"), App(S, App(App(Var(3), Var(1)), Var(0)))))))
    calls = count_calls(monkeypatch, "map_subterms", terms, conversion, transforms)
    for reduce, bit, visited in ((beta_reduce, HAS_LAM, 1),
                                 (lambda t: iota_reduce(ENV, t), HAS_MATCH, 2)):
        calls.clear()
        assert reduce(t) is t
        assert len(calls) == sum(1 for s in subterms(t) if s._has & bit) == visited


@given(open_terms())
@settings(deadline=None, max_examples=300, derandomize=True)
@example(App(Const("add"), Var(0)))
@example(Lam("x", NAT, App(S, Var(0))))
@example(make_app(CONS, [Var(0), NIL]))
def test_nothing_to_rewrite_enters_no_kernel(t):
    """A normalizer returns a term whose class mask holds none of the
    classes its rewrite acts on as it is, before it enters normal_form; and
    whnf returns a term without a class it steps on before it reads a
    spine."""
    cases = (
        ("beta_reduce", lambda: beta_reduce(t), HAS_LAM),
        ("iota_reduce", lambda: iota_reduce(ENV, t), HAS_MATCH),
        ("replace_tvars", lambda: replace_tvars(t, TVAR_TYPES), HAS_TVAR),
        ("normalize", lambda: conversion.normalize(ENV, t), conversion._WHNF_HEADS),
        ("whnf", lambda: conversion.whnf(ENV, t, Fuel()), conversion._WHNF_HEADS),
    )
    with pytest.MonkeyPatch.context() as mp:
        entered = count_calls(mp, "normal_form", terms, conversion, transforms)
        spines = count_calls(mp, "spine", terms, conversion)
        for name, reduce, bit in cases:
            if not t._has & bit:
                assert reduce() is t, name
                assert entered == [] and spines == [], name


def test_full_normal_form_steps_on_constants():
    """A subterm that holds a constant is visited, though it holds no
    lambda, match or fixpoint: a bare defined constant is unfolded, and a
    builtin steps on literals."""
    normalize = conversion.normalize
    assert normalize(ENV, Const("two")) == IntLit(2)
    assert normalize(ENV, make_app(Const("add"), [IntLit(1), IntLit(2)])) == IntLit(3)
    assert normalize(ENV, Lam("x", NAT, Const("two"))) == Lam("x", NAT, IntLit(2))
