"""The truth oracle against its reference copy (tests/oracle_reference.py):
the same random data from the same draws, the same verdicts and
counterexamples, the same fuel, and values that eval_ground agrees with.

The intended differences: equal function values are equal without a
probe, where the reference probes them at random arguments (and gives up
beyond three nested arrows), which the tests at the end pin down; a
binder whose type is neither Int nor an inductive instance raises
EvalUnsupported, where the reference reads it as an empty domain
(test_conversion.py, `test_statements_outside_the_fragment_raise`); and
function values typed at a definition that unfolds to an arrow are
probed, where the reference raises EvalUnsupported. The types and
statements here have no such binder or equation."""

from __future__ import annotations

import random
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference as ref
from conftest import POLY_PROBLEM, PRELUDE, UNFOLD_PROBLEM
from folbridge import conversion, terms
from folbridge.conversion import (
    DEFAULT_FUEL, EvalError, EvalUnsupported, Fuel, FuelExhausted, VClosure, VCtor, VInt,
    eval_ground, random_ground_term, random_truth_check, typecheck,
)
from folbridge.parser import parse_problem, parse_term
from folbridge.terms import (
    INT, App, Const, Ctor, Eq, FolbridgeError, Ind, IntLit, Not, Pi, SortProp,
    SortType, TVar, make_app, make_pis, strip_pis, subst_list,
)
from folbridge.transforms import (
    ProofState, TransformError, eliminate_fix, eliminate_pattern_matching,
    expand, get_def, interp_alg_types,
)

EXTRA = """\
data tree = leaf | node (tree) (Int) (tree).
data void_like = mk (void_like).
def size : tree -> Int =
  fix size/0 (t : tree) : Int :=
    match t return Int with | leaf => 0 | node l _ r => size l + 1 + size r end.
def mirror : tree -> tree =
  fix mirror/0 (t : tree) : tree :=
    match t return tree with | leaf => leaf | node l x r => node (mirror r) x (mirror l) end.
"""

ENV = parse_problem(PRELUDE.replace("goal ", EXTRA + "goal ")).env

TYPES = [parse_term(s, ENV) for s in [
    "Int", "Bool", "nat", "tree", "option Int", "option (list Bool)", "list Int",
    "list (list Int)", "list (option nat)", "option (list (list Int))", "list tree",
    "void_like", "option void_like", "list void_like",
]]

# Statements over the prelude and the tree functions. The function
# equalities make _veq probe with random arguments, at type and object
# domains; the false ones have counterexamples.
HAND = [
    "hd_error = hd_error",
    "app Int = app Int",
    "length = length",
    "nlength (list Int) = nlength (list Int)",
    "size = fun (t : tree) => size (mirror t)",
    "mirror = fun (t : tree) => t",
    "length Int = fun (l : list Int) => 0",
    "app Bool = fun (l1 : list Bool) (l2 : list Bool) => app Bool l2 l1",
    "forall (l : list (list Int)), length (list Int) (app (list Int) l l) = 2 * length (list Int) l",
    "forall (t : tree), size (mirror t) = size t",
    "forall (t : tree) (x : Int), size (node t x leaf) = size t",
    "forall (A : Type) (x : A) (l : list A), search A x (cons A x l) = true",
    "forall (A : Type) (l : list A), app A l (nil A) = l",
    "forall (n : nat), n = O \\/ ~ (n = O)",
    "forall (x : Int) (y : Int), x <= y = true -> y <= x = true",
    "forall (v : void_like), length Int (nil Int) = 1",
    "forall (o : option void_like), o = none void_like",
    "forall (l : list Int), hd_error Int l = none Int",
    # Function equations whose arrow type is read off a type instance.
    "forall (A : Type) (l : list A), app A l = app A l",
    "forall (A : Type) (l : list A), app A l = fun (m : list A) => l",
    # Implications whose premise mentions object instances of type A.
    "forall (A : Type) (x : A) (l : list A), l = nil A -> search A x l = false",
    "forall (A : Type) (x : A) (l : list A), search A x (cons A x l) = true -> l = nil A",
]


def _corpus() -> list:
    """The hand statements, every hypothesis the unfolding transformations
    derive from the definitions, and statements over one and two rigid
    type TVars."""
    state = ProofState(ENV, [], parse_term("length Int (cons Int 1 (nil Int)) = 1", ENV))
    for c in ["hd_error", "length", "nlength", "app", "search", "two", "bnot",
              "size", "mirror"]:
        state.add(get_def(state, c))
    for fn in (expand, eliminate_fix, eliminate_pattern_matching):
        for h in list(state.hypotheses):
            try:
                out = fn(state, h.name)
            except TransformError:
                continue
            for new in out if isinstance(out, list) else [out]:
                if not state.has_alpha(new.statement):
                    state.add(new)
    for new in interp_alg_types(state):
        state.add(new)
    stmts = [parse_term(s, ENV) for s in HAND] + [h.statement for h in state.hypotheses]
    for text in ["forall (A : Type) (x : A) (l : list A), length A (cons A x l) = 1 + length A l",
                 "forall (A : Type) (B : Type) (x : A) (y : B), "
                 "length A (cons A x (nil A)) = length B (nil B)",
                 # B occurs first, in the head of the addition.
                 "forall (A : Type) (B : Type), length B (nil B) + length A (nil A) = 1"]:
        poly = parse_term(text, ENV)
        names = []
        while isinstance(poly, Pi) and isinstance(poly.domain, SortType):
            names.append(poly.binder)
            poly = poly.codomain
        # The leading type binders become rigid TVars, innermost first.
        stmts.append(subst_list(poly, [TVar(n) for n in reversed(names)]))
    return stmts


def _variants(stmts: list) -> list:
    """Each statement, the negation of its body under its prenex prefix,
    and each equation with its right-hand side taken from another equation
    whose binder prefix and type fit (kept when it typechecks)."""
    out = list(stmts)
    eqs = []
    for s in stmts:
        binders, body = strip_pis(s)
        out.append(make_pis(binders, Not(body)))
        if isinstance(body, Eq):
            eqs.append((binders, body))
    for i, (binders, body) in enumerate(eqs):
        for other_binders, other in eqs[i + 1:] + eqs[:i]:
            if len(other_binders) != len(binders) or other.rhs == body.rhs:
                continue
            cand = make_pis(binders, Eq(body.at_type, body.lhs, other.rhs))
            try:
                if isinstance(typecheck(ENV, [], cand), SortProp):
                    out.append(cand)
                    break
            except FolbridgeError:
                continue
    return out


STATEMENTS = _variants(_corpus())


def _outcome(fn, *args):
    """fn's result, or the class of the error it raises."""
    try:
        return fn(*args)
    except FolbridgeError as e:
        return type(e)


def test_corpus_is_varied():
    assert len(STATEMENTS) >= 120
    cex = [random_truth_check(ENV, s, samples=3, seed=0) for s in STATEMENTS[:40]]
    assert any(c is None for c in cex) and any(c is not None for c in cex)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES), st.integers(0, 14), st.integers(0, 10**6))
def test_random_ground_term_matches_reference(ty, size, seed):
    assert (_outcome(random_ground_term, ENV, ty, size, seed)
            == _outcome(ref._random_value_term, ENV, ty, size, random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES), st.integers(0, 14), st.integers(0, 10**6))
def test_datum_draws_like_reference_and_evaluates_to_its_value(ty, size, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _outcome(conversion._random_datum, ENV, ty, size, rng)
    want = _outcome(ref._random_value_term, ENV, ty, size, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    if isinstance(want, type):
        assert got is want
        return
    term, value = got
    assert term == want
    assert eval_ground(ENV, term) == value


def test_type_alias_arguments_evaluate_like_eval_ground():
    env = parse_problem(PRELUDE.replace("goal ", "def L : Type = list Int.\ngoal ")).env
    ty = parse_term("option L", env)
    for seed in range(20):
        term, value = conversion._random_datum(env, ty, 4, random.Random(seed))
        assert eval_ground(env, term) == value


def test_functions_typed_at_an_arrow_alias_are_compared():
    """An equation between function values typed at a definition that
    unfolds to an arrow probes them at the arrow's domain."""
    aliases = ("def F : Type = Int -> Int.\n"
               "def g : F = fun (x : Int) => x.\n"
               "def h : F = fun (x : Int) => x + 1.\ngoal ")
    env = parse_problem(PRELUDE.replace("goal ", aliases)).env
    assert random_truth_check(env, parse_term("g = h", env)) is not None
    assert random_truth_check(env, parse_term("g = g", env)) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2))
def test_random_ground_type_matches_reference(seed, depth):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert (conversion.random_ground_type(ENV, rng, depth)
            == ref.random_ground_type(ENV, ref_rng, depth))
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_truth_check_matches_reference(seed, samples):
    """Same verdict and the same counterexample instance on every statement.
    All run in the one ENV, so a statement whose key an earlier statement
    (or an earlier case) filled takes its first sample from the draw memo."""
    found = 0
    for stmt in STATEMENTS:
        got = _outcome(random_truth_check, ENV, stmt, samples, 6, seed)
        want = _outcome(ref.random_truth_check, ENV, stmt, samples, 6, seed)
        if isinstance(want, type) or want is None:
            assert got == want, stmt
            continue
        found += 1
        assert got is not None and got.instance == want.instance, stmt
        assert got.statement is stmt
    assert found >= 30


@pytest.mark.parametrize("samples", [1, 2])
@settings(max_examples=30, deadline=None)
@given(st.sampled_from(STATEMENTS), st.integers(0, 10**6), st.integers(1, 8))
def test_truth_check_matches_reference_at_random_seeds(samples, stmt, seed, size):
    got = _outcome(random_truth_check, ENV, stmt, samples, size, seed)
    want = _outcome(ref.random_truth_check, ENV, stmt, samples, size, seed)
    if isinstance(want, type) or want is None:
        assert got == want
    else:
        assert got.instance == want.instance


def test_passing_sample_instantiates_nothing(monkeypatch):
    """The instances of a true prenex statement are bound as values: the
    binder domains are instantiated to draw from, the body never is."""
    stmt = parse_term(
        "forall (A : Type) (x : A) (l : list A), search A x (cons A x l) = true", ENV)
    binders, _ = strip_pis(stmt)
    domains = [dom for _, dom in binders]
    substituted = []
    original = conversion.subst_list

    def recording(t, values):
        substituted.append(t)
        return original(t, values)

    monkeypatch.setattr(conversion, "subst_list", recording)
    assert random_truth_check(ENV, stmt, samples=20, seed=0) is None
    assert substituted
    assert all(any(t is dom for dom in domains) for t in substituted)


def _lit(n: int) -> str:
    return "".join(f"cons Int {i} (" for i in range(n)) + "nil Int" + ")" * n


PROGRAM = f"length Int (app Int ({_lit(30)}) ({_lit(30)}))"


def test_fuel_matches_reference():
    """The same value and fuel as the reference, with the closed-value
    table cold (a fresh environment) and warm (the second evaluation, and
    every budget after it, read PROGRAM's value and step count from it)."""
    env = parse_problem(PRELUDE).env
    t = parse_term(PROGRAM, env)
    for _ in range(2):
        fuel, ref_fuel = Fuel(), Fuel()
        assert eval_ground(env, t, fuel) == ref._eval(env, t, (), ref_fuel)
        assert fuel.remaining == ref_fuel.remaining
    used = DEFAULT_FUEL - fuel.remaining
    assert used > 1000
    for budget in (used, used - 1, used // 2, 1, 0):
        runs = []
        for fn in (lambda f: eval_ground(env, t, f), lambda f: ref._eval(env, t, (), f)):
            f = Fuel(budget)
            try:
                fn(f)
                runs.append(("done", f.remaining))
            except FuelExhausted:
                runs.append(("exhausted", f.remaining))
        assert runs[0] == runs[1], budget
        assert runs[0][0] == ("done" if budget == used else "exhausted"), budget


def test_closed_subterm_holding_a_fun_is_not_read_from_the_table():
    """A closed application that holds a `fun` is evaluated anew each time:
    its closure captures the value environment, so two evaluations give
    equal values, not one stored value. One without a `fun` or a `fix` is
    stored, and is read back."""
    env = parse_problem(PRELUDE).env
    with_fun = parse_term("(fun (x : Int) (y : Int) => x) 1", env)
    plain = parse_term("app Int (cons Int 1 (nil Int))", env)
    first, second = eval_ground(env, with_fun), eval_ground(env, with_fun)
    assert type(first) is VClosure and first == second and first is not second
    assert eval_ground(env, plain) is eval_ground(env, plain)
    table = env.memo[conversion._CLOSED_VALUES]
    assert id(plain) in table and id(with_fun) not in table
    assert not any(term._has & (terms.HAS_LAM | terms.HAS_FIX) for term, _, _ in table.values())


@pytest.mark.parametrize("problem", [POLY_PROBLEM, UNFOLD_PROBLEM], ids=["poly", "unfold"])
def test_output_hypotheses_check_like_reference_twice(problem, bench_driver):
    """Every output hypothesis of a preprocessed problem, and the negation
    of its body under its prenex binders, checked twice in the problem's
    environment (the closed-value table cold, then warm): each run gives the
    reference's verdict and counterexample."""
    driver, _ = bench_driver
    result = driver.preprocess(problem)
    env = result.state.env
    refuted = 0
    for h in result.state.hypotheses:
        binders, body = strip_pis(h.statement)
        for stmt in (h.statement, make_pis(binders, Not(body))):
            want = _outcome(ref.random_truth_check, env, stmt, 2, 6, 0)
            for _ in range(2):
                got = _outcome(random_truth_check, env, stmt, 2, 6, 0)
                if isinstance(want, type) or want is None:
                    assert got == want, h.name
                else:
                    assert got is not None and got.instance == want.instance, h.name
            refuted += want is not None
    assert refuted >= len(result.state.hypotheses)


def test_constructor_tables_built_once_per_type(monkeypatch):
    """Sizes are looked up while a type's table is built, not per draw."""
    env = parse_problem(PRELUDE).env
    calls = []
    original = conversion.min_term_size

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(conversion, "min_term_size", counting)
    ty = parse_term("list (list Int)", env)
    random_ground_term(env, ty, 12, 0)
    first = len(calls)
    for seed in range(1, 20):
        random_ground_term(env, ty, 12, seed)
    assert 0 < first == len(calls)


# ---------------------------------------------------------------------------
# Equal function values are equal without a probe
# ---------------------------------------------------------------------------

def _definition_statement(env, name: str):
    """The get_def hypothesis `name = body`."""
    state = ProofState(env, [], parse_term("true = true", env))
    return get_def(state, name).statement


def _count_draws(monkeypatch) -> list[tuple[str, type]]:
    """The random generators called from now on, one entry per call: the
    function's name and the class of the generator it was given."""
    calls: list[tuple[str, type]] = []
    # The position of each function's generator argument.
    for name, at in (("_random_datum", 3), ("random_ground_type", 1)):
        original = getattr(conversion, name)

        def counting(*args, _name=name, _original=original, _at=at):
            calls.append((_name, type(args[_at])))
            return _original(*args)

        monkeypatch.setattr(conversion, name, counting)
    return calls


def test_definition_hypotheses_are_decided_without_probes(monkeypatch):
    """`c = body` compares two equal closures: true, with no random
    argument drawn, as Coq's `reflexivity` proves it."""
    draws = _count_draws(monkeypatch)
    assert len(ENV.definitions) == 9
    for name in ENV.definitions:
        assert random_truth_check(ENV, _definition_statement(ENV, name)) is None, name
    assert draws == []


@pytest.mark.parametrize("text, probes", [
    ("length = fun (A : Type) => fix length/0 (l : list A) : Int :="
     " match l return Int with | nil => 0 | cons _ l' => 2 + length l' end", True),
    ("app = fun (A : Type) (l1 : list A) (l2 : list A) => app A l2 l1", True),
    ("bnot = fun (b : Bool) => b", True),
    ("size = fix size/0 (t : tree) : Int :="
     " match t return Int with | leaf => 0 | node l _ r => size l + size r end", True),
    ("two = 3", False),
])
def test_corrupted_definitions_are_still_refuted(monkeypatch, text, probes):
    """A wrong definition hypothesis compares closures that differ, so it
    is probed as before and refuted."""
    draws = _count_draws(monkeypatch)
    assert random_truth_check(ENV, parse_term(text, ENV), samples=3) is not None
    assert bool(draws) == probes


def test_equal_closures_beyond_probe_depth_diverge_from_reference():
    """The one intended divergence from the reference: a definition of four
    arguments nests function comparisons deeper than the reference probes,
    so it gives up; its closures are equal, so the oracle decides it."""
    env = parse_problem(PRELUDE.replace("goal ", (
        "def f4 : Int -> Int -> Int -> Int -> Int =\n"
        "  fun (a : Int) (b : Int) (c : Int) (d : Int) => a + b * c - d.\ngoal "))).env
    stmt = _definition_statement(env, "f4")
    with pytest.raises(EvalUnsupported, match="function comparison nesting too deep"):
        ref.random_truth_check(env, stmt, 3, 6, 0)
    assert random_truth_check(env, stmt, 3, 6, 0) is None


def _list_value(n: int, last: int = 0) -> VCtor:
    """The value of a list Int of n elements, last first, built directly
    as values (no term evaluated) and sharing no node with another call's."""
    v = VCtor("list", 0, (INT,), ())
    for i in range(n):
        v = VCtor("list", 1, (INT,), (VInt(last if i == 0 else i), v))
    return v


def test_function_value_comparison_adds_no_recursion():
    """Two closures and two partial fixpoint applications, each capturing
    its own 2 000-element list: compared equal, and told apart by the
    innermost element, with no RecursionError."""
    app_int = eval_ground(ENV, parse_term("app Int", ENV))
    lam = parse_term("fun (x : Int) => x", ENV)
    at_type = parse_term("list Int -> list Int", ENV)
    pairs = [
        (VClosure((_list_value(2000),), lam), VClosure((_list_value(2000),), lam),
         VClosure((_list_value(2000, last=1),), lam)),
        (conversion._apply(ENV, app_int, _list_value(2000), Fuel()),
         conversion._apply(ENV, app_int, _list_value(2000), Fuel()),
         conversion._apply(ENV, app_int, _list_value(2000, last=1), Fuel())),
    ]
    for a, b, other in pairs:
        assert conversion._same_value(a, b) and a == b
        assert not conversion._same_value(a, other) and a != other
    a, b, _ = pairs[1]
    rng = random.Random(0)
    state = rng.getstate()
    assert conversion._veq(ENV, a, b, at_type, rng, Fuel())
    assert rng.getstate() == state


def _app_self_equation(n: int):
    """`app Int L = app Int L` for a literal L of n elements."""
    lit = App(Ctor("list", 0), INT)
    for i in range(n):
        lit = make_app(Ctor("list", 1), [INT, IntLit(i), lit])
    side = make_app(Const("app"), [INT, lit])
    list_int = App(Ind("list"), INT)
    return Eq(Pi("_", list_int, list_int), side, side)


def test_app_self_equation_fails_first_where_evaluation_does():
    """Binary search for the shortest literal on which the oracle raises
    RecursionError, in a fresh thread so that the test runner's own frames
    do not count. Probing each side on random lists failed from 248
    elements; comparing the two function values recursively, from 247;
    the comparison now adds no depth, so only evaluating the literal fails."""
    def fails(n: int) -> bool:
        try:
            random_truth_check(ENV, _app_self_equation(n), samples=1)
        except RecursionError:
            return True
        return False

    def first_failing(out: list) -> None:
        lo, hi = 1, 4000
        assert fails(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if fails(mid):
                hi = mid
            else:
                lo = mid + 1
        out.append(lo)

    out: list[int] = []
    thread = threading.Thread(target=first_failing, args=(out,))
    thread.start()
    thread.join()
    assert out and out[0] >= 248


def _eqb(a, b):
    """The builtin eqb run on two values at some type."""
    return conversion._run_builtin(ENV, "eqb", (None, a, b), Fuel())


def test_data_comparison_adds_no_recursion():
    """`_veq` and eqb compare 2 000-element list values, built directly:
    equal lists are equal, and a difference in the innermost element is
    found, with no RecursionError."""
    a, b, other = _list_value(2000), _list_value(2000), _list_value(2000, last=1)
    list_int = parse_term("list Int", ENV)
    rng = random.Random(0)
    assert conversion._veq(ENV, a, b, list_int, rng, Fuel())
    assert not conversion._veq(ENV, a, other, list_int, rng, Fuel())
    assert _eqb(a, b) is conversion.VTRUE
    assert _eqb(a, other) is conversion.VFALSE


def test_nested_function_values_compare_as_before():
    """A list of closures: `_veq` compares equal elements without a probe
    and gives up on unequal ones, having no arrow type; eqb rejects both.
    Data of two kinds differ."""
    def closures(*bodies):
        v = VCtor("list", 0, (INT,), ())
        for body in bodies:
            v = VCtor("list", 1, (INT,), (VClosure((), parse_term(body, ENV)), v))
        return v

    same = [closures("fun (x : Int) => x", "fun (x : Int) => 1") for _ in range(2)]
    differ = closures("fun (x : Int) => x", "fun (x : Int) => 2")
    rng = random.Random(0)
    assert conversion._veq(ENV, *same, None, rng, Fuel())
    with pytest.raises(EvalUnsupported, match="without an arrow type"):
        conversion._veq(ENV, same[0], differ, None, rng, Fuel())
    with pytest.raises(EvalError, match="non-data values"):
        _eqb(*same)
    assert not conversion._veq(ENV, VInt(1), VCtor("nat", 0, (), ()), None, rng, Fuel())
    # Pairs are taken head first, as the recursive comparison took them: the
    # closures are met before the unequal tails.
    first, second = (VCtor("list", 1, (INT,), (c.args[0], _list_value(1, last)))
                     for c, last in ((same[0], 1), (differ, 2)))
    with pytest.raises(EvalUnsupported):
        conversion._veq(ENV, first, second, None, rng, Fuel())
    with pytest.raises(EvalError):
        _eqb(first, second)
    with pytest.raises(EvalError, match="non-data values"):
        _eqb(VInt(1), VCtor("nat", 0, (), ()))


def _count_eval_prop(monkeypatch) -> list[int]:
    calls = [0]
    original = conversion._eval_prop

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(conversion, "_eval_prop", counting)
    return calls


def test_statement_without_binders_or_draws_is_evaluated_once(monkeypatch):
    """`app = body` has no prenex binder and no type variable, and
    comparing its two equal closures draws nothing: every sample would
    repeat the first, so one is evaluated."""
    calls = _count_eval_prop(monkeypatch)
    assert random_truth_check(ENV, _definition_statement(ENV, "app"), samples=50) is None
    assert calls[0] == 1


@pytest.mark.parametrize("text", [
    # No binder, but the sides differ and are probed at random arguments.
    "(fun (x : Int) => x + 0) = (fun (x : Int) => x)",
    # Nothing is drawn while evaluating, but each sample instantiates A.
    "forall (A : Type), length A (nil A) = 0",
])
def test_statements_that_vary_are_sampled_in_full(monkeypatch, text):
    stmt = parse_term(text, ENV)
    if isinstance(stmt, Pi):
        stmt = subst_list(stmt.codomain, [TVar(stmt.binder)])
    calls = _count_eval_prop(monkeypatch)
    assert random_truth_check(ENV, stmt, samples=50) is None
    assert calls[0] == 50


def test_statement_without_type_variable_is_not_walked(monkeypatch):
    """The oracle looks for type variables through the class mask: on a
    statement that holds none, it calls `children` on no subterm. One that
    holds one is walked."""
    calls = []
    real = terms.children
    for module in (terms, conversion):
        monkeypatch.setattr(module, "children", lambda t: calls.append(t) or real(t))
    stmt = parse_term("forall (A : Type) (l : list A), app A l (nil A) = l", ENV)
    assert random_truth_check(ENV, stmt, samples=5) is None
    assert random_truth_check(ENV, _definition_statement(ENV, "length"), samples=5) is None
    assert calls == []
    stmt = parse_term("forall (A : Type), length A (nil A) = 0", ENV)
    assert random_truth_check(ENV, subst_list(stmt.codomain, [TVar("A")]), samples=5) is None
    assert calls


# ---------------------------------------------------------------------------
# The draw memo: a first sample's instances drawn once per environment
# ---------------------------------------------------------------------------

def test_declaration_after_a_check_changes_the_draws():
    """random_ground_type reads every declared inductive, so an inductive
    declared after a check changes the first sample's draws: the check
    after it draws as a fresh environment with the same declarations
    does, not as the memo entry the first check left."""
    data = "data color = red | green | blue.\ngoal "
    text = "forall (A : Type) (x : A) (y : A), x = y"
    env = parse_problem(PRELUDE).env
    stmt = parse_term(text, env)
    before = random_truth_check(env, stmt, samples=1)
    fresh_env = parse_problem(PRELUDE.replace("goal ", data)).env
    env.declare_inductive(fresh_env.inductives["color"])
    after = random_truth_check(env, stmt, samples=1)
    fresh = random_truth_check(fresh_env, parse_term(text, fresh_env), samples=1)
    want = ref.random_truth_check(fresh_env, stmt, 1, 6, 0)
    assert before is not None and after is not None
    assert after.instance == fresh.instance == want.instance
    # The instance is an equation at the drawn type A, which differs.
    assert before.instance.at_type != after.instance.at_type


@pytest.mark.parametrize("text", [
    "forall (n : Int), (fun (x : Int) => x + n) = (fun (x : Int) => n + x)",
    # Refuted or not by the probes, so a wrong generator state shows.
    "forall (n : Int), (fun (x : Int) => x <= n + 15) = (fun (x : Int) => true)",
])
def test_probes_and_later_samples_replay_the_memo_draws(monkeypatch, text):
    """A check that takes its first sample from the memo and then probes two
    function values that differ, or goes on to a second sample, seeds a
    generator and replays the first sample's draws: the same probes and the
    same later samples as the reference. No generator stand-in reaches a
    generator function or a caller."""
    env = parse_problem(PRELUDE).env
    stmt = parse_term(text, env)
    draws = _count_draws(monkeypatch)
    for seed in range(10):
        for samples in (1, 1, 3):
            got = random_truth_check(env, stmt, samples, 6, seed)
            want = ref.random_truth_check(env, stmt, samples, 6, seed)
            assert (got is None) == (want is None), (seed, samples)
            if got is not None:
                assert got.instance == want.instance and got.statement is stmt
    assert draws and {cls for _, cls in draws} == {random.Random}


def test_eval_prop_without_a_generator_seeds_zero(monkeypatch):
    """The public eval_prop still builds `Random(0)` when given no generator."""
    states = []
    original = conversion._veq

    def recording(env, a, b, at_type, rng, *rest, **kw):
        states.append((type(rng), rng.getstate()))
        monkeypatch.setattr(conversion, "_veq", original)  # the outermost call only
        return original(env, a, b, at_type, rng, *rest, **kw)

    monkeypatch.setattr(conversion, "_veq", recording)
    assert conversion.eval_prop(
        ENV, parse_term("(fun (x : Int) => x) = (fun (x : Int) => x + 0)", ENV))
    assert states == [(random.Random, random.Random(0).getstate())]


def test_alpha_equal_prenex_domains_draw_nothing_the_second_time(monkeypatch):
    """After one check, a one-sample check of another statement whose
    prenex domains are alpha-equal takes its instances from the memo: no
    random data, no random type and no generator."""
    env = parse_problem(PRELUDE).env
    first = parse_term("forall (A : Type) (l : list A), app A l (nil A) = l", env)
    second = parse_term("forall (B : Type) (m : list B), length B m = length B m", env)
    assert random_truth_check(env, first, samples=1) is None
    draws = _count_draws(monkeypatch)
    made = []

    class Counting(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(conversion, "random", types.SimpleNamespace(Random=Counting))
    assert random_truth_check(env, second, samples=1) is None
    assert draws == [] and made == []
