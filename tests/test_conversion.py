"""Typechecker, normalizer, evaluator, and their mutual agreement."""

from __future__ import annotations

import random
import re

import pytest

from folbridge.conversion import (
    DEFAULT_FUEL, EvalError, EvalUnsupported, Fuel, FuelExhausted, TypingError, Uninhabited,
    convertible, eval_ground, eval_prop, infer, min_term_size, normalize,
    random_ground_term, random_ground_type, random_truth_check, typecheck,
    value_to_term, whnf, VBuiltin, VCtor, VInt, VTRUE, VFALSE,
)
from conftest import POLY_PROBLEM, PRELUDE, UNFOLD_PROBLEM, count_calls
from folbridge import conversion
from folbridge.parser import parse_problem, parse_term
from folbridge.printer import print_term
from folbridge.transforms import iota_reduce
from folbridge.terms import (
    And, App, BOOL, BUILTIN_FUNCTIONS, Branch, Const, Ctor, Eq, Exists, FALSE, Fix,
    FolbridgeError, GlobalEnv, INT, Ind, IntLit, IntT, Lam, Match, Not, Pi, ScopeError,
    SortProp, SortType, TRUE, TYPE, Term, TrueP, Var, alpha_eq, ctor_arg_types, make_app,
    spine, subst,
)

NAT, O = Ind("nat"), Ctor("nat", 0)


class TestTypecheck:
    def test_bool_literal(self, env):
        assert typecheck(env, [], TRUE) == BOOL

    def test_hd_error_type(self, env):
        want = parse_term("forall (A : Type), list A -> option A", env)
        assert alpha_eq(typecheck(env, [], Const("hd_error")), want)

    def test_match_missing_branch_rejected(self, env):
        bad = Match(
            make_app(Ctor("list", 0), [IntT()]),
            "list", IntT(),
            (Branch((), IntLit(0)),),  # cons branch missing
        )
        with pytest.raises(TypingError):
            typecheck(env, [], bad)

    def test_ill_typed_application(self, env):
        with pytest.raises(TypingError):
            typecheck(env, [], App(Const("length"), IntLit(3)))

    def test_context_lookup_lifting(self, env):
        # In ctx [list Var0's element...]: Var(0) : list A where A = Var(1)
        ctx = [App(Ind("list"), Var(0)), TYPE]
        got = typecheck(env, ctx, Var(0))
        assert alpha_eq(got, App(Ind("list"), Var(1)))

    def test_eq_requires_same_type(self, env):
        with pytest.raises(TypingError):
            parse_term("true = 1", env)
        with pytest.raises(TypingError):
            typecheck(env, [], Eq(BOOL, TRUE, IntLit(1)))


NAT_TO_NAT = Pi("n", NAT, NAT)
NAT_BRANCHES = (Branch((), IntLit(0)), Branch(("n",), IntLit(1)))

# Ill-typed terms, each with the context it is typed in and a fragment of
# the message of the TypingError it raises.
ILL_TYPED = [
    ([], Lam("x", IntLit(1), IntLit(1)), "lambda domain is not a type"),
    ([Ind("list")], Match(Var(0), "list", INT, (Branch((), IntLit(0)),
                                                Branch(("x", "l"), IntLit(1)))),
     "list applied to wrong number of type arguments"),
    ([], Match(O, "nat", IntLit(1), NAT_BRANCHES), "match return annotation is not a type"),
    ([], Match(O, "nat", INT, (Branch((), IntLit(0)), Branch((), IntLit(1)))),
     "branch for S binds 0 arguments, constructor has 1"),
    ([], Match(O, "nat", INT, (Branch((), TRUE), NAT_BRANCHES[1])), "branch for O has type"),
    ([], Fix("f", 0, IntLit(1), IntLit(1)), "fixpoint type annotation is not a type"),
    ([], Fix("f", 1, NAT_TO_NAT, Lam("n", NAT, Var(0))), "decreasing index out of range"),
    ([], Fix("f", 0, Pi("n", INT, INT), Lam("n", INT, Var(0))),
     "decreasing argument is not of an inductive type"),
    ([], Fix("f", 0, NAT_TO_NAT, Lam("n", NAT, IntLit(0))),
     "fixpoint body type differs from its annotation"),
    ([], Eq(IntLit(1), IntLit(1), IntLit(1)), "equality annotation is not a type"),
    ([], And(IntLit(1), TrueP()), "connective applied to non-propositions"),
    ([], Not(IntLit(1)), "negation applied to a non-proposition"),
    ([], Exists("x", TrueP(), TrueP()), "existential domain is not a type"),
    ([], Exists("x", INT, IntLit(1)), "existential body is not a proposition"),
]


@pytest.mark.parametrize("ctx, term, message", ILL_TYPED)
def test_ill_typed_term_rejected(env, ctx, term, message):
    with pytest.raises(TypingError, match=message):
        typecheck(env, ctx, term)


def test_constructor_index_outside_its_declaration(env):
    """Each layer that reads a constructor index past its declaration's
    constructors raises ScopeError; a match that has no branch for its
    scrutinee's constructor raises EvalError when it is reduced."""
    bad = Ctor("nat", 7)
    for layer in (lambda: typecheck(env, [], bad), lambda: print_term(bad, env),
                  lambda: eval_ground(env, bad), lambda: ctor_arg_types(env, "nat", 7, [])):
        with pytest.raises(ScopeError, match="nat has no constructor 7"):
            layer()
    one_branch = Match(App(Ctor("nat", 1), O), "nat", INT, NAT_BRANCHES[:1])
    for reduce in (normalize, eval_ground):
        with pytest.raises(EvalError, match=r"no branch for Ctor\(inductive='nat', ctor_index=1\)"):
            reduce(env, one_branch)
    with pytest.raises(EvalError, match=r"no branch for Ctor\(inductive='nat', ctor_index=7\)"):
        normalize(env, Match(bad, "nat", INT, NAT_BRANCHES))


def test_iota_reduce_leaves_a_match_with_no_branch_stuck(env):
    one_branch = Match(App(Ctor("nat", 1), O), "nat", INT, NAT_BRANCHES[:1])
    assert iota_reduce(env, one_branch) is one_branch


def test_print_rejects_a_match_whose_branches_do_not_fit(env):
    three = Match(O, "nat", INT, NAT_BRANCHES + NAT_BRANCHES[:1])
    with pytest.raises(ScopeError, match="match on nat has 3 branches, nat has 2 constructors"):
        print_term(three, env)


NAT_PRELUDE = "data nat = O | S (nat).\n"


@pytest.mark.parametrize("definition, call", [
    ("def bad : nat -> nat = fix bad/0 (n : nat) : nat := S (bad n).", "bad n"),
    ("def bad2 : nat -> nat = fix bad2/0 (n : nat) : nat :="
     " match n return nat with | O => O | S p => bad2 (S p) end.", "bad2 (S p)"),
    ("def bad3 : nat -> nat = fix bad3/0 (n : nat) : nat :="
     " match n return nat with | O => O | S p => bad3 n end.", "bad3 n"),
    ("def bad4 : nat -> nat -> nat = fix bad4/1 (m : nat) (n : nat) : nat :="
     " match m return nat with | O => O | S p => bad4 n p end.", "bad4 n p"),
    ("def bad5 : nat -> nat = fix bad5/0 (n : nat) : nat :="
     " match n return nat with | O => O | S p => (fun (g : nat -> nat) => g p) bad5 end.",
     "bad5"),
])
def test_fixpoint_that_is_not_structural_is_rejected(definition, call):
    with pytest.raises(TypingError, match=f"fixpoint {call.split()[0]} is not structurally"
                                          f" recursive: {re.escape(call)}$"):
        parse_problem(NAT_PRELUDE + definition + "\ngoal true = true.\n")


@pytest.mark.parametrize("definition, call", [
    ("data list (A) = nil | cons (A) (list A).\n"
     "def bad : forall (A : Type), list A -> Int = fun (A : Type) =>"
     " fix bad/0 (l : list A) : Int := match l return Int with"
     " | nil => 0 | cons x l0 => bad (cons A x l0) end.", "bad (cons ?0 x l0)"),
    ("def bad6 : nat -> nat -> nat = fun (n : nat) => fix bad6/0 (m : nat) : nat := bad6 n.",
     "bad6 ?0"),
    ("def bad7 : nat -> nat -> nat = fun (n : nat) => fix bad7/0 (m : nat) : nat :="
     " match n return nat with | O => O | S p => bad7 p end.", "bad7 p"),
])
def test_fixpoint_calling_with_outer_variables_is_rejected(definition, call):
    """A rejected call that mentions a variable bound outside the fixpoint
    is reported like any other, the outer variable printed as a
    placeholder; a match on an outer variable makes nothing smaller."""
    with pytest.raises(TypingError, match=f"fixpoint {call.split()[0]} is not structurally"
                                          f" recursive: {re.escape(call)}$"):
        parse_problem(NAT_PRELUDE + definition + "\ngoal true = true.\n")


def test_structural_fixpoints_are_accepted(bench_driver):
    """A recursive call on a variable that a match on the decreasing
    binder bound, directly or through further matches, passes the guard:
    so does every definition of the benchmark's workloads and the test
    preludes."""
    ok = parse_problem(NAT_PRELUDE + (
        "def half : nat -> nat = fix half/0 (n : nat) : nat :="
        " match n return nat with | O => O | S p =>"
        " match p return nat with | O => O | S q => S (half q) end end.\n"
        "def monus : nat -> nat -> nat = fix monus/1 (m : nat) (n : nat) : nat :="
        " match n return nat with | O => m | S p =>"
        " match m return nat with | O => O | S k => monus k p end end.\n"
        "goal true = true.\n"))
    assert set(ok.env.definitions) == {"half", "monus"}
    _, workloads = bench_driver
    for w in workloads.GENERATORS:
        for index in range(3):
            assert parse_problem(workloads.problem(w, 0, index)[1]).env.definitions
    for text in (PRELUDE, SPINE_DEFS, POLY_PROBLEM, UNFOLD_PROBLEM):
        assert parse_problem(text).env.definitions


SPINE_DEFS = PRELUDE.replace("goal true = true.", """\
def k : forall (A : Type) (B : Type), A -> B -> A =
  fun (A : Type) (B : Type) (a : A) (b : B) => a.
def ap : forall (A : Type), (A -> A) -> A -> A =
  fun (A : Type) (g : A -> A) (a : A) => g a.
def Arrow : Type = Int -> Int.
def f : Arrow = fun (x : Int) => x.
goal true = true.""")


def one_at_a_time(env, t):
    """The type of an application spine, each application typed alone: the
    codomain is instantiated after every argument."""
    head, args = spine(t)
    ty = typecheck(env, [], head)
    for a in args:
        if not isinstance(ty, Pi):
            ty = whnf(env, ty, Fuel())
        assert convertible(env, typecheck(env, [], a), ty.domain)
        ty = subst(ty.codomain, 0, a)
    return ty


class TestSpineTyping:
    """A spine is typed in one loop that instantiates each domain and the
    final codomain once; types and error texts are those of typing one
    application at a time."""

    @pytest.fixture(scope="class")
    def spine_env(self):
        return parse_problem(SPINE_DEFS).env

    @pytest.mark.parametrize("text", [
        "k Int nat 1 O", "k (list Int) nat (nil Int)", "ap Int", "ap (list nat) (app nat (nil nat))",
        "f 3", "eqb (list Int) (nil Int)", "cons Int 1 (cons Int 2 (nil Int))",
        "k (Int -> Int) Bool f true 4",
    ])
    def test_types_match_one_at_a_time(self, spine_env, text):
        t = parse_term(text, spine_env)
        assert repr(typecheck(spine_env, [], t)) == repr(one_at_a_time(spine_env, t))

    @pytest.mark.parametrize("args, message", [
        ((INT, NAT, IntLit(1), TRUE),
         "argument type mismatch: expected Ind(inductive='nat'), found Ind(inductive='Bool')"),
        ((INT, NAT, O, O),
         "argument type mismatch: expected IntT(), found Ind(inductive='nat')"),
        ((INT, NAT, IntLit(1), O, IntLit(5)), "application head is not a function"),
    ])
    def test_error_text_deep_in_dependent_spine(self, spine_env, args, message):
        with pytest.raises(TypingError) as raised:
            typecheck(spine_env, [], make_app(Const("k"), list(args)))
        assert str(raised.value) == message

    def test_error_text_after_unfolding_the_head_type(self, spine_env):
        with pytest.raises(TypingError) as raised:
            typecheck(spine_env, [], App(Const("f"), TRUE))
        assert str(raised.value) == "argument type mismatch: expected IntT(), found Ind(inductive='Bool')"
        with pytest.raises(TypingError) as raised:
            typecheck(spine_env, [], make_app(Const("f"), [IntLit(1), IntLit(2)]))
        assert str(raised.value) == "application head is not a function"

    def test_error_text_names_the_instantiated_domain(self, spine_env):
        nil_nat = App(Ctor("list", 0), NAT)
        with pytest.raises(TypingError) as raised:
            typecheck(spine_env, [], make_app(Const("eqb"), [
                App(Ind("list"), INT), App(Ctor("list", 0), INT), nil_nat]))
        assert str(raised.value) == (
            "argument type mismatch: expected App(head=Ind(inductive='list'), arg=IntT()),"
            " found App(head=Ind(inductive='list'), arg=Ind(inductive='nat'))")


class TestClosedTypeTable:
    def test_alpha_equal_terms_keep_their_own_binder_names(self):
        env = parse_problem(PRELUDE).env
        first = parse_term("fun (x : Int) => x", env)
        second = parse_term("fun (y : Int) => y", env)
        assert first == second
        assert typecheck(env, [], first).binder == "x"
        assert typecheck(env, [], second).binder == "y"
        assert typecheck(env, [], first).binder == "x"

    def test_hit_consumes_no_fuel(self):
        env = parse_problem(SPINE_DEFS).env
        t = parse_term("k Int nat (f 3) O", env)  # unfolds Arrow
        env.memo.clear()
        fuel = Fuel()
        typecheck(env, [], t, fuel)
        assert fuel.remaining < DEFAULT_FUEL
        again = Fuel()
        typecheck(env, [], t, again)
        assert again.remaining == DEFAULT_FUEL

    def test_inductive_types_built_once(self):
        env = parse_problem(PRELUDE).env
        ty = typecheck(env, [], Ind("list"))
        assert ty == Pi("_", TYPE, TYPE)
        assert typecheck(env, [], Ind("list")) is ty

    def test_failures_are_not_stored(self):
        env = parse_problem(PRELUDE).env
        bad = App(Const("length"), IntLit(3))
        for _ in range(2):
            with pytest.raises(TypingError):
                typecheck(env, [], bad)


class TestClosedTypesAreShared:
    """A closed type needs no index rewrite: typing hands back the very
    object it was given, with no call into lift or subst_list. The terms
    are open, so the closed-type table answers none of them."""

    def test_variable_gets_its_closed_context_type(self, env, monkeypatch):
        lifts = count_calls(monkeypatch, "lift", conversion)
        list_a = App(Ind("list"), Var(1))  # x : list A, under (A : Type) (n : Int)
        ctx = [list_a, INT, TYPE]
        assert typecheck(env, ctx, Var(1)) is INT
        assert typecheck(env, ctx, Var(2)) is TYPE
        assert lifts == []
        assert typecheck(env, ctx, Var(0)) == App(Ind("list"), Var(2))
        assert len(lifts) == 1

    def test_spine_gets_its_closed_codomain(self, monkeypatch):
        env = parse_problem(PRELUDE).env
        substs = count_calls(monkeypatch, "subst_list", conversion)
        add = BUILTIN_FUNCTIONS["add"]
        assert typecheck(env, [INT], make_app(Const("add"), [Var(0), IntLit(1)])) is (
            add.codomain.codomain)
        assert substs == []
        # The open spine `length Int x` stops at its closed prefix
        # `length Int`, whose type `list Int -> Int` is instantiated once and
        # stored; the final codomain Int is not rewritten.
        length = env.definition("length").type
        prefix = App(Const("length"), INT)
        ctx = [App(Ind("list"), INT)]
        got = typecheck(env, ctx, App(prefix, Var(0)))
        assert got is length.codomain.codomain
        assert [args[0] for args in substs] == [length.codomain]
        # A second spine with the same closed head reads its type.
        assert typecheck(env, [INT] + ctx, App(prefix, Var(1))) is got
        assert len(substs) == 1

    def test_output_hypotheses_type_with_few_instantiations(self, monkeypatch, bench_driver):
        """Typing every output hypothesis of a poly_lemmas-style problem
        after preprocessing it, as the benchmark's check does: the closed
        heads its instances repeat, such as `length (list Int)`, are typed
        once per environment. The bound is a quarter of the 165 calls that
        typing each spine down to its head made."""
        driver, _ = bench_driver
        result = driver.preprocess(POLY_PROBLEM)
        substs = count_calls(monkeypatch, "subst_list", conversion)
        for h in result.state.hypotheses:
            assert type(typecheck(result.state.env, [], h.statement)) is SortProp
        assert len(result.state.hypotheses) == 41
        assert len(substs) <= 41


class TestNormalize:
    def test_length_computes(self, env):
        t = parse_term("length Int (cons Int 1 (cons Int 2 (nil Int)))", env)
        assert normalize(env, t) == IntLit(2)

    def test_nat_length_computes(self, env):
        t = parse_term("nlength Int (cons Int 7 (cons Int 9 (nil Int)))", env)
        want = parse_term("S (S O)", env)
        assert alpha_eq(normalize(env, t), want)

    def test_neutral_var(self, env):
        assert normalize(env, Var(0)) == Var(0)

    def test_guarded_fix_stuck_on_var(self, env):
        # (fix length ...) l with l a variable, given as it is or as a redex
        # that whnf reduces to it: the head must stay a fix
        for arg in ("l", "(fun (k : list A) => k) l"):
            raw = parse_term(f"length A ({arg})", env, bound=["l", "A"])
            ctx = [App(Ind("list"), Var(0)), TYPE]
            elab, _ = infer(env, ctx, raw)
            n = normalize(env, elab)
            # delta+beta expose the fix, but it must not unfold on a variable
            head, args = spine(n)
            assert isinstance(head, Fix)
            assert args == [Var(0)]  # bound=["l", "A"], so l is Var(0)

    @pytest.mark.parametrize("rhs, want", [
        ("cons Int 1 (nil Int)", True), ("cons Int 2 (nil Int)", False), ("nil Int", False)])
    def test_eqb_compares_constructor_values(self, env, rhs, want):
        t = parse_term(f"eqb (list Int) (cons Int 1 (nil Int)) ({rhs})", env)
        assert normalize(env, t) == (TRUE if want else FALSE)
        assert eval_ground(env, t) == (VTRUE if want else VFALSE)

    def test_idempotent(self, env):
        rng = random.Random(11)
        tys = [parse_term(s, env) for s in
               ["list Int", "nat", "Bool", "option (list Int)", "Int"]]
        for ty in tys:
            for seed in range(15):
                t = random_ground_term(env, ty, rng.randint(1, 10), seed)
                wrapped = App(App(Const("app"), IntT()), t) if False else t
                n1 = normalize(env, t)
                assert normalize(env, n1) == n1

    def test_subject_reduction_on_ground_corpus(self, env):
        exprs = [
            "length Int (app Int (cons Int 1 (nil Int)) (cons Int 2 (nil Int)))",
            "search Int 2 (cons Int 1 (cons Int 2 (nil Int)))",
            "hd_error Int (cons Int 5 (nil Int))",
            "(fun (x : Int) => x + 1) 4",
            "nlength Bool (cons Bool true (nil Bool))",
        ]
        for s in exprs:
            t = parse_term(s, env)
            ty = typecheck(env, [], t)
            n = normalize(env, t)
            assert alpha_eq(typecheck(env, [], n), ty), s

    def test_fuel_exhaustion_reported(self):
        # `fix bad/0 (n : nat) : nat := bad (S n)`, built directly: as a
        # definition it fails the guard check.
        env = parse_problem("data nat = O | S (nat).\ngoal true = true.\n").env
        bad = Fix("bad", 0, NAT_TO_NAT, Lam("n", NAT, App(Var(1), App(Ctor("nat", 1), Var(0)))))
        with pytest.raises(FuelExhausted):
            normalize(env, App(bad, O), Fuel(2000))


class TestConvertible:
    def test_hd_error_cons(self, env):
        # the per-pattern equation: hd_error A (cons A x l) ~ some A x
        # ctx[i] is expressed in the context above binder i.
        ctx_src = ["l", "x", "A"]
        ctx = [App(Ind("list"), Var(1)), Var(0), TYPE]
        lhs, _ = infer(env, ctx, parse_term("hd_error A (cons A x l)", env, bound=ctx_src))
        rhs, _ = infer(env, ctx, parse_term("some A x", env, bound=ctx_src))
        assert convertible(env, lhs, rhs)

    def test_reflexive(self, env):
        t = parse_term("cons Int 1 (nil Int)", env)
        assert convertible(env, t, t)

    def test_true_false_not_convertible(self, env):
        assert not convertible(env, TRUE, FALSE)

    def test_delta_beta(self, env):
        assert convertible(env, Const("two"), IntLit(2))


class TestEvalGround:
    def test_orb(self, env):
        assert eval_ground(env, parse_term("true || false", env)) == VTRUE

    def test_search_example(self, env):
        # hand-run of the searching recursion over [1, 2] for 2
        t = parse_term("search Int 2 (cons Int 1 (cons Int 2 (nil Int)))", env)
        assert eval_ground(env, t) == VTRUE
        t2 = parse_term("search Int 5 (cons Int 1 (cons Int 2 (nil Int)))", env)
        assert eval_ground(env, t2) == VFALSE

    def test_eqb(self, env):
        assert eval_ground(env, parse_term("eqb Int 3 4", env)) == VFALSE
        assert eval_ground(env, parse_term("eqb Int 4 4", env)) == VTRUE
        t = parse_term("eqb (list Int) (cons Int 1 (nil Int)) (cons Int 1 (nil Int))", env)
        assert eval_ground(env, t) == VTRUE

    def test_builtins_run_on_their_last_argument(self, env):
        """A builtin runs once it has one argument per leading product of
        its type (eqb takes the type first), and waits for more before: in
        the evaluator and in the normalizer."""
        args = {"add": "1 2", "sub": "1 2", "mul": "1 2", "le": "1 2", "lt": "1 2",
                "orb": "true false", "andb": "true false", "negb": "true",
                "eqb": "Int 1 2"}
        assert set(args) == set(BUILTIN_FUNCTIONS)
        for name, text in args.items():
            *first, _ = text.split()
            partial, full = (parse_term(s, env) for s in (" ".join([name, *first]),
                                                          f"{name} {text}"))
            assert type(eval_ground(env, partial)) is VBuiltin, name
            assert type(eval_ground(env, full)) in (VInt, VCtor)
            assert normalize(env, partial) == partial
            assert type(normalize(env, full)) in (IntLit, Ctor)

    def test_arith(self, env):
        assert eval_ground(env, parse_term("2 + 3 * 4", env)) == VInt(14)
        assert eval_ground(env, parse_term("(1 <= 2)", env)) == VTRUE

    def test_agrees_with_normalize(self, env):
        rng = random.Random(2)
        tys = [parse_term(s, env) for s in
               ["list Int", "nat", "Bool", "option (list Bool)", "list (list Int)"]]
        ground = []
        for ty in tys:
            for seed in range(10):
                ground.append(random_ground_term(env, ty, rng.randint(1, 9), seed))
        exprs = [parse_term(s, env) for s in [
            "length Int (cons Int 1 (nil Int))",
            "app Int (cons Int 1 (nil Int)) (nil Int)",
            "search Int 3 (cons Int 3 (nil Int))",
            "hd_error Bool (cons Bool false (nil Bool))",
            "nlength Int (app Int (cons Int 1 (nil Int)) (cons Int 2 (nil Int)))",
        ]]
        for t in ground + exprs:
            assert alpha_eq(value_to_term(eval_ground(env, t)),
                            normalize(env, t)), print_term(t, env)


class TestRandomGroundTerm:
    def test_bool_size_one(self, env):
        for seed in range(10):
            t = random_ground_term(env, BOOL, 1, seed)
            assert t in (TRUE, FALSE)

    def test_list_int_typechecks(self, env):
        ty = parse_term("list Int", env)
        for seed in range(25):
            t = random_ground_term(env, ty, 5, seed)
            assert alpha_eq(typecheck(env, [], t), ty)

    def test_determinism(self, env):
        ty = parse_term("list (option Int)", env)
        a = random_ground_term(env, ty, 9, 42)
        b = random_ground_term(env, ty, 9, 42)
        assert a == b

    def test_uninhabited(self):
        p = parse_problem("data void_like = mk (void_like).\ngoal true = true.")
        with pytest.raises(Uninhabited):
            random_ground_term(p.env, Ind("void_like"), 10, 0)

    def test_min_size(self, env):
        assert min_term_size(env, BOOL) == 1
        assert min_term_size(env, parse_term("list Int", env)) == 1  # nil
        assert min_term_size(env, parse_term("option Int", env)) == 1  # none

    def test_min_size_independent_of_query_order(self):
        # Sizing t first meets `pair t` while t is being sized, where the
        # cycle guard counts it as uninhabited; asked on its own it has size
        # 3 (mk leaf leaf).
        p = parse_problem("data pair (A) = mk (A) (A).\n"
                          "data t = leaf | br (pair t).\ngoal true = true.")
        pair_t = App(Ind("pair"), Ind("t"))
        assert min_term_size(p.env, Ind("t")) == 1
        assert min_term_size(p.env, pair_t) == 3
        assert random_ground_term(p.env, pair_t, 3, 0) == make_app(
            Ctor("pair", 0), [Ind("t"), Ctor("t", 0), Ctor("t", 0)])


ALIASES = "def T : Type = Int.\ndata box = B (T).\ngoal true = true."


class TestTypeAliases:
    """A type that mentions a definition is sized and sampled as its normal
    form: an alias of Int is inhabited, and so is data holding one."""

    def test_sized_as_normal_form(self):
        env = parse_problem(ALIASES).env
        assert min_term_size(env, Const("T")) == 1
        assert min_term_size(env, Ind("box")) == 2
        data = random_ground_term(env, Ind("box"), 2, 0)
        assert data.head == Ctor("box", 0) and type(data.arg) is IntLit

    @pytest.mark.parametrize("text", ["forall (b : box), b = B 0", "forall (x : T), x = 0"])
    def test_false_statements_get_counterexamples(self, text):
        env = parse_problem(ALIASES).env
        assert random_truth_check(env, parse_term(text, env)) is not None

    def test_functions_over_an_aliased_empty_domain_are_equal(self):
        env = parse_problem("data void_like = mk (void_like).\ndef V : Type = void_like.\n"
                            "goal true = true.").env
        stmt = parse_term("(fun (v : V) => 1) = (fun (v : V) => 2)", env)
        assert random_truth_check(env, stmt, samples=5) is None


class TestEvalProp:
    def test_connectives(self, env):
        assert eval_prop(env, parse_term("1 = 1 /\\ 2 = 2", env))
        assert not eval_prop(env, parse_term("1 = 1 /\\ 2 = 3", env))
        assert eval_prop(env, parse_term("1 = 2 \\/ 2 = 2", env))
        assert eval_prop(env, parse_term("~ (1 = 2)", env))
        assert eval_prop(env, parse_term("1 = 2 -> false_p", env))
        assert not eval_prop(env, parse_term("1 = 1 -> false_p", env))

    def test_function_equality_extensional(self, env):
        # hd_error = hd_error holds under random probing
        t = parse_term("hd_error = hd_error", env)
        assert eval_prop(env, t)

    def test_truth_check_finds_lies(self, env):
        lie = parse_term("forall (x : Int), x = x + 1", env)
        cex = random_truth_check(env, lie, samples=30, seed=1)
        assert cex is not None

    def test_truth_check_accepts_truths(self, env):
        truths = [
            "forall (x : Int) (l : list Int), search Int x (cons Int x l) = true",
            "forall (A : Type) (x : A), eqb A x x = true",
            "forall (l : list Int), length Int (cons Int 0 l) = 1 + length Int l",
            "forall (n : nat), S n <> O",
        ]
        for s in truths:
            stmt = parse_term(s, env)
            assert random_truth_check(env, stmt, samples=40, seed=3) is None, s

    def test_functions_over_an_empty_domain_are_equal(self):
        p = parse_problem("data void_like = mk (void_like).\ngoal true = true.")
        for text in ["(fun (v : void_like) => 1) = (fun (v : void_like) => 2)",
                     "forall (x : Int), (fun (v : void_like) => x) = (fun (v : void_like) => 0)",
                     "(fun (n : Int) (v : void_like) => n) = (fun (n : Int) (v : void_like) => 0)"]:
            stmt = parse_term(text, p.env)
            assert random_truth_check(p.env, stmt, samples=5) is None, text
        # Inhabited domains are still probed.
        for text in ["(fun (v : Bool) => 1) = (fun (v : Bool) => 2)",
                     "(fun (v : Int) => v) = (fun (v : Int) => 0)"]:
            differ = parse_term(text, p.env)
            assert random_truth_check(p.env, differ, samples=5) is not None, text

    def test_oracle_never_typechecks(self, monkeypatch, bench_driver):
        """Propositions are read off their shape: with typing made to fail,
        the oracle gives the verdicts it gives with typing, on a statement
        with an implication and on every output hypothesis of one benchmark
        problem per workload. A domain that names an unknown constant
        raises on every call."""
        from folbridge import conversion
        driver, workloads = bench_driver
        env = parse_problem(PRELUDE).env
        stmt = parse_term("forall (x : Int) (l : list Int) (n : nat), 1 = 1 -> "
                          "length Int (cons Int x l) = 1 + length Int l", env)
        cases = [(env, stmt)]
        for workload in ("ground_data", "poly_lemmas", "unfold_defs"):
            state = driver.preprocess(workloads.problem(workload, 0, 0)[1]).state
            cases += [(state.env, h.statement) for h in state.hypotheses]
        verdicts = [random_truth_check(e, s, samples=3) for e, s in cases]
        assert verdicts == [None] * len(cases)

        def no_typing(*args):
            raise AssertionError("the truth oracle typechecked")

        monkeypatch.setattr(conversion, "typecheck", no_typing)
        monkeypatch.setattr(conversion, "_infer", no_typing)
        assert [random_truth_check(e, s, samples=3) for e, s in cases] == verdicts
        bad = Pi("x", Const("nosuch"), Eq(INT, IntLit(1), IntLit(1)))
        for _ in range(2):
            with pytest.raises(FolbridgeError, match="nosuch"):
                random_truth_check(env, bad, samples=3)

    @pytest.mark.parametrize("text, message", [
        # No data is drawn for a function type: not vacuously true.
        ("forall (f : Int -> Int), f 0 = 1", "cannot generate a value of type Pi"),
        ("forall (x : Int), x = x -> forall (y : Int), y = x", "residual quantifier"),
    ])
    def test_statements_outside_the_fragment_raise(self, env, text, message):
        with pytest.raises(EvalUnsupported, match=message):
            random_truth_check(env, parse_term(text, env), samples=5)
