"""Typechecker, normalizer, evaluator, and their mutual agreement."""

from __future__ import annotations

import random

import pytest

from folbridge.conversion import (
    EvalError, Fuel, FuelExhausted, TypingError, Uninhabited, convertible,
    eval_ground, eval_prop, infer, min_term_size, normalize,
    random_ground_term, random_ground_type, random_truth_check, typecheck,
    value_to_term, VCtor, VInt, VTRUE, VFALSE,
)
from conftest import PRELUDE
from folbridge.parser import parse_problem, parse_term
from folbridge.printer import print_term
from folbridge.terms import (
    App, BOOL, Branch, Const, Ctor, Eq, FALSE, FolbridgeError, GlobalEnv, INT,
    Ind, IntLit, IntT, Lam, Match, Pi, SortProp, SortType, TRUE, TYPE, Term,
    Var, alpha_eq, make_app,
)


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


class TestNormalize:
    def test_length_computes(self, env):
        t = parse_term("length Int (cons Int 1 (cons Int 2 (nil Int)))", env)
        assert normalize(env, [], t) == IntLit(2)

    def test_nat_length_computes(self, env):
        t = parse_term("nlength Int (cons Int 7 (cons Int 9 (nil Int)))", env)
        want = parse_term("S (S O)", env)
        assert alpha_eq(normalize(env, [], t), want)

    def test_neutral_var(self, env):
        assert normalize(env, [], Var(0)) == Var(0)

    def test_guarded_fix_stuck_on_var(self, env):
        # (fix length ...) l with l a variable: the head must stay a fix
        raw = parse_term("length A l", env, bound=["l", "A"])
        ctx = [App(Ind("list"), Var(0)), TYPE]
        elab, _ = infer(env, ctx, raw)
        n = normalize(env, ctx, elab)
        # delta+beta expose the fix, but it must not unfold on a variable
        from folbridge.terms import spine
        head, args = spine(n)
        from folbridge.terms import Fix as FixNode
        assert isinstance(head, FixNode)
        assert args == [Var(0)]  # bound=["l", "A"], so l is Var(0)

    def test_idempotent(self, env):
        rng = random.Random(11)
        tys = [parse_term(s, env) for s in
               ["list Int", "nat", "Bool", "option (list Int)", "Int"]]
        for ty in tys:
            for seed in range(15):
                t = random_ground_term(env, ty, rng.randint(1, 10), seed)
                wrapped = App(App(Const("app"), IntT()), t) if False else t
                n1 = normalize(env, [], t)
                assert normalize(env, [], n1) == n1

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
            n = normalize(env, [], t)
            assert alpha_eq(typecheck(env, [], n), ty), s

    def test_fuel_exhaustion_reported(self):
        src = ("data nat = O | S (nat).\n"
               "def bad : nat -> nat =\n"
               "  fix bad/0 (n : nat) : nat := bad (S n).\n"
               "goal true = true.\n")
        p = parse_problem(src)
        t = parse_term("bad O", p.env)
        with pytest.raises(FuelExhausted):
            normalize(p.env, [], t, Fuel(2000))


class TestConvertible:
    def test_hd_error_cons(self, env):
        # the per-pattern equation: hd_error A (cons A x l) ~ some A x
        # ctx[i] is expressed in the context above binder i.
        ctx_src = ["l", "x", "A"]
        ctx = [App(Ind("list"), Var(1)), Var(0), TYPE]
        lhs, _ = infer(env, ctx, parse_term("hd_error A (cons A x l)", env, bound=ctx_src))
        rhs, _ = infer(env, ctx, parse_term("some A x", env, bound=ctx_src))
        assert convertible(env, ctx, lhs, rhs)

    def test_reflexive(self, env):
        t = parse_term("cons Int 1 (nil Int)", env)
        assert convertible(env, [], t, t)

    def test_true_false_not_convertible(self, env):
        assert not convertible(env, [], TRUE, FALSE)

    def test_delta_beta(self, env):
        assert convertible(env, [], Const("two"), IntLit(2))


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
                            normalize(env, [], t)), print_term(t, env)


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

    def test_domains_typechecked_once(self, monkeypatch):
        """The prenex domains and implication premises of a statement are
        typechecked once per environment, not once per sample; one whose
        typecheck raises raises on every sample."""
        from folbridge import conversion
        env = parse_problem(PRELUDE).env  # a memo no other test has filled
        checked = []
        original = conversion.typecheck

        def recording(env_, ctx, t, *rest):
            checked.append(t)
            return original(env_, ctx, t, *rest)

        stmt = parse_term("forall (x : Int) (l : list Int) (n : nat), 1 = 1 -> "
                          "length Int (cons Int x l) = 1 + length Int l", env)
        monkeypatch.setattr(conversion, "typecheck", recording)
        assert random_truth_check(env, stmt, samples=30) is None
        assert len(checked) == len(set(checked)) == 4
        bad = Pi("x", Const("nosuch"), Eq(INT, IntLit(1), IntLit(1)))
        for _ in range(2):
            with pytest.raises(FolbridgeError, match="nosuch"):
                random_truth_check(env, bad, samples=3)
