"""The six transformations against the worked examples and random truth."""

from __future__ import annotations

import gc

import pytest

from folbridge import terms, transforms
from folbridge.conversion import random_truth_check, typecheck
import axioms_reference
from conftest import PRELUDE, count_calls
from folbridge.parser import PrenexError, check_prenex, parse_problem, parse_term
from folbridge.printer import print_term
from folbridge.terms import (
    And, App, BOOL, Const, Ctor, Eq, Exists, INT, Ind, IntT, Not, Or, Pi,
    SortProp, TYPE, TVar, Term, TrueP, Var, alpha_eq, has_interior_type_binder,
    make_app, spine, strip_pis, subterms, well_scoped,
)
from folbridge.transforms import (
    AlreadyPresent, ByCaseConversion, ByConversion, ByDefinition,
    ByInstantiation, DatatypeAxiom, Given, Hypothesis, NoFixpointFound,
    NoMatchOnBoundVar, NotAnEquation, ProofState, TransformError, UnknownConstant,
    collect_type_instances, eliminate_fix, eliminate_pattern_matching,
    expand, get_def, interp_alg_types, monomorphize,
)


def mk_state(env, goal_text: str, hyps: list[tuple[str, str]] | None = None) -> ProofState:
    state = ProofState(env, [], parse_term(goal_text, env))
    for name, text in (hyps or []):
        state.add(Hypothesis(name, parse_term(text, env), Given()))
    return state


def stmts_truthy(env, hyps, samples=40):
    for h in hyps:
        cex = random_truth_check(env, h.statement, samples=samples, seed=7)
        assert cex is None, (h.name, print_term(h.statement, env),
                            cex and print_term(cex.instance, env))


def true_and_reparsed(env, hyps):
    """Each statement is true under the oracle and prints to text that
    parses back to an equal term."""
    stmts_truthy(env, hyps)
    for h in hyps:
        text = print_term(h.statement, env)
        assert parse_term(text, env) == h.statement, (h.name, text)


def alias_state(defs: str) -> ProofState:
    """A prelude state with the given declarations added, each `hyp` of
    them a Given hypothesis."""
    problem = parse_problem(PRELUDE.replace("goal true = true.", defs + "\ngoal true = true."))
    return ProofState(problem.env, [Hypothesis(n, t, Given()) for n, t in problem.hypotheses],
                      problem.goal)


class TestGetDef:
    def test_hd_error_def(self, env):
        state = mk_state(env, "true = true")
        h = get_def(state, "hd_error")
        want = parse_term(
            "fun (A : Type) (l : list A) => match l return option A with"
            " | nil => none A | cons x _ => some A x end", env)
        assert h.name == "hd_error_def"
        assert isinstance(h.statement, Eq)
        assert h.statement.lhs == Const("hd_error")
        assert alpha_eq(h.statement.rhs, want)
        assert h.justification == ByDefinition("hd_error")

    def test_two_def(self, env):
        state = mk_state(env, "true = true")
        h = get_def(state, "two")
        assert alpha_eq(h.statement, parse_term("two = 2", env))

    def test_search_def_is_fix(self, env):
        state = mk_state(env, "true = true")
        h = get_def(state, "search")
        from folbridge.terms import Fix, Lam
        body = h.statement.rhs
        assert isinstance(body, Lam)  # fun (A : Type) =>
        assert isinstance(body.body, Fix)

    def test_unknown_constant(self, env):
        with pytest.raises(UnknownConstant):
            get_def(mk_state(env, "true = true"), "nope")

    def test_already_present(self, env):
        state = mk_state(env, "true = true")
        state.add(get_def(state, "two"))
        with pytest.raises(AlreadyPresent):
            get_def(state, "two")


class TestArrowSplit:
    """`expand` reads the equation's type as a telescope, through aliases."""

    def test_zero_arrows(self):
        state = alias_state("def Z : Type = Int.\ndef z : Z = 2.")
        state.add(get_def(state, "z"))
        assert expand(state, "z_def").statement is state.hypotheses[-1].statement

    def test_hd_error_type(self, env):
        state = _expanded(env, "hd_error")
        binders, eq = strip_pis(state.hypotheses[-1].statement)
        assert [d for _, d in binders] == [TYPE, App(Ind("list"), Var(0))]
        # codomain under both binders: the type parameter is index 1
        assert eq.at_type == App(Ind("option"), Var(1))

    def test_int_int_bool(self, env):
        state = mk_state(env, "true = true", [(
            "h", "(fun (x : Int) (y : Int) => eqb Int x y) = fun (a : Int) (b : Int) => eqb Int b a")])
        stmt = expand(state, "h").statement
        binders, eq = strip_pis(stmt)
        assert [d for _, d in binders] == [INT, INT]
        assert eq.at_type == BOOL
        assert stmt == parse_term("forall (x : Int) (y : Int), eqb Int x y = eqb Int y x", env)

    def test_arrow_alias(self):
        """An arrow type written as an alias is split like the arrow, so the
        match under it is eliminated."""
        state = alias_state(
            "def P : Type = nat -> nat.\n"
            "def pred : P = fun (n : nat) => match n return nat with | O => O | S m => m end.")
        state.add(get_def(state, "pred"))
        state.add(expand(state, "pred_def"))
        out = eliminate_pattern_matching(state, "pred_eq")
        assert [h.name for h in out] == ["pred_O", "pred_S"]
        assert out[0].statement == parse_term("pred O = O", state.env)
        assert out[1].statement == parse_term("forall (m : nat), pred (S m) = m", state.env)
        true_and_reparsed(state.env, out)


class TestGenEq:
    """`expand` lifts each side once past the telescope and applies it to
    the telescope's variables, outermost first."""

    def test_base_case(self, env):
        state = mk_state(env, "true = true", [("h", "true = true")])
        assert expand(state, "h").statement is state.find("h").statement

    def test_hd_error_split(self, env):
        state = mk_state(env, "true = true", [("h", "hd_error = hd_error")])
        got = expand(state, "h").statement
        want = parse_term(
            "forall (A : Type) (l : list A), hd_error A l = hd_error A l", env)
        assert alpha_eq(got, want)

    def test_two_arguments_indices(self, env):
        state = mk_state(env, "true = true", [("h", "add = sub")])
        got = expand(state, "h").statement
        want = parse_term(
            "forall (x0 : Int) (x1 : Int), x0 + x1 = x0 - x1", env)
        assert alpha_eq(got, want)
        assert well_scoped(got, 0)
        assert typecheck(env, [], got) == SortProp()


class TestExpand:
    def test_hd_error_listing(self, env):
        state = mk_state(env, "true = true")
        state.add(get_def(state, "hd_error"))
        h = expand(state, "hd_error_def")
        want = parse_term(
            "forall (A : Type) (l : list A), hd_error A l ="
            " match l return option A with | nil => none A | cons x _ => some A x end",
            env)
        assert alpha_eq(h.statement, want)
        assert h.justification == ByConversion(source="hd_error_def")

    def test_zero_arrow_unchanged(self, env):
        state = mk_state(env, "true = true")
        state.add(get_def(state, "two"))
        h = expand(state, "two_def")
        assert alpha_eq(h.statement, parse_term("two = 2", env))

    def test_search_shape(self, env):
        state = mk_state(env, "true = true")
        state.add(get_def(state, "search"))
        h = expand(state, "search_def")
        assert typecheck(env, [], h.statement) == SortProp()
        # forall (A x l), search A x l = (fix ...) x l
        body = h.statement
        n = 0
        while isinstance(body, Pi):
            body = body.codomain
            n += 1
        assert n == 3
        rhead, rargs = spine(body.rhs)
        from folbridge.terms import Fix
        assert isinstance(rhead, Fix)
        assert rargs == [Var(1), Var(0)]

    def test_not_an_equation(self, env):
        state = mk_state(env, "true = true", [("h", "true_p")])
        with pytest.raises(NotAnEquation):
            expand(state, "h")

    def test_truthful(self, env):
        state = mk_state(env, "true = true")
        for c in ["hd_error", "length", "search", "app"]:
            state.add(get_def(state, c))
            state.add(expand(state, f"{c}_def"))
        stmts_truthy(env, state.hypotheses)


def _expanded(env, const: str) -> ProofState:
    state = mk_state(env, "true = true")
    state.add(get_def(state, const))
    state.add(expand(state, f"{const}_def"))
    return state


class TestEliminateFix:
    def test_length_listing(self, env):
        state = _expanded(env, "length")
        h = eliminate_fix(state, "length_eq")
        want = parse_term(
            "forall (A : Type) (l : list A), length A l ="
            " match l return Int with | nil => 0 | cons _ l' => 1 + length A l' end",
            env)
        assert alpha_eq(h.statement, want)
        assert h.justification == ByCaseConversion(
            source="length_eq", split_vars=(1,), depth=1)

    def test_search_recursive_calls(self, env):
        state = _expanded(env, "search")
        h = eliminate_fix(state, "search_eq")
        assert typecheck(env, [], h.statement) == SortProp()
        # the cons branch calls `search A x l0`
        rec = [s for s in subterms(h.statement)
               if isinstance(s, App) and spine(s)[0] == Const("search")
               and len(spine(s)[1]) == 3]
        assert rec, print_term(h.statement, env)

    def test_no_fixpoint(self, env):
        state = _expanded(env, "hd_error")
        with pytest.raises(NoFixpointFound):
            eliminate_fix(state, "hd_error_eq")

    def test_truthful(self, env):
        for c in ["length", "search", "app", "nlength"]:
            state = _expanded(env, c)
            h = eliminate_fix(state, f"{c}_eq")
            stmts_truthy(env, [h])


class TestEliminatePatternMatching:
    def test_hd_error_listing(self, env):
        state = _expanded(env, "hd_error")
        out = eliminate_pattern_matching(state, "hd_error_eq")
        assert len(out) == 2
        want_nil = parse_term("forall (A : Type), hd_error A (nil A) = none A", env)
        want_cons = parse_term(
            "forall (A : Type) (x : A) (l : list A),"
            " hd_error A (cons A x l) = some A x", env)
        assert alpha_eq(out[0].statement, want_nil)
        assert alpha_eq(out[1].statement, want_cons)
        assert out[0].justification == ByConversion(source="hd_error_eq")

    def test_length_quantified_forms(self, env):
        state = _expanded(env, "length")
        state.add(eliminate_fix(state, "length_eq"))
        out = eliminate_pattern_matching(state, "length_unfix")
        assert len(out) == 2
        want_nil = parse_term("forall (A : Type), length A (nil A) = 0", env)
        want_cons = parse_term(
            "forall (A : Type) (x : A) (l' : list A),"
            " length A (cons A x l') = 1 + length A l'", env)
        assert alpha_eq(out[0].statement, want_nil)
        assert alpha_eq(out[1].statement, want_cons)
        stmts_truthy(env, out)

    def test_bool_match_two_statements(self, env):
        state = mk_state(env, "true = true")
        state.add(get_def(state, "bnot"))
        state.add(expand(state, "bnot_def"))
        out = eliminate_pattern_matching(state, "bnot_eq")
        assert len(out) == 2  # one per Bool constructor
        stmts_truthy(env, out)

    def test_count_equals_ctor_count(self, env):
        state = _expanded(env, "nlength")
        state.add(eliminate_fix(state, "nlength_eq"))
        out = eliminate_pattern_matching(state, "nlength_unfix")
        assert len(out) == len(env.inductive("list").ctors)

    def test_no_match(self, env):
        state = mk_state(env, "true = true", [("h", "forall (x : Int), x = x")])
        with pytest.raises(NoMatchOnBoundVar):
            eliminate_pattern_matching(state, "h")

    def test_search_chain_truthful(self, env):
        state = _expanded(env, "search")
        state.add(eliminate_fix(state, "search_eq"))
        out = eliminate_pattern_matching(state, "search_unfix")
        assert len(out) == 2
        stmts_truthy(env, out)

    def test_matched_variable_not_last(self, env):
        # the match scrutinee is the first of two binders
        state = mk_state(
            env, "true = true",
            [("h", "forall (l : list Int) (y : Int),"
                   " length Int l + y = match l return Int with"
                   " | nil => y | cons _ l' => 1 + length Int l' + y end")])
        out = eliminate_pattern_matching(state, "h")
        assert len(out) == 2
        stmts_truthy(env, out)

    def test_inductive_alias(self):
        """A matched variable whose type is an alias of an inductive type is
        split on the constructors of that type."""
        state = alias_state(
            "def L : Type = list Int.\n"
            "def hdz : L -> Int = fun (l : L) => match l return Int with"
            " | nil => 0 | cons x _ => x end.")
        state.add(get_def(state, "hdz"))
        state.add(expand(state, "hdz_def"))
        out = eliminate_pattern_matching(state, "hdz_eq")
        assert [h.name for h in out] == ["hdz_nil", "hdz_cons"]
        assert out[1].statement == parse_term(
            "forall (x : Int) (l : list Int), hdz (cons Int x l) = x", state.env)
        true_and_reparsed(state.env, out)

    def test_dependent_premise(self, env):
        """A later binder whose type mentions the matched variable, here a
        premise, is instantiated with the constructor, as `destruct` does."""
        pred_n = "match n return nat with | O => O | S m => m end"
        state = mk_state(env, "true = true",
                         [("k", f"forall (n p : nat), S n = p -> {pred_n} = {pred_n}")])
        out = eliminate_pattern_matching(state, "k")
        assert [h.name for h in out] == ["k_O", "k_S"]
        assert out[0].statement == parse_term("forall (p : nat), S O = p -> O = O", env)
        assert out[1].statement == parse_term(
            "forall (m p : nat), S (S m) = p -> m = m", env)
        true_and_reparsed(env, out)


class TestCollectTypeInstances:
    def test_list_int_goal(self, env):
        goal = parse_term(
            "forall (l : list Int), length Int l = length Int l", env)
        insts = collect_type_instances(env, goal, set())
        assert any(alpha_eq(t, INT) for t in insts)
        assert any(alpha_eq(t, parse_term("list Int", env)) for t in insts)
        assert len(insts) == 2

    def test_trivial_goal(self, env):
        insts = collect_type_instances(env, parse_term("true = true", env), set())
        assert [print_term(t, env) for t in insts] == ["Bool"]

    def test_search_lemma_goal(self, env):
        goal = parse_term(
            "forall (x : Int) (l1 : list Int) (l2 : list Int) (l3 : list Int),"
            " search Int x (app Int l1 (app Int l2 l3)) ="
            " search Int x (app Int l3 (app Int l2 l1))", env)
        insts = collect_type_instances(env, goal, set())
        names = [print_term(t, env) for t in insts]
        assert names == ["Int", "list Int", "Bool"]

    def test_nested_instances(self, env):
        goal = parse_term(
            "forall (l : list (list Int)), l = l", env)
        insts = collect_type_instances(env, goal, set())
        names = [print_term(t, env) for t in insts]
        assert "list (list Int)" in names and "list Int" in names and "Int" in names

    def test_rigid_type_variables_are_instances(self, env):
        goal = parse_term(
            "forall (l : list Int), hd_error Int l = hd_error Int l", env)
        # swap Int for a rigid type symbol
        from folbridge.conversion import replace_tvars
        from folbridge.terms import IntT, map_subterms

        def swap(t):
            if isinstance(t, IntT):
                return TVar("A")
            return map_subterms(t, lambda s, _e: swap(s))

        goal_tv = swap(goal)
        insts = collect_type_instances(env, goal_tv, set())
        assert any(isinstance(t, TVar) for t in insts)
        assert any(alpha_eq(t, App(Ind("list"), TVar("A"))) for t in insts)


SEARCH_APP = ("forall (A : Type) (x : A) (l1 : list A) (l2 : list A),"
              " search A x (app A l1 l2) = search A x l1 || search A x l2")


class TestMonomorphize:
    def test_search_app_instance(self, env):
        goal = ("forall (x : Int) (l1 : list Int) (l2 : list Int),"
                " search Int x (app Int l1 l2) = search Int x l1 || search Int x l2")
        state = mk_state(env, goal, [("search_app", SEARCH_APP)])
        out = monomorphize(state, [])
        want = parse_term(
            "forall (x : Int) (l1 : list Int) (l2 : list Int),"
            " search Int x (app Int l1 l2) = search Int x l1 || search Int x l2", env)
        assert any(alpha_eq(h.statement, want) for h in out)
        inst_hyp = next(h for h in out if alpha_eq(h.statement, want))
        assert inst_hyp.justification == ByInstantiation("search_app", (INT,))
        assert inst_hyp.name.startswith("search_app_Int")
        # no type binders remain in any output
        for h in out:
            assert not (isinstance(h.statement, Pi)
                        and h.statement.domain == TYPE)

    def test_monomorphic_context_empty_output(self, env):
        state = mk_state(env, "true = true", [("h", "1 = 1")])
        assert monomorphize(state, []) == []

    def test_state_without_goal(self, env):
        """No goal gives no instances; the context's are still found."""
        state = ProofState(env, mk_state(env, "true = true", [
            ("search_app", SEARCH_APP), ("h", "forall (n : nat), S n <> O")]).hypotheses)
        assert monomorphize(state) == []
        out = monomorphize(state, from_context=True)
        assert [h.name for h in out] == ["search_app_Bool", "search_app_nat"]

    def test_idempotent(self, env):
        goal = "forall (l : list Int), length Int l = length Int l"
        state = mk_state(env, goal, [("search_app", SEARCH_APP)])
        first = monomorphize(state, [])
        for h in first:
            state.add(h)
        second = monomorphize(state, [])
        assert second == []

    def test_truthful(self, env):
        goal = "forall (l : list Int), length Int l = length Int l"
        state = mk_state(env, goal, [("search_app", SEARCH_APP)])
        stmts_truthy(env, monomorphize(state, []), samples=25)


# A type binder in proposition position, and the shapes that put it after
# the leading prefix of type binders.
TYPE_BINDER = Pi("B", TYPE, TrueP())
INTERIOR = {
    "premise": Pi("_", TYPE_BINDER, TrueP()),
    "and": And(TrueP(), TYPE_BINDER),
    "or": Or(TYPE_BINDER, TrueP()),
    "not": Not(TYPE_BINDER),
    "exists body": Exists("x", INT, TYPE_BINDER),
    "after object binder": Pi("x", INT, TYPE_BINDER),
    "object binder domain": Pi("f", Pi("A", TYPE, Var(0)), TrueP()),
    "exists premise": Pi("_", Exists("x", INT, TYPE_BINDER), TrueP()),
}


class TestPrenex:
    @pytest.mark.parametrize("stmt", [
        TYPE_BINDER,
        Pi("A", TYPE, Pi("B", TYPE, Pi("x", Var(1), Eq(Var(2), Var(0), Var(0))))),
        # types inside an equation are object terms, not propositions
        Eq(TYPE, Pi("A", TYPE, Pi("_", Var(0), Var(1))), Pi("A", TYPE, Var(0))),
    ])
    def test_leading_prefix_accepted(self, stmt):
        assert not has_interior_type_binder(stmt)
        check_prenex(stmt)

    @pytest.mark.parametrize("shape", sorted(INTERIOR))
    def test_interior_binder_rejected(self, shape):
        for stmt in (INTERIOR[shape], Pi("A", TYPE, INTERIOR[shape])):
            assert has_interior_type_binder(stmt)
            with pytest.raises(PrenexError):
                check_prenex(stmt)

    def test_monomorphize_skips_exists_premise(self, env):
        # forall A, (exists x : A, <tail>) -> true_p, where only the
        # rejected lemma's tail is a type binder.
        def lemma(tail: Term) -> Term:
            return Pi("A", TYPE, Pi("_", Exists("x", Var(0), tail), TrueP()))

        state = mk_state(env, "forall (l : list Int), l = l")
        state.add(Hypothesis("bad", lemma(TYPE_BINDER), Given()))
        state.add(Hypothesis("good", lemma(TrueP()), Given()))
        out = monomorphize(state)
        assert out and all(h.justification.source == "good" for h in out)


# Declarations with the instance each goal names: two type parameters; a
# constructor argument that is an instance of another inductive; three
# constructors of mixed arity; constructors that are all nullary; and a
# type nested in another through its own parameter, with both instances.
AXIOM_DECLARATIONS = [
    ("data pair (A B) = mk (A) (B).", "forall (p : pair Int Bool), p = p"),
    ("data option (A) = none | some (A).\ndata box = wrap (option Int) (Int).",
     "forall (b : box), b = b"),
    ("data shape = circle (Int) | square (Int) (Int) | dot.", "forall (s : shape), s = s"),
    ("data color = red | green | blue.", "forall (c : color), c = c"),
    ("data list (A) = nil | cons (A) (list A).\ndata rose (A) = Node (A) (list (rose A)).",
     "forall (x : rose Int) (l : list (rose Int)), x = x"),
]


class TestInterpAlgTypes:
    def test_list_int_axioms(self, env):
        state = mk_state(env, "forall (l : list Int), l = l")
        out = interp_alg_types(state)
        want_inj = parse_term(
            "forall (x1 : Int) (y1 : Int) (x2 : list Int) (y2 : list Int),"
            " cons Int x1 x2 = cons Int y1 y2 -> x1 = y1 /\\ x2 = y2", env)
        want_disj = parse_term(
            "forall (y1 : Int) (y2 : list Int), nil Int <> cons Int y1 y2", env)
        assert any(alpha_eq(h.statement, want_inj) for h in out)
        assert any(alpha_eq(h.statement, want_disj) for h in out)
        stmts_truthy(env, out)

    def test_option_axioms(self, env):
        state = mk_state(env, "forall (o : option Int), o = o")
        out = interp_alg_types(state)
        want_inj = parse_term(
            "forall (x1 : Int) (y1 : Int), some Int x1 = some Int y1 -> x1 = y1", env)
        want_disj = parse_term(
            "forall (y1 : Int), none Int <> some Int y1", env)
        assert any(alpha_eq(h.statement, want_inj) for h in out)
        assert any(alpha_eq(h.statement, want_disj) for h in out)

    def test_unit_no_axioms(self):
        from folbridge.parser import parse_problem
        p = parse_problem("data unit = tt.\ngoal forall (u : unit), u = u.")
        state = ProofState(p.env, [], p.goal)
        assert interp_alg_types(state) == []

    def test_bool_excluded(self, env):
        state = mk_state(env, "true = true")
        assert interp_alg_types(state) == []

    def test_exhaustiveness_flag(self, env):
        state = mk_state(env, "forall (n : nat), n = n")
        without = interp_alg_types(state)
        with_flag = interp_alg_types(state, include_exhaustiveness=True)
        assert len(with_flag) == len(without) + 1
        exh = with_flag[-1]
        assert isinstance(exh.justification, DatatypeAxiom)
        from folbridge.transforms import Exhaustiveness
        assert isinstance(exh.justification.kind, Exhaustiveness)
        stmts_truthy(env, [exh])

    def test_shape_axioms_with_exhaustiveness(self):
        """Disjointness of two constructors with arguments, and an
        exhaustiveness axiom whose disjuncts bind no, one and two
        existentials: every axiom is true and prints to text that parses
        back to it."""
        p = parse_problem("data shape = circle (Int) | square (Int) (Int) | dot.\n"
                          "goal forall (s : shape), s = s.")
        out = interp_alg_types(ProofState(p.env, [], p.goal), include_exhaustiveness=True)
        assert [h.name for h in out] == [
            "shape_circle_inj", "shape_square_inj", "shape_circle_square_disj",
            "shape_circle_dot_disj", "shape_square_dot_disj", "shape_exhaust"]
        assert out[2].statement == parse_term(
            "forall (x1 : Int) (y1 : Int) (y2 : Int), circle x1 <> square y1 y2", p.env)
        assert any(isinstance(s, Exists) for s in subterms(out[-1].statement))
        true_and_reparsed(p.env, out)

    def test_rigid_instance_axioms(self, env):
        # instances at a rigid type variable: cons at `list A`
        goal = parse_term("forall (l : list Int), l = l", env)
        from folbridge.terms import IntT, map_subterms

        def swap(t):
            if isinstance(t, IntT):
                return TVar("A")
            return map_subterms(t, lambda s, _e: swap(s))

        state = ProofState(env, [], swap(goal))
        out = interp_alg_types(state)
        assert out
        for h in out:
            assert well_scoped(h.statement, 0)

    @pytest.mark.parametrize("include_exhaustiveness", [False, True])
    def test_matches_reference_builders(self, monkeypatch, bench_driver,
                                        include_exhaustiveness):
        """Each axiom of each instance, against the builders it replaced, one
        kind at a time (tests/axioms_reference.py): names, the repr of each
        statement, binder names included, and justifications. The instances
        are those of benchmark problems, axioms left out so that all are
        emitted again, and of hand-written declarations. No `lift` is made."""
        driver, workloads = bench_driver
        states = []
        for workload in sorted(workloads.GENERATORS):
            for seed in (1, 2):
                r = driver.preprocess(workloads.problem(workload, seed, 0)[1])
                states.append(ProofState(r.state.env, [
                    h for h in r.state.hypotheses
                    if not isinstance(h.justification, DatatypeAxiom)], r.state.goal))
        for decls, goal in AXIOM_DECLARATIONS:
            p = parse_problem(f"{decls}\ngoal {goal}.")
            states.append(ProofState(p.env, [], p.goal))
        lifts = count_calls(monkeypatch, "lift", transforms)
        for state in states:
            want = axioms_reference.interp_alg_types(state, include_exhaustiveness)
            lifts.clear()
            got = interp_alg_types(state, include_exhaustiveness)
            assert lifts == []
            assert got and [repr(h) for h in got] == [repr(h) for h in want]

    def test_hypothesis_types_covered(self, env):
        state = mk_state(env, "true = true",
                         [("h", "forall (n : nat), S n <> O")])
        # nat occurs only in the hypothesis; injectivity of S expected, also
        # in a state without a goal
        want = parse_term("forall (x1 : nat) (y1 : nat), S x1 = S y1 -> x1 = y1", env)
        for s in (state, ProofState(env, state.hypotheses)):
            assert any(alpha_eq(h.statement, want) for h in interp_alg_types(s))


class TestProofStateIndex:
    def test_prefilled_and_appended_hypotheses(self, env):
        stmt = parse_term("forall (n : nat), S n <> O", env)
        renamed = parse_term("forall (m : nat), S m <> O", env)
        other = parse_term("forall (l : list Int), l = l", env)
        state = ProofState(env, [Hypothesis("h", stmt, Given())],
                           parse_term("true = true", env))
        assert state.has_alpha(renamed)
        assert not state.has_alpha(other)
        assert state.fresh_name("h") == "h_2"
        state.hypotheses.append(Hypothesis("g", other, Given()))
        assert state.has_alpha(other)
        assert state.fresh_name("g") == "g_2"

    def test_has_alpha_makes_no_alpha_eq_calls(self, env, monkeypatch):
        state = mk_state(env, "true = true", [("h", SEARCH_APP)])
        renamed = parse_term(SEARCH_APP.replace("l1", "k"), env)
        other = parse_term("1 = 1", env)

        def no_alpha_eq(*args):
            raise AssertionError("alpha_eq called")

        monkeypatch.setattr(terms, "alpha_eq", no_alpha_eq)
        monkeypatch.setattr(transforms, "alpha_eq", no_alpha_eq)
        assert state.has_alpha(renamed)
        assert not state.has_alpha(other)

    def test_committed_statements_indexed_themselves(self, env):
        """The index holds the committed statements, not copies of them, and
        a renamed statement finds its alpha-equal one."""
        stmts = [parse_term(f"{i} = {i}", env) for i in range(5)]
        stmts.append(parse_term("forall (n : nat), S n <> O", env))
        state = ProofState(env, [], parse_term("true = true", env))
        for i, stmt in enumerate(stmts):
            assert not state.has_alpha(stmt)
            state.add(Hypothesis(f"h{i}", stmt, Given()))
        indexed = state.statements()
        assert len(indexed) == len(stmts)
        assert {id(s) for s in indexed} == {id(s) for s in stmts}
        assert state.has_alpha(parse_term("forall (m : nat), S m <> O", env))
        assert not state.has_alpha(parse_term("7 = 7", env))

    def test_alpha_equal_statements_get_their_own_instances(self, env):
        """Instances carry the binder names of the statement they come from:
        the goal's keep the goal's names, and an alpha-equal hypothesis with
        other names adds none."""
        text = "forall (f : forall (x : list Int), Int), f = f"
        first = parse_term(text, env)
        renamed = parse_term(text.replace("(x :", "(y :"), env)
        assert first == renamed and repr(first) != repr(renamed)
        state = ProofState(env, [], first)
        insts = list(state.type_instances())
        assert [t.binder for t in insts if isinstance(t, Pi)] == ["x"]
        assert repr(insts) == repr(collect_type_instances(env, first, set()))
        state.add(Hypothesis("h", renamed, Given()))
        assert repr(state.type_instances()) == repr(insts)

    def test_statements_walked_at_most_once(self, env, monkeypatch):
        """Each statement is walked once, the goal first: an unchanged state
        walks nothing and answers with an equal list, and a grown one walks
        the new statements only."""
        state = mk_state(env, "forall (l : list Int), l = l",
                         [("h", "forall (n : nat), S n <> O")])
        walked, visited = [], []
        original_collect, original_children = transforms.collect_type_instances, transforms.children

        def collect(env, t, seen):
            walked.append(t)
            return original_collect(env, t, seen)

        def children(t):
            visited.append(t)
            return original_children(t)

        monkeypatch.setattr(transforms, "collect_type_instances", collect)
        monkeypatch.setattr(transforms, "children", children)
        first = interp_alg_types(state)
        assert first and walked == [state.goal, state.hypotheses[0].statement]
        walked.clear()
        visited.clear()
        again = interp_alg_types(state)
        assert walked == visited == [] and repr(again) == repr(first)
        for h in first:
            state.add(h)
        assert interp_alg_types(state) == [] and monomorphize(state) == []
        assert walked == [h.statement for h in first]
        walked.clear()
        visited.clear()
        assert interp_alg_types(state) == [] and walked == visited == []

    def test_find_indexes_first_of_each_name(self, env):
        first = Hypothesis("h", parse_term("1 = 1", env), Given())
        second = Hypothesis("h", parse_term("2 = 2", env), Given())
        state = ProofState(env, [first, second], parse_term("true = true", env))
        assert state.find("h") is first
        later = Hypothesis("g", parse_term("3 = 3", env), Given())
        state.hypotheses.append(later)
        assert state.find("g") is later
        with pytest.raises(TransformError):
            state.find("missing")


SATURATE_GOAL = ("length Int (app Int (cons Int 1 (nil Int)) (nil Int)) = 1"
                 " /\\ hd_error nat (cons nat O (nil nat)) = some nat O")
SATURATE_HYPS = [
    ("search_app", SEARCH_APP),
    ("len_refl", "forall (A : Type) (l : list A), length A l = length A l"),
    ("pair_refl", "forall (A : Type) (B : Type) (x : A) (y : B), x = x"),
    ("g", "forall (n : nat), S n <> O"),
]
LEN_APP = ("forall (A : Type) (l1 : list A) (l2 : list A),"
           " length A (app A l1 l2) = length A l1 + length A l2")


class TestSaturationMemo:
    """What a state remembers changes no answer: repeated and mixed calls
    return what a fresh state returns, names included (compared by repr),
    and the round that confirms the fixpoint substitutes and builds
    nothing."""

    @staticmethod
    def saturate(state):
        while True:
            added = 0
            for h in monomorphize(state) + interp_alg_types(state):
                if not state.has_alpha(h.statement):
                    state.add(h)
                    added += 1
            if not added:
                return

    @pytest.mark.parametrize("call", [monomorphize, interp_alg_types])
    def test_repeated_call_returns_equal_list(self, env, call):
        state = mk_state(env, SATURATE_GOAL, SATURATE_HYPS)
        first = call(state)
        assert first and repr(call(state)) == repr(first)

    @pytest.mark.parametrize("variant", ["extra_lemmas", "from_context", "exhaustiveness"])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_variant_after_plain_call_matches_fresh_state(self, env, variant, saturated):
        calls = {
            # the extra lemma enters the state as a Given hypothesis first
            "extra_lemmas": monomorphize,
            "from_context": lambda s: monomorphize(s, from_context=True),
            "exhaustiveness": lambda s: interp_alg_types(s, include_exhaustiveness=True),
        }
        state = mk_state(env, SATURATE_GOAL, SATURATE_HYPS)
        if saturated:
            self.saturate(state)
        if variant == "extra_lemmas":
            state.add(Hypothesis("len_app", parse_term(LEN_APP, env), Given()))
        plain = [repr(monomorphize(state)), repr(interp_alg_types(state))]
        fresh = ProofState(env, list(state.hypotheses), state.goal)
        assert repr(calls[variant](state)) == repr(calls[variant](fresh))
        # and the plain calls after it still answer as before
        assert [repr(monomorphize(state)), repr(interp_alg_types(state))] == plain

    def test_nested_uniform_inductive_saturates(self):
        """A type nested in another through its own parameter reaches the
        fixpoint with one axiom set per instance, and the outputs are true."""
        p = parse_problem("data list (A) = nil | cons (A) (list A).\n"
                          "data rose (A) = Node (A) (list (rose A)).\n"
                          "goal forall (x : rose Int), x = x.")
        state = ProofState(p.env, [], p.goal)
        self.saturate(state)
        assert [print_term(t, p.env) for t in state.algebraic_instances()] == [
            "rose Int", "list (rose Int)"]
        assert monomorphize(state) == interp_alg_types(state) == []
        stmts_truthy(p.env, state.hypotheses, samples=10)

    def test_confirming_round_substitutes_and_builds_nothing(self, env, monkeypatch):
        counts = {}
        for name in ("subst_list", "ctor_arg_types"):
            original = getattr(transforms, name)

            def counting(*args, name=name, original=original):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(transforms, name, counting)
        state = mk_state(env, SATURATE_GOAL, SATURATE_HYPS)
        self.saturate(state)
        assert counts["subst_list"] and counts["ctor_arg_types"]
        counts.clear()
        assert monomorphize(state) == [] and interp_alg_types(state) == []
        assert counts == {}

    def test_alpha_equal_closed_terms_print_as_without_memo(self, monkeypatch):
        """Two alpha-equal closed lambdas with other binder names: the type
        of the second, an equation's type, names the binders of `expand`'s
        output. It must be its own, as when no memo is kept."""
        from folbridge import parser
        text = PRELUDE.replace("goal true = true.", """\
hyp h1 : forall (n : Int), (fun (x : Int) => x) n = n.
hyp h2 : (fun (y : Int) => y) = fun (z : Int) => z.
hyp h3 : (fun (u : Int) (v : Int) => u) = fun (p : Int) (q : Int) => p.
goal forall (l : list Int), (fun (m : list Int) => m) l = l.""")

        def run():
            problem = parse_problem(text)
            state = ProofState(problem.env, [Hypothesis(n, t, Given())
                                             for n, t in problem.hypotheses], problem.goal)
            for h in list(state.hypotheses):
                try:
                    state.add(expand(state, h.name))
                except NotAnEquation:
                    pass
            self.saturate(state)
            return [f"{h.name} : {print_term(h.statement, problem.env)}"
                    for h in state.hypotheses]

        kept = run()
        infer = parser.infer
        monkeypatch.setattr(parser, "infer",
                            lambda env, *args: (env.memo.clear(), infer(env, *args))[1])
        assert kept == run()
        assert "h2_eq : forall (y : Int), y = y" in kept


def test_preprocessing_leaves_no_garbage():
    """A problem's state is freed by reference counting once it is dropped:
    no recursive closure keeps it (and its environment) in a reference
    cycle until the cyclic collector runs."""
    text = PRELUDE.replace("goal true = true.",
                           "goal forall (l : list Int), length Int (app Int l l) = 2 * length Int l.")
    gc.collect()
    gc.disable()
    try:
        problem = parse_problem(text)
        state = ProofState(problem.env, [], problem.goal)
        for c in ["hd_error", "length", "app", "search", "bnot"]:
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
        for new in monomorphize(state) + interp_alg_types(state):
            if not state.has_alpha(new.statement):
                state.add(new)
        assert len(state.hypotheses) > 20
        for h in state.hypotheses:
            print_term(h.statement, problem.env)
            assert random_truth_check(problem.env, h.statement, samples=1) is None
        del problem, state, h, out, new
        assert gc.collect() == 0
    finally:
        gc.enable()
