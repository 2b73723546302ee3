"""The six transformations against the worked examples and random truth."""

from __future__ import annotations

import pytest

from folbridge import terms, transforms
from folbridge.conversion import random_truth_check, typecheck
from folbridge.parser import PrenexError, check_prenex, parse_term
from folbridge.printer import print_term
from folbridge.terms import (
    And, App, BOOL, Const, Ctor, Eq, Exists, INT, Ind, IntT, Not, Or, Pi,
    SortProp, TYPE, TVar, Term, TrueP, Var, alpha_eq, has_interior_type_binder,
    make_app, spine, subterms, well_scoped,
)
from folbridge.transforms import (
    AlreadyPresent, ByCaseConversion, ByConversion, ByDefinition,
    ByInstantiation, DatatypeAxiom, Given, Hypothesis, NoFixpointFound,
    NoMatchOnBoundVar, NotAnEquation, ProofState, TransformError, UnknownConstant,
    arrow_split, collect_type_instances, eliminate_fix,
    eliminate_pattern_matching, expand, gen_eq, get_def, interp_alg_types,
    monomorphize,
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
    def test_zero_arrows(self):
        assert arrow_split(INT) == ([], INT)

    def test_hd_error_type(self, env):
        ty = env.definitions["hd_error"].type
        domains, cod = arrow_split(ty)
        assert domains == [TYPE, App(Ind("list"), Var(0))]
        # codomain under both binders: the type parameter is index 1
        assert cod == App(Ind("option"), Var(1))

    def test_int_int_bool(self, env):
        ty = parse_term("Int -> Int -> Bool", env)
        domains, cod = arrow_split(ty)
        assert domains == [INT, INT]
        assert cod == BOOL


class TestGenEq:
    def test_base_case(self, env):
        from folbridge.terms import TRUE
        assert gen_eq([], BOOL, TRUE, TRUE) == Eq(BOOL, TRUE, TRUE)

    def test_hd_error_split(self, env):
        ty = env.definitions["hd_error"].type
        domains, cod = arrow_split(ty)
        got = gen_eq(domains, cod, Const("hd_error"), Const("hd_error"))
        want = parse_term(
            "forall (A : Type) (l : list A), hd_error A l = hd_error A l", env)
        assert alpha_eq(got, want)

    def test_two_arguments_indices(self, env):
        got = gen_eq([INT, INT], INT, Const("add"), Const("sub"))
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


class TestCollectTypeInstances:
    def test_list_int_goal(self, env):
        goal = parse_term(
            "forall (l : list Int), length Int l = length Int l", env)
        insts = collect_type_instances(env, goal)
        assert any(alpha_eq(t, INT) for t in insts)
        assert any(alpha_eq(t, parse_term("list Int", env)) for t in insts)
        assert len(insts) == 2

    def test_trivial_goal(self, env):
        insts = collect_type_instances(env, parse_term("true = true", env))
        assert [print_term(t, env) for t in insts] == ["Bool"]

    def test_search_lemma_goal(self, env):
        goal = parse_term(
            "forall (x : Int) (l1 : list Int) (l2 : list Int) (l3 : list Int),"
            " search Int x (app Int l1 (app Int l2 l3)) ="
            " search Int x (app Int l3 (app Int l2 l1))", env)
        insts = collect_type_instances(env, goal)
        names = [print_term(t, env) for t in insts]
        assert names == ["Int", "list Int", "Bool"]

    def test_nested_instances(self, env):
        goal = parse_term(
            "forall (l : list (list Int)), l = l", env)
        insts = collect_type_instances(env, goal)
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
        insts = collect_type_instances(env, goal_tv)
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
        out = monomorphize(state, extra_lemmas=[("bad", lemma(TYPE_BINDER)),
                                                ("good", lemma(TrueP()))])
        assert out and all(h.justification.source == "good" for h in out)


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

    def test_hypothesis_types_covered(self, env):
        state = mk_state(env, "true = true",
                         [("h", "forall (n : nat), S n <> O")])
        out = interp_alg_types(state)
        # nat occurs only in the hypothesis; injectivity of S expected
        want = parse_term("forall (x1 : nat) (y1 : nat), S x1 = S y1 -> x1 = y1", env)
        assert any(alpha_eq(h.statement, want) for h in out)


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

    def test_committed_statement_keyed_once(self, env, monkeypatch):
        stmts = [parse_term(f"{i} = {i}", env) for i in range(5)]
        state = ProofState(env, [], parse_term("true = true", env))
        calls = 0
        alpha_key = transforms.alpha_key

        def counting_key(t):
            nonlocal calls
            calls += 1
            return alpha_key(t)

        monkeypatch.setattr(transforms, "alpha_key", counting_key)
        for i, stmt in enumerate(stmts):
            assert not state.has_alpha(stmt)
            state.add(Hypothesis(f"h{i}", stmt, Given()))
        assert len(state.statement_keys()) == len(stmts)
        assert calls == len(stmts)
        # A statement other than the one last asked about is keyed itself.
        other = parse_term("forall (n : nat), S n <> O", env)
        assert not state.has_alpha(parse_term("7 = 7", env))
        state.add(Hypothesis("g", other, Given()))
        assert state.has_alpha(parse_term("forall (m : nat), S m <> O", env))

    def test_instances_walked_once_per_statement(self, env, monkeypatch):
        state = mk_state(env, "forall (l : list Int), l = l",
                         [("h", "forall (n : nat), S n <> O")])
        calls = 0
        collect = transforms.collect_type_instances

        def counting_collect(*args):
            nonlocal calls
            calls += 1
            return collect(*args)

        monkeypatch.setattr(transforms, "collect_type_instances", counting_collect)
        first = interp_alg_types(state)
        assert first and calls == 2
        # An unchanged state looks at no statement again.
        looked_at = []
        type_instances = ProofState.type_instances

        def recording_type_instances(self, t):
            looked_at.append(t)
            return type_instances(self, t)

        monkeypatch.setattr(ProofState, "type_instances", recording_type_instances)
        calls = 0
        assert interp_alg_types(state) == first
        assert calls == 0 and looked_at == []

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

    def test_typecheck_once_per_candidate_key(self, env, monkeypatch):
        state = mk_state(
            env, "length Int (app Int (cons Int 1 (nil Int)) (nil Int)) = 1"
                 " /\\ hd_error nat (cons nat O (nil nat)) = some nat O",
            [("h", SEARCH_APP), ("g", "forall (n : nat), S n <> O"),
             ("k", "forall (A : Type) (l : list A), length A l = length A l")])
        keys = []
        typecheck = transforms.typecheck

        def recording_typecheck(env_, ctx, t, *rest):
            keys.append(terms.alpha_key(t))
            return typecheck(env_, ctx, t, *rest)

        monkeypatch.setattr(transforms, "typecheck", recording_typecheck)
        for _ in range(3):
            for h in monomorphize(state) + interp_alg_types(state):
                state.add(h)
            monomorphize(state, from_context=True)
        assert len(state.hypotheses) > 3 and keys
        assert len(keys) == len(set(keys))
