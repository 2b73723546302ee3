"""Grammar, scoping, and the parse/print round trip."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PRELUDE
from folbridge.conversion import TypingError, infer, typecheck
from folbridge.parser import (
    ArityError, ParseError, PrenexError, parse_problem, parse_term, tokenize,
)
from folbridge import parser
import parser_reference
from folbridge.printer import print_problem, print_term
from folbridge.terms import (
    App, BOOL, Const, Ctor, Eq, FALSE, FolbridgeError, Ind, IntLit, IntT, Not,
    Pi, ScopeError, SortProp, TRUE, Var, alpha_eq,
)

HD_ERROR_PROBLEM = """\
data option (A) = none | some (A).
data list (A) = nil | cons (A) (list A).
def hd_error : forall (A : Type), list A -> option A =
  fun (A : Type) (l : list A) =>
    match l return option A with | nil => none A | cons x _ => some A x end.
goal forall (A : Type) (l : list A) (a : A), hd_error A l = some A a -> l <> nil A.
"""


class TestParseProblem:
    def test_hd_error_problem(self):
        p = parse_problem(HD_ERROR_PROBLEM)
        assert set(p.env.inductives) == {"Bool", "option", "list"}
        assert list(p.env.definitions) == ["hd_error"]
        assert p.hypotheses == []
        # goal: forall (A l a), Eq(option A, hd_error A l, some A a) -> ~(l = nil A)
        g = p.goal
        binders = []
        while isinstance(g, Pi) and len(binders) < 3:
            binders.append(g.domain)
            g = g.codomain
        assert len(binders) == 3
        assert isinstance(g, Pi)  # the implication
        prem, concl = g.domain, g.codomain
        assert isinstance(prem, Eq)
        assert alpha_eq(prem.at_type, App(Ind("option"), Var(2)))
        assert isinstance(concl, Not)
        assert typecheck(p.env, [], p.goal) == SortProp()

    def test_trivial_goal(self):
        p = parse_problem("goal true = true.")
        assert alpha_eq(p.goal, Eq(BOOL, TRUE, TRUE))
        assert p.env.definitions == {}

    def test_nat_goal_roundtrip(self):
        src = "data nat = O | S (nat).\ngoal forall (n : nat), S n = S n.\n"
        p = parse_problem(src)
        assert typecheck(p.env, [], p.goal) == SortProp()
        q = parse_problem(print_problem(p))
        assert alpha_eq(p.goal, q.goal)

    def test_lemma_params(self):
        src = ("data list (A) = nil | cons (A) (list A).\n"
               "lemma triv : forall (A : Type) (l : list A), l = l.\n"
               "hyp other : true = true.\n"
               "goal true = true.\n")
        p = parse_problem(src)
        assert p.lemma_params == ["triv"]
        assert [n for n, _ in p.hypotheses] == ["triv", "other"]

    def test_comments_and_whitespace(self):
        p = parse_problem("# a comment\ngoal   true =\n  true.  # trailing\n")
        assert alpha_eq(p.goal, Eq(BOOL, TRUE, TRUE))


class TestParseErrors:
    def test_parse_error_location(self):
        with pytest.raises(ParseError):
            parse_problem("goal true = .")

    def test_scope_error(self):
        with pytest.raises(ScopeError):
            parse_problem("goal mystery = true.")

    def test_arity_error_missing_branch(self):
        src = ("data list (A) = nil | cons (A) (list A).\n"
               "def f : list Int -> Int = fun (l : list Int) =>"
               " match l return Int with | nil => 0 end.\n"
               "goal true = true.\n")
        with pytest.raises(ArityError):
            parse_problem(src)

    def test_arity_error_pattern_arity(self):
        src = ("data list (A) = nil | cons (A) (list A).\n"
               "def f : list Int -> Int = fun (l : list Int) =>"
               " match l return Int with | nil => 0 | cons x => 1 end.\n"
               "goal true = true.\n")
        with pytest.raises(ArityError):
            parse_problem(src)

    def test_goal_required(self):
        with pytest.raises(ParseError):
            parse_problem("data nat = O | S (nat).\n")

    def test_prenex_violation(self):
        with pytest.raises(PrenexError):
            parse_problem("goal forall (x : Int), forall (A : Type), x = x.")

    def test_duplicate_names(self):
        with pytest.raises(ScopeError):
            parse_problem("data a = mk.\ndata a = mk2.\ngoal true = true.")

    def test_match_on_another_inductive_rejected(self):
        """Arms written with nat's constructors on an option scrutinee:
        the match names nat, so it is rejected, not read as a match on
        option whose branches have the same shape."""
        src = ("data option (A) = none | some (A).\n"
               "data nat = O | S (nat).\n"
               "def f : option nat -> nat = fun (o : option nat) =>"
               " match o return nat with | O => O | S p => p end.\n"
               "goal true = true.\n")
        with pytest.raises(TypingError, match="not of type nat"):
            parse_problem(src)

    @pytest.mark.parametrize("src, prefix", [
        ("hyp h : forall (x : Int), x = true.\ngoal true = true.", "in hypothesis h: "),
        ("goal forall (x : Int), x = 1 -> x = true.", "in goal: "),
        ("goal forall (x : 1), true = true.", "in goal: "),
    ])
    def test_statement_typing_error_names_the_statement(self, src, prefix):
        with pytest.raises(TypingError) as err:
            parse_problem(src)
        assert str(err.value).startswith(prefix)

    @pytest.mark.parametrize("side, error, message", [
        ("q", ScopeError, "unknown identifier 'q'"),
        ("match O return nat with | O => O end", ArityError, "missing branches for: S"),
    ])
    def test_error_inside_parenthesized_proposition(self, side, error, message):
        """An error inside a parenthesized proposition surfaces as itself,
        not as the ParseError of reading the group as an expression."""
        with pytest.raises(error, match=message):
            parse_problem(f"data nat = O | S (nat).\ngoal (O = {side}) /\\ O = O.")

    @pytest.mark.parametrize("src, message", [
        ("goal O = S.", "in goal: equality sides disagree: nat vs nat -> nat"),
        ("def f : nat = S.\ngoal O = O.", "definition f: body has type nat -> nat, declared nat"),
        ("data list (A) = nil | cons (A) (list A).\n"
         "goal forall (A : Type) (l : list A), l = nil.",
         "in goal: equality sides disagree: list A vs forall (A0 : Type), list A0"),
    ])
    def test_typing_error_prints_types(self, src, message):
        with pytest.raises(TypingError) as err:
            parse_problem(f"data nat = O | S (nat).\n{src}")
        assert str(err.value) == message

    def test_open_equation_raises(self, env):
        with pytest.raises(TypingError):
            parse_term("x = 1", env, bound=["x"])
        with pytest.raises(TypingError):
            parse_term("forall (y : Int), y = x", env, bound=["x"])
        assert parse_term("x + 1", env, bound=["x"]) == App(App(Const("add"), Var(0)), IntLit(1))


class TestExpressions:
    def test_operator_precedence(self, env):
        t = parse_term("1 + 2 * 3", env)
        want = parse_term("1 + (2 * 3)", env)
        assert alpha_eq(t, want)

    def test_left_assoc_sub(self, env):
        t = parse_term("10 - 3 - 2", env)
        want = parse_term("(10 - 3) - 2", env)
        assert alpha_eq(t, want)

    def test_bool_ops(self, env):
        t = parse_term("true || false && true", env)
        want = parse_term("true || (false && true)", env)
        assert alpha_eq(t, want)

    @pytest.mark.parametrize("text, want", [
        ("x || y || z", ("orb", "x", ("orb", "y", "z"))),
        ("x && y && z", ("andb", "x", ("andb", "y", "z"))),
        ("x && y || z", ("orb", ("andb", "x", "y"), "z")),
        ("1 - 2 - 3", ("sub", ("sub", 1, 2), 3)),
        ("1 * 2 * 3 + 4", ("add", ("mul", ("mul", 1, 2), 3), 4)),
        ("1 - 2 * 3 + 4", ("add", ("sub", 1, ("mul", 2, 3)), 4)),
        ("1 + 2 < 3 && 4 <= 5 || x",
         ("orb", ("andb", ("lt", ("add", 1, 2), 3), ("le", 4, 5)), "x")),
        ("x && 1 < 2 || y && 3 <= 4",
         ("orb", ("andb", "x", ("lt", 1, 2)), ("andb", "y", ("le", 3, 4)))),
    ])
    def test_infix_associativity(self, env, text, want):
        def build(spec):
            if isinstance(spec, int):
                return IntLit(spec)
            if isinstance(spec, str):
                return Var(["x", "y", "z"].index(spec))
            name, lhs, rhs = spec
            return App(App(Const(name), build(lhs)), build(rhs))
        assert parse_term(text, env, ["x", "y", "z"]) == build(want)

    @pytest.mark.parametrize("text", [
        "1 < 2 < 3", "1 <= 2 < 3", "true && 1 < 2 < 3", "1 < 2 + 3 <= 4"])
    def test_comparison_does_not_chain(self, env, text):
        with pytest.raises(ParseError, match="trailing input"):
            parse_term(text, env)

    def test_long_list_literal(self, env):
        """Each element nests one group: two parser frames per element
        (`parse` and `parse_atom`), so 300 elements stay below Python's
        default recursion limit."""
        lit = "nil Int"
        for i in range(300):
            lit = f"cons Int {i} ({lit})"
        assert isinstance(parse_term(f"{lit} = {lit}", env), Eq)

    def test_negative_literal(self, env):
        assert parse_term("(-5)", env) == IntLit(-5)
        t = parse_term("1 - 5", env)
        assert alpha_eq(t, App(App(Const("sub"), IntLit(1)), IntLit(5)))

    def test_comparison(self, env):
        t = parse_term("(1 <= 2) = true", env)
        assert isinstance(t, Eq)

    def test_type_application(self, env):
        t = parse_term("cons Int 1 (nil Int)", env)
        head, args = t, []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.head
        assert head == Ctor("list", 1)
        assert len(args) == 3

    def test_arrow_type(self, env):
        t = parse_term("Int -> Int -> Bool", env)
        assert isinstance(t, Pi) and isinstance(t.codomain, Pi)
        assert t.domain == IntT()

    def test_implicit_error(self, env):
        # all type applications are explicit; missing one is a type error
        with pytest.raises(TypingError):
            parse_term("cons 1 (nil Int)", env)


class TestRoundTrip:
    def test_prelude_roundtrip(self, prelude):
        text = print_problem(prelude)
        again = parse_problem(text)
        assert alpha_eq(prelude.goal, again.goal)
        assert set(again.env.definitions) == set(prelude.env.definitions)
        for name, d in prelude.env.definitions.items():
            assert alpha_eq(d.body, again.env.definitions[name].body), name
            assert alpha_eq(d.type, again.env.definitions[name].type), name

    def test_statement_roundtrip_corpus(self, env):
        statements = [
            "forall (A : Type) (l : list A) (a : A), hd_error A l = some A a -> l <> nil A",
            "forall (x : Int) (l1 : list Int) (l2 : list Int),"
            " search Int x (app Int l1 l2) = search Int x l1 || search Int x l2",
            "forall (n : nat), S n = S n",
            "true_p",
            "~ false_p",
            "(true = false -> false_p) /\\ (1 = 1 \\/ 2 = 3)",
            "forall (A : Type) (x : A), eqb A x x = true",
            "hd_error = hd_error",
        ]
        for s in statements:
            t = parse_term(s, env)
            printed = print_term(t, env)
            t2 = parse_term(printed, env)
            assert alpha_eq(t, t2), (s, printed)

    def test_term_roundtrip_corpus(self, env):
        terms = [
            "fun (A : Type) (l : list A) => match l return option A with"
            " | nil => none A | cons x _ => some A x end",
            "fix f/0 (n : nat) : Int := match n return Int with"
            " | O => 0 | S m => 1 + f m end",
            "cons Int (1 + 2 * 3) (nil Int)",
            "fun (x : Int) (y : Int) => (x + y) * (x - y)",
            "eqb Int 1 2 || (1 <= 2) && negb false",
            "match cons Int 1 (nil Int) return Int with | nil => (-1) | cons x _ => x end",
        ]
        for s in terms:
            t = parse_term(s, env)
            printed = print_term(t, env)
            t2 = parse_term(printed, env)
            assert alpha_eq(t, t2), (s, printed)

    @pytest.mark.parametrize("text", [
        "1 - 2 - 3", "1 - (2 - 3)", "(true || false) || true", "true || false || true",
        "true && (false || true)", "(1 + 2) * 3 < 4", "1 = 1 -> 2 = 2 -> 1 = 2",
        "(1 = 1 -> 2 = 2) -> 1 = 2", "(true_p \\/ false_p) /\\ true_p",
        "(Int -> Int) -> Int", "~ (1 = 1 /\\ true_p)"])
    def test_operators_print_as_written(self, env, text):
        """Each operator's operands are wrapped exactly when its level and
        associativity in OPERATORS require it."""
        assert print_term(parse_term(text, env), env) == text

    def test_random_ground_roundtrip(self, env):
        from folbridge.conversion import random_ground_term
        from folbridge.parser import parse_term as pt
        rng = random.Random(4)
        tys = ["list Int", "option (list Bool)", "nat", "Bool", "Int",
               "list (option Int)"]
        for tyname in tys:
            ty = parse_term(tyname, env)
            for seed in range(20):
                t = random_ground_term(env, ty, rng.randint(1, 12), seed)
                printed = print_term(t, env)
                assert alpha_eq(pt(printed, env), t), printed


class TestSpecListings:
    def test_expand_listing_shape(self, env):
        # the H0 statement of the expansion walkthrough, written explicitly
        s = ("forall (A : Type) (l : list A), hd_error A l ="
             " match l return option A with | nil => none A | cons x _ => some A x end")
        t = parse_term(s, env)
        assert typecheck(env, [], t) == SortProp()

    def test_print_true_eq_true(self, env):
        t = parse_term("true = true", env)
        assert print_term(t, env) == "true = true"


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The character loop the one-regex tokenizer replaced, kept as its
    oracle: (kind, text, line, col) per token."""
    import re
    ident_re = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
    int_re = re.compile(r"[0-9]+")
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = ident_re.match(text, i) or int_re.match(text, i)
        if m:
            word = m.group(0)
            kind = "int" if word[0].isdigit() else "kw" if word in parser.KEYWORDS else "ident"
            tokens.append((kind, word, line, col))
            col += len(word)
            i = m.end()
            continue
        for p in parser._PUNCT:
            if text.startswith(p, i):
                tokens.append(("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


TOKEN_PIECES = st.sampled_from(
    list("aZ_'09 \t\r\n#(),.:=|~<>+-*/\\&@") + ["forall", "Type", "x1", "é"]
    + parser._PUNCT)


def tokens_or_error(f, text):
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.col)
                for t in f(text)]
    except ParseError as e:
        return str(e)


@given(st.lists(TOKEN_PIECES, max_size=30).map("".join))
@settings(deadline=None, max_examples=300)
def test_tokenize_matches_reference(text):
    assert tokens_or_error(tokenize, text) == tokens_or_error(reference_tokenize, text)


def test_tokenize_prelude_matches_reference():
    assert tokens_or_error(tokenize, PRELUDE) == tokens_or_error(reference_tokenize, PRELUDE)


def _parse_atom_calls(monkeypatch, text: str) -> int:
    calls = [0]
    original = parser.Parser.parse_atom

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(parser.Parser, "parse_atom", counting)
    try:
        parse_problem(f"goal {text}.")
    except ParseError:
        pass
    finally:
        monkeypatch.undo()
    return calls[0]


def test_nested_groups_parse_in_linear_time(monkeypatch):
    """Nested groups cost linear time: no group is parsed twice, whether
    it turns out to be an expression or malformed (a parser that tried an
    equation side as a proposition first and parsed it again from scratch
    made 4/16/67/862 calls at depth 1/4/10/40)."""
    def calls(depth):
        return _parse_atom_calls(monkeypatch, "(" * depth + "1" + ")" * depth + " = 1")

    def malformed_calls(depth):
        text = "1 = 2"
        for _ in range(depth):
            text = f"({text}) = 1"  # a proposition inside an equation
        return _parse_atom_calls(monkeypatch, text)

    assert calls(40) <= 4.5 * calls(10)
    assert malformed_calls(40) <= 4.5 * malformed_calls(10)
    assert parse_term("((((((((((1)))))))))) = 1") == parse_term("1 = 1")
    with pytest.raises(ParseError, match="expected '\\)', found '='"):
        parse_term("((1 = 2) = 1) = 1")


PRELUDE_ENV = parse_problem(PRELUDE).env


PROP_PIECES = st.sampled_from(
    ["(", ")", "(", ")", "x", "1", "=", "<>", "->", "/\\", "\\/", "~", "+",
     "true", "true_p", "forall (z : Int),", "cons Int 1", "nil Int", "length Int",
     "(fun (a : Int) => a)", "<=", "||", "Int", "S", "O", "y", "exists (w : Int),",
     "false_p", "-", "*"])

NESTED_GROUPS = st.builds(
    lambda depth, core, tail: "(" * depth + core + ")" * depth + tail,
    st.integers(0, 6),
    st.sampled_from(["x = y", "1", "x", "true_p", "cons Int 1 (nil Int)",
                     "length Int (nil Int)", "x = 1 -> y = 2", "S x", "~ x = 1"]),
    st.sampled_from(["", " = 1", " = x", " <> 2", " -> x = y", " /\\ true_p",
                     " + 1 = 2", ")", " (x) = x"]))


def _outcome(parse):
    """("ok", repr of the term, end position) or ("error", the exception)."""
    try:
        t, pos = parse()
    except Exception as e:  # the caller tells FolbridgeError from the rest
        return "error", e
    return "ok", repr(t), pos


def _goal(module, text):
    p = module.Parser(f"forall (x y : Int), {text}.")
    p.env = PRELUDE_ENV  # a statement declares nothing, so the env can be shared
    return p.parse_statement("goal"), p.pos


def _term(module, text, bound):
    return module.parse_term(text, PRELUDE_ENV, bound), None


def _expression(module, text):
    p = module.Parser(text)
    p.env = PRELUDE_ENV
    parse = p.parse if module is parser else p.parse_expr
    return parse(["x", "y"]), p.pos


@given(st.one_of(st.lists(PROP_PIECES, min_size=1, max_size=16).map(" ".join),
                 NESTED_GROUPS))
@example("1 + forall (z : Int), Int")
@example("exists (w : Int), x")
@settings(deadline=None, max_examples=1000, derandomize=True)
def test_parser_matches_reference(text):
    """The one-loop parser against the two-grammar one it replaced, as a
    statement under `forall (x y : Int),`, through parse_term, open and
    closed, and in an expression position, where input may follow the
    term: when either accepts, both give the same term and end position;
    when the reference rejects, the parser raises a FolbridgeError."""
    for entry, args in [(_goal, ()), (_term, (["x", "y"],)), (_term, (None,)),
                        (_expression, ())]:
        new = _outcome(lambda: entry(parser, text, *args))
        ref = _outcome(lambda: entry(parser_reference, text, *args))
        if "ok" in (new[0], ref[0]):
            assert new == ref, (entry.__name__, args)
        else:
            assert isinstance(new[1], FolbridgeError), (entry.__name__, args, new[1])
