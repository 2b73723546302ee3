"""Line-oriented parser for .fol problem files.

Declarations end with `.`. Propositions and expressions share one grammar,
as they share one syntax in CIC: `forall` is a product for both, and `->`
is both a function type and an implication. `Parser.parse` is one
precedence-climbing loop over the binary operators of `printer.OPERATORS`,
the table the printer parenthesizes by. A position whose `ctx` is None is
an expression position, where `=`, `<>`, `/\\`, `\\/` and `~` end the
term. Elsewhere the term may be a proposition, which its node tells: under
its leading products it is headed by one of `terms.PROP_HEADS`. No term
is parsed twice: the parser never backtracks over a parsed term.

All type applications are explicit; there is no implicit-argument
inference. Every node is built complete: a match names the inductive of its
first arm's constructor, and an equation is typed as it is built and
carries the type of its left side. A quantifier's domains are checked to be
types once its body turns out to be a proposition, so a statement is a
proposition once parsed; a definition's type and body are typechecked
against each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .conversion import TypingError, convertible, infer
from .printer import (
    L_AND, L_ATOM, L_BINDER, L_EQ, L_IMP, L_NOT, L_OR, OPERATORS, print_term,
)
from .terms import (
    And, App, Branch, Const, Ctor, CtorDecl, Definition, Eq, Exists,
    FalseP, Fix, FolbridgeError, GlobalEnv, Ind, InductiveDecl, IntLit,
    INT, Match, Not, Or, Pi, PROP_HEADS, Problem, ScopeError, SortProp, SortType,
    TYPE, Term, TrueP, Var, builtin_type, has_interior_type_binder, lift,
    make_lams, make_pis, rebind,
)


class ParseError(FolbridgeError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class ArityError(FolbridgeError):
    pass


class PrenexError(FolbridgeError):
    pass


KEYWORDS = {
    "data", "def", "hyp", "lemma", "goal", "forall", "exists", "fun",
    "match", "return", "with", "end", "fix", "Type", "true_p", "false_p",
}

_PUNCT = [
    ":=", "=>", "->", "/\\", "\\/", "<>", "<=", "||", "&&",
    "(", ")", ",", ".", ":", "=", "|", "~", "<", "+", "-", "*", "/",
]

# One alternative per token class; the first that matches wins, so the
# punctuation keeps the order of _PUNCT (longer symbols first).
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r]+)|(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<int>[0-9]+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCT) + ")")


# Binary operators: symbol -> (level, associativity, builtin or None).
_BINARY = {sym: (level, assoc, builtin) for sym, level, assoc, builtin in OPERATORS}
_CONNECTIVES = {L_AND: And, L_OR: Or}


def _is_prop(t: Term) -> bool:
    """A parsed term is a proposition when its node says so: under its
    leading products it is an equation, a connective, an exists or
    true_p/false_p. An expression never has one of those below a product."""
    while type(t) is Pi:
        t = t.codomain
    return type(t) in PROP_HEADS


@dataclass
class Token:
    kind: str  # 'ident' | 'int' | 'punct' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind, word = m.lastgroup, m.group()
        i = m.end()
        if kind == "newline":
            line += 1
            col = 1
            continue
        if kind == "comment":
            continue
        if kind != "space":
            if kind == "ident" and word in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, word, line, col))
        col += len(word)
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.env = GlobalEnv()
        self.pending_inductive: str | None = None

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else self.tokens[-1]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("punct", "kw")

    def eat(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind not in ("punct", "kw"):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def eat_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.line, tok.col)
        self.next()
        return tok.text

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- name resolution -----------------------------------------------------

    def resolve(self, name: str, bound: list[str]) -> Term:
        if name in bound:
            return Var(bound.index(name))
        if name == "Int":
            return INT
        if name in self.env.definitions:
            return Const(name)
        if builtin_type(name) is not None:
            return Const(name)
        hit = self.env.find_ctor(name)
        if hit is not None:
            return Ctor(hit[0], hit[1])
        if name in self.env.inductives:
            return Ind(name)
        if self.pending_inductive == name:
            return Ind(name)
        tok = self.peek()
        raise ScopeError(f"{tok.line}:{tok.col}: unknown identifier {name!r}")

    # -- terms: propositions, expressions and types ---------------------------

    def parse(self, bound: list[str], ctx: list[Term] | None = None,
              min_level: int = L_BINDER) -> Term:
        """A term whose binary operators have level min_level or tighter,
        by precedence climbing. In an expression position ctx is None.
        Otherwise ctx[i] is the type of the variable bound[i] names, the
        term may be a proposition, and only the first atom of an
        application may be one, which is then the whole application. After
        an operator of level p the loop takes only looser operators, or p
        again when it is left associative, so comparisons and equations do
        not chain. A quantifier takes the rest of the term; in an
        expression position `forall` starts only a whole term or the
        codomain of an arrow."""
        tok = self.peek()
        if tok.kind == "kw" and (tok.text == "forall" and (ctx is not None or min_level <= L_IMP)
                                 or tok.text == "exists" and ctx is not None):
            return self.parse_quantifier(bound, ctx)
        if ctx is not None and self.at("~"):
            self.next()
            lhs = Not(self.proposition(bound, ctx, L_NOT))
        elif self.at("-") and self.peek(1).kind == "int":
            # A leading minus immediately before a literal is a negative literal.
            self.next()
            lhs = IntLit(-int(self.next().text))
        else:
            lhs = self.parse_atom(bound, ctx)
            if ctx is None or not _is_prop(lhs):
                while self._at_atom_start():
                    lhs = App(lhs, self.parse_atom(bound))
        limit = L_ATOM
        while True:
            tok = self.peek()
            op = _BINARY.get(tok.text) if tok.kind == "punct" else None
            if op is None or not min_level <= op[0] <= limit:
                return lhs
            level, assoc, builtin = op
            # The builtins, = and <> join expressions, /\ and \/ join
            # propositions, and -> is a function type or an implication. An
            # expression position ends at the proposition operators.
            if ctx is None and builtin is None and level != L_IMP:
                return lhs
            prop = ctx is not None and _is_prop(lhs)
            if level != L_IMP and prop != (level in _CONNECTIVES):
                return lhs
            self.next()
            right = level if assoc == "right" else level + 1
            if prop:
                rhs = self.proposition(bound, ctx, right)
            else:
                rhs = self.parse(bound, None, right)
            if builtin is not None:
                lhs = App(App(Const(builtin), lhs), rhs)
            elif level == L_EQ:
                eq = self.equation(bound, ctx, lhs, rhs)
                lhs = eq if tok.text == "=" else Not(eq)
            elif level == L_IMP:
                lhs = Pi("_", lhs, lift(rhs, 1))
            else:
                lhs = _CONNECTIVES[level](lhs, rhs)
            limit = level if assoc == "left" else level - 1

    def proposition(self, bound: list[str], ctx: list[Term],
                    min_level: int = L_BINDER) -> Term:
        """A term in a proposition position that must be a proposition."""
        t = self.parse(bound, ctx, min_level)
        if not _is_prop(t):
            self.fail("expected '=' or '<>' to form an atomic proposition")
        return t

    def parse_quantifier(self, bound: list[str], ctx: list[Term] | None) -> Term:
        """`forall` or `exists`, binders, `,` and the body. Outside an
        expression position each domain is checked to be a type once the
        body turns out to be a proposition; an `exists` needs one."""
        quantifier = Pi if self.next().text == "forall" else Exists
        binders, bound2 = self.parse_binders(bound)
        self.eat(",")
        ctxs = [ctx]
        if ctx is not None:
            for _, dom in binders:
                ctxs.append([dom] + ctxs[-1])
        body = (self.proposition if quantifier is Exists else self.parse)(bound2, ctxs.pop())
        if ctx is not None and _is_prop(body):
            for (_, dom), dctx in zip(binders, ctxs):
                self.check_domain(quantifier, dctx, dom)
        for nm, dom in reversed(binders):
            body = quantifier(nm, dom, body)
        return body

    def _at_atom_start(self) -> bool:
        tok = self.peek()
        if tok.kind in ("ident", "int"):
            return True
        if tok.kind == "kw" and tok.text in ("fun", "match", "fix", "Type"):
            return True
        return tok.kind == "punct" and tok.text == "("

    def parse_atom(self, bound: list[str], ctx: list[Term] | None = None) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "ident":
            self.next()
            return self.resolve(tok.text, bound)
        if tok.kind == "kw":
            if tok.text == "Type":
                self.next()
                return TYPE
            if tok.text == "fun":
                return self.parse_fun(bound)
            if tok.text == "match":
                return self.parse_match(bound)
            if tok.text == "fix":
                return self.parse_fix(bound)
            if ctx is not None and tok.text in ("true_p", "false_p"):
                self.next()
                return TrueP() if tok.text == "true_p" else FalseP()
        if self.at("("):
            self.next()
            t = self.parse(bound, ctx)
            self.eat(")")
            return t
        self.fail(f"expected a term, found {tok.text!r}")

    def parse_binders(self, bound: list[str]) -> tuple[list[tuple[str, Term]], list[str]]:
        """One or more `(x y : T)` groups; returns binders in binding order
        and the extended bound-name list."""
        binders: list[tuple[str, Term]] = []
        while self.at("("):
            save = self.pos
            self.next()
            names: list[str] = []
            while self.peek().kind == "ident":
                names.append(self.next().text)
            if not names or not self.at(":"):
                self.pos = save
                break
            self.eat(":")
            ty = self.parse(bound)
            self.eat(")")
            for nm in names:
                binders.append((nm, ty))
                ty = lift(ty, 1)
                bound = [nm] + bound
        if not binders:
            self.fail("expected at least one (name : type) binder")
        return binders, bound

    def parse_fun(self, bound: list[str]) -> Term:
        self.eat("fun")
        binders, bound2 = self.parse_binders(bound)
        self.eat("=>")
        body = self.parse(bound2)
        return make_lams(binders, body)

    def parse_match(self, bound: list[str]) -> Term:
        self.eat("match")
        scrut = self.parse(bound)
        self.eat("return")
        rty = self.parse(bound)
        self.eat("with")
        arms: list[tuple[str, list[str], Term, Token]] = []
        while self.at("|"):
            self.next()
            ctok = self.peek()
            cname = self.eat_ident()
            binder_names: list[str] = []
            while self.peek().kind == "ident":
                binder_names.append(self.next().text)
            self.eat("=>")
            body_bound = list(reversed(binder_names)) + bound
            body = self.parse(body_bound)
            arms.append((cname, binder_names, body, ctok))
        self.eat("end")
        if not arms:
            self.fail("match needs at least one branch")
        hit = self.env.find_ctor(arms[0][0])
        if hit is None:
            raise ScopeError(f"unknown constructor {arms[0][0]!r}")
        ind_name = hit[0]
        decl = self.env.inductive(ind_name)
        by_name = {c.name: i for i, c in enumerate(decl.ctors)}
        slots: list[Branch | None] = [None] * len(decl.ctors)
        for cname, binder_names, body, ctok in arms:
            if cname not in by_name:
                raise ArityError(
                    f"{ctok.line}:{ctok.col}: {cname!r} is not a constructor of {ind_name}")
            k = by_name[cname]
            if slots[k] is not None:
                raise ArityError(f"duplicate branch for constructor {cname}")
            want = len(decl.ctors[k].arg_types)
            if len(binder_names) != want:
                raise ArityError(
                    f"{ctok.line}:{ctok.col}: constructor {cname} takes {want} "
                    f"argument(s), pattern binds {len(binder_names)}")
            slots[k] = Branch(tuple(binder_names), body)
        missing = [decl.ctors[i].name for i, b in enumerate(slots) if b is None]
        if missing:
            raise ArityError(f"match on {ind_name} is missing branches for: {', '.join(missing)}")
        return Match(scrut, ind_name, rty, tuple(slots))

    def parse_fix(self, bound: list[str]) -> Term:
        self.eat("fix")
        name = self.eat_ident()
        self.eat("/")
        dtok = self.peek()
        if dtok.kind != "int":
            self.fail("expected the decreasing-argument index after '/'")
        dec = int(self.next().text)
        binders, bound2 = self.parse_binders([name] + bound)
        self.eat(":")
        rty = self.parse(bound2)
        self.eat(":=")
        body = self.parse(bound2)
        full_type = make_pis(binders, rty)
        # full_type must not mention the fix self-binder.
        full_type_outer = _unshift(full_type, 1)
        if full_type_outer is None:
            self.fail("fixpoint annotation may not mention the fixpoint itself")
        return Fix(name, dec, full_type_outer, make_lams(binders, body))

    # -- typing judgements ----------------------------------------------------
    # Every typing judgement of the parser goes through `infer`, so a
    # wrapper of `parser.infer` times all of them.

    def check_domain(self, quantifier: type, ctx: list[Term], dom: Term) -> None:
        sort = infer(self.env, ctx, dom)[1]
        if quantifier is Exists and not isinstance(sort, SortType):
            raise TypingError("existential domain is not a type")
        if not isinstance(sort, (SortType, SortProp)):
            raise TypingError("binder domain is not a type or proposition")

    def equation(self, bound: list[str], ctx: list[Term], lhs: Term, rhs: Term) -> Eq:
        """The equation lhs = rhs at the type of lhs. Each side is typed
        once, and the type of rhs must convert to that of lhs."""
        lty = infer(self.env, ctx, lhs)[1]
        rty = infer(self.env, ctx, rhs)[1]
        if not convertible(self.env, ctx, rty, lty):
            raise TypingError(f"equality sides disagree: {print_term(lty, self.env, bound)}"
                              f" vs {print_term(rty, self.env, bound)}")
        return Eq(lty, lhs, rhs)

    # -- declarations ------------------------------------------------------------

    def parse_data(self) -> None:
        self.eat("data")
        name = self.eat_ident()
        params: list[str] = []
        if self.at("("):
            self.next()
            while self.peek().kind == "ident":
                params.append(self.next().text)
            self.eat(")")
        self.eat("=")
        self.pending_inductive = name
        param_bound = list(reversed(params))
        ctors: list[CtorDecl] = []
        while True:
            cname = self.eat_ident()
            arg_types: list[Term] = []
            while self.at("("):
                self.next()
                arg_types.append(self.parse(param_bound))
                self.eat(")")
            ctors.append(CtorDecl(cname, tuple(arg_types)))
            if self.at("|"):
                self.next()
                continue
            break
        self.eat(".")
        self.pending_inductive = None
        self.env.declare_inductive(InductiveDecl(name, tuple(params), tuple(ctors)))

    def parse_def(self) -> None:
        self.eat("def")
        name = self.eat_ident()
        binders: list[tuple[str, Term]] = []
        bound: list[str] = []
        if self.at("(") :
            binders, bound = self.parse_binders([])
        self.eat(":")
        rty = self.parse(bound)
        self.eat("=")
        body = self.parse(bound)
        self.eat(".")
        full_type = make_pis(binders, rty)
        full_body = make_lams(binders, body)
        try:
            infer(self.env, [], full_type)
            bty = infer(self.env, [], full_body)[1]
        except TypingError as e:
            raise TypingError(f"in definition {name}: {e}") from None
        if not convertible(self.env, [], bty, full_type):
            raise TypingError(f"definition {name}: body has type {print_term(bty, self.env)},"
                              f" declared {print_term(full_type, self.env)}")
        check_prenex(full_type, what=f"definition {name}")
        self.env.declare_definition(Definition(name, full_type, full_body))

    def parse_statement(self, what: str) -> Term:
        try:
            stmt = self.proposition([], [])
        except TypingError as e:
            raise TypingError(f"in {what}: {e}") from None
        self.eat(".")
        check_prenex(stmt, what=what)
        return stmt

    def parse_problem(self) -> Problem:
        hyps: list[tuple[str, Term]] = []
        lemma_params: list[str] = []
        goal: Term | None = None
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if self.at("data"):
                self.parse_data()
            elif self.at("def"):
                self.parse_def()
            elif self.at("hyp") or self.at("lemma"):
                is_lemma = self.next().text == "lemma"
                name = self.eat_ident()
                if name in {n for n, _ in hyps} or name in self.env.names():
                    raise ScopeError(f"hypothesis name already used: {name}")
                self.eat(":")
                stmt = self.parse_statement(f"hypothesis {name}")
                hyps.append((name, stmt))
                if is_lemma:
                    lemma_params.append(name)
            elif self.at("goal"):
                self.next()
                goal = self.parse_statement("goal")
                tok = self.peek()
                if tok.kind != "eof":
                    raise ParseError("goal must be the final declaration", tok.line, tok.col)
                break
            else:
                self.fail("expected a declaration (data/def/hyp/lemma/goal)")
        if goal is None:
            self.fail("problem has no goal")
        return Problem(self.env, hyps, goal, lemma_params)


def _unshift(t: Term, amount: int) -> Term | None:
    """Inverse of lift when the lowest `amount` indices are unused."""
    def on_free(k: int, d: int) -> Term:
        if k < amount:
            raise _UnshiftHit()
        return Var(k + d - amount)
    try:
        return rebind(t, on_free)
    except _UnshiftHit:
        return None


class _UnshiftHit(Exception):
    pass


def check_prenex(stmt: Term, what: str = "statement") -> None:
    """Type binders (forall A : Type) must form a leading prefix of the
    statement / definition type; none may occur deeper in the proposition
    structure or after an object binder."""
    if has_interior_type_binder(stmt):
        raise PrenexError(f"{what}: type quantifier is not in prenex position")


def parse_problem(text: str) -> Problem:
    """Parse, scope-check and typecheck a problem file."""
    return Parser(text).parse_problem()


def parse_term(text: str, env: GlobalEnv | None = None,
               bound: list[str] | None = None) -> Term:
    """Parse a standalone proposition or expression over the names in
    `bound` (innermost first). A proposition is typechecked as it is
    parsed, in a context that gives those names no types, so an open
    equation raises TypingError. A closed expression is typechecked; an
    open one is returned unchecked."""
    p = Parser(text)
    p.env = env if env is not None else GlobalEnv()
    bound = bound or []
    t = p.parse(bound, [])
    if p.peek().kind != "eof":
        p.fail("trailing input")
    if not bound and not _is_prop(t):
        infer(p.env, [], t)
    return t
