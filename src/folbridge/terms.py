"""Core language syntax: de Bruijn terms, declarations, environments.

Terms double as types and Prop-level formulas (CIC style). Variables are
de Bruijn indices; index 0 is the innermost binder. Every index rewrite
(lift, subst, subst_list and the shifts of the other modules) is one call
to rebind, which hands each free variable and its binder depth to a
function. Binder name fields are printing hints only: alpha_eq ignores
them, and alpha_key erases them, so that alpha-equal terms have equal (and
equally hashed) keys.

The kernels (map_subterms and with it rebind, lift, subst and subst_list,
and alpha_key) return the input node itself when none of its children
changed, so a closed term survives lift and subst, and a binder-free term
is its own key, without a copy. Terms are immutable, so this sharing is
never observable: an `is` check on a result is only a fast path, and no
code needs one for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class FolbridgeError(Exception):
    """Base class for all package errors."""


class ScopeError(FolbridgeError):
    pass


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    """Bound variable, de Bruijn index (0 = innermost binder)."""
    index: int


@dataclass(frozen=True)
class Const(Term):
    """Reference to a global definition or builtin function."""
    name: str


@dataclass(frozen=True)
class Ctor(Term):
    """Constructor of an inductive type, by declaration position."""
    inductive: str
    ctor_index: int


@dataclass(frozen=True)
class Ind(Term):
    """An inductive type constructor itself (e.g. list)."""
    inductive: str


@dataclass(frozen=True)
class TVar(Term):
    """Rigid type symbol: a section-style type variable fixed by the goal.

    Stands for one of the goal's leading type binders once it is
    stripped; closed (no de Bruijn index) and never bound.
    """
    name: str


@dataclass(frozen=True)
class IntT(Term):
    """The builtin integer type."""


@dataclass(frozen=True)
class SortType(Term):
    pass


@dataclass(frozen=True)
class SortProp(Term):
    pass


@dataclass(frozen=True)
class Pi(Term):
    """Dependent product; houses both forall and -> (non-dependent)."""
    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Lam(Term):
    binder: str
    domain: Term
    body: Term


@dataclass(frozen=True)
class App(Term):
    head: Term
    arg: Term


@dataclass(frozen=True)
class Branch:
    """Match branch: body lives under len(binders) extra binders.

    Constructor argument i (0-based, in declaration order) has de Bruijn
    index len(binders)-1-i inside the body.
    """
    binders: tuple[str, ...]
    body: Term

    @property
    def arity(self) -> int:
        return len(self.binders)


@dataclass(frozen=True)
class Match(Term):
    """Non-dependent pattern matching, one branch per constructor in
    declaration order. scrutinee_type/return_type are explicit; the parser
    fills scrutinee_type by synthesis."""
    scrutinee: Term
    scrutinee_type: Term
    return_type: Term
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class Fix(Term):
    """Structural fixpoint. body lives under one extra binder (the
    recursive self-reference); decreasing indexes the Pi-chain argument
    that must be constructor-headed before unfolding."""
    binder: str
    decreasing: int
    full_type: Term
    body: Term


@dataclass(frozen=True)
class Eq(Term):
    """Prop-level equality at an explicit type."""
    at_type: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TrueP(Term):
    pass


@dataclass(frozen=True)
class FalseP(Term):
    pass


@dataclass(frozen=True)
class And(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Or(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not(Term):
    body: Term


@dataclass(frozen=True)
class Exists(Term):
    """Existential quantifier; only produced by the exhaustiveness axiom
    generator (off by default) and rejected by FOL extraction."""
    binder: str
    domain: Term
    body: Term


@dataclass(frozen=True)
class IntLit(Term):
    value: int


TYPE = SortType()
PROP = SortProp()
INT = IntT()
BOOL = Ind("Bool")
TRUE = Ctor("Bool", 0)
FALSE = Ctor("Bool", 1)


# ---------------------------------------------------------------------------
# Declarations and environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CtorDecl:
    """Constructor declaration. arg_types are de Bruijn terms over the
    inductive's type parameters (for params (A, B): Var 1 = A, Var 0 = B)
    and may reference this or earlier inductives; no Pi inside."""
    name: str
    arg_types: tuple[Term, ...]


@dataclass(frozen=True)
class InductiveDecl:
    name: str
    params: tuple[str, ...]
    ctors: tuple[CtorDecl, ...]


@dataclass(frozen=True)
class Definition:
    name: str
    type: Term
    body: Term


BOOL_DECL = InductiveDecl("Bool", (), (CtorDecl("true", ()), CtorDecl("false", ())))


def _pi(*steps: Term) -> Term:
    ty = steps[-1]
    for dom in reversed(steps[:-1]):
        ty = Pi("_", dom, ty)
    return ty


# Builtin function table: opaque constants with fixed types. Delta never
# unfolds them; normalize/eval interpret them on literal arguments.
BUILTIN_FUNCTIONS: dict[str, Term] = {
    "add": _pi(INT, INT, INT),
    "sub": _pi(INT, INT, INT),
    "mul": _pi(INT, INT, INT),
    "le": _pi(INT, INT, BOOL),
    "lt": _pi(INT, INT, BOOL),
    "orb": _pi(BOOL, BOOL, BOOL),
    "andb": _pi(BOOL, BOOL, BOOL),
    "negb": _pi(BOOL, BOOL),
    "eqb": Pi("A", TYPE, _pi(Var(0), Var(1), BOOL)),
}

# Type names the SMT back-end interprets natively; no datatype axioms and
# no definition fetching for these (§4.1-style exclusion list).
INTERPRETED_TYPES = ("Int", "Bool")


@dataclass
class GlobalEnv:
    """Named declarations. Insertion order is declaration order; names are
    unique across inductives, constructors, definitions and builtins."""
    inductives: dict[str, InductiveDecl] = field(default_factory=dict)
    definitions: dict[str, Definition] = field(default_factory=dict)
    # Facts derived from the inductive declarations (constructor types and
    # names, least inhabitant sizes), keyed by (function name, arguments) and
    # filled on demand; declare_inductive clears it.
    memo: dict[tuple, object] = field(default_factory=dict, init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        if "Bool" not in self.inductives:
            self.inductives = {"Bool": BOOL_DECL, **self.inductives}

    # -- lookup ------------------------------------------------------------

    def inductive(self, name: str) -> InductiveDecl:
        try:
            return self.inductives[name]
        except KeyError:
            raise ScopeError(f"unknown inductive type: {name}") from None

    def definition(self, name: str) -> Definition:
        try:
            return self.definitions[name]
        except KeyError:
            raise ScopeError(f"unknown constant: {name}") from None

    def ctor_decl(self, ind: str, index: int) -> CtorDecl:
        decl = self.inductive(ind)
        if not 0 <= index < len(decl.ctors):
            raise ScopeError(f"{ind} has no constructor #{index}")
        return decl.ctors[index]

    def find_ctor(self, name: str) -> tuple[str, int] | None:
        ctors = self.memo.get(("find_ctor",))
        if ctors is None:
            ctors = self.memo["find_ctor",] = {}
            for decl in self.inductives.values():
                for i, c in enumerate(decl.ctors):
                    ctors.setdefault(c.name, (decl.name, i))
        return ctors.get(name)

    def names(self) -> set[str]:
        out = set(self.inductives) | set(self.definitions) | set(BUILTIN_FUNCTIONS)
        for decl in self.inductives.values():
            out.update(c.name for c in decl.ctors)
        return out

    # -- declaration (parser-facing) ----------------------------------------

    def declare_inductive(self, decl: InductiveDecl) -> None:
        if not decl.ctors:
            raise ScopeError(f"inductive {decl.name} needs at least one constructor")
        taken = self.names()
        for n in [decl.name] + [c.name for c in decl.ctors]:
            if n in taken:
                raise ScopeError(f"name already declared: {n}")
        for c in decl.ctors:
            for t in c.arg_types:
                if any(isinstance(s, (Pi, Lam, Match, Fix)) for s in subterms(t)):
                    raise ScopeError(
                        f"constructor {c.name}: argument types must be first-order")
        self.inductives[decl.name] = decl
        self.memo.clear()

    def declare_definition(self, d: Definition) -> None:
        if d.name in self.names():
            raise ScopeError(f"name already declared: {d.name}")
        self.definitions[d.name] = d


def builtin_type(name: str) -> Term | None:
    return BUILTIN_FUNCTIONS.get(name)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    env: GlobalEnv
    hypotheses: list[tuple[str, Term]]
    goal: Term
    lemma_params: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

# Node classes without subterms, which the walks below handle without recursing.
_LEAVES = frozenset({Const, Ctor, Ind, TVar, IntT, SortType, SortProp,
                     TrueP, FalseP, IntLit})


def children(t: Term) -> tuple[tuple[Term, int], ...]:
    """Immediate subterms with the number of binders crossed to reach each."""
    if type(t) in _LEAVES or type(t) is Var:
        return ()
    if isinstance(t, Pi):
        return ((t.domain, 0), (t.codomain, 1))
    if isinstance(t, Lam):
        return ((t.domain, 0), (t.body, 1))
    if isinstance(t, App):
        return ((t.head, 0), (t.arg, 0))
    if isinstance(t, Match):
        # scrutinee_type is None on unelaborated parser output.
        out = [(t.scrutinee, 0)]
        if t.scrutinee_type is not None:
            out.append((t.scrutinee_type, 0))
        out.append((t.return_type, 0))
        out.extend((b.body, b.arity) for b in t.branches)
        return tuple(out)
    if isinstance(t, Fix):
        return ((t.full_type, 0), (t.body, 1))
    if isinstance(t, Eq):
        if t.at_type is None:
            return ((t.lhs, 0), (t.rhs, 0))
        return ((t.at_type, 0), (t.lhs, 0), (t.rhs, 0))
    if isinstance(t, (And, Or)):
        return ((t.lhs, 0), (t.rhs, 0))
    if isinstance(t, Not):
        return ((t.body, 0),)
    if isinstance(t, Exists):
        return ((t.domain, 0), (t.body, 1))
    return ()


def subterms(t: Term) -> Iterator[Term]:
    """Preorder walk including t itself. An explicit stack keeps each step
    O(1); nested generators would pass every node up through all of its
    ancestors, O(size * depth) in all."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(c for c, _ in reversed(children(s)))


def map_subterms(t: Term, f, depth: int = 0) -> Term:
    """Rebuild t with f applied to every immediate child; f(child, depth)
    receives the binder depth of the child. Returns t itself when f returns
    every child unchanged (by identity)."""
    if isinstance(t, Pi):
        a, b = f(t.domain, depth), f(t.codomain, depth + 1)
        return t if a is t.domain and b is t.codomain else Pi(t.binder, a, b)
    if isinstance(t, Lam):
        a, b = f(t.domain, depth), f(t.body, depth + 1)
        return t if a is t.domain and b is t.body else Lam(t.binder, a, b)
    if isinstance(t, App):
        a, b = f(t.head, depth), f(t.arg, depth)
        return t if a is t.head and b is t.arg else App(a, b)
    if isinstance(t, Match):
        scrut = f(t.scrutinee, depth)
        sty = None if t.scrutinee_type is None else f(t.scrutinee_type, depth)
        rty = f(t.return_type, depth)
        bodies = [f(b.body, depth + b.arity) for b in t.branches]
        if (scrut is t.scrutinee and sty is t.scrutinee_type and rty is t.return_type
                and all(new is b.body for new, b in zip(bodies, t.branches))):
            return t
        return Match(scrut, sty, rty, tuple(
            b if new is b.body else Branch(b.binders, new)
            for new, b in zip(bodies, t.branches)))
    if isinstance(t, Fix):
        a, b = f(t.full_type, depth), f(t.body, depth + 1)
        return t if a is t.full_type and b is t.body else Fix(t.binder, t.decreasing, a, b)
    if isinstance(t, Eq):
        at = None if t.at_type is None else f(t.at_type, depth)
        a, b = f(t.lhs, depth), f(t.rhs, depth)
        return t if at is t.at_type and a is t.lhs and b is t.rhs else Eq(at, a, b)
    if isinstance(t, (And, Or)):
        a, b = f(t.lhs, depth), f(t.rhs, depth)
        return t if a is t.lhs and b is t.rhs else type(t)(a, b)
    if isinstance(t, Not):
        a = f(t.body, depth)
        return t if a is t.body else Not(a)
    if isinstance(t, Exists):
        a, b = f(t.domain, depth), f(t.body, depth + 1)
        return t if a is t.domain and b is t.body else Exists(t.binder, a, b)
    return t


# ---------------------------------------------------------------------------
# Lifting and substitution
# ---------------------------------------------------------------------------

def rebind(t: Term, on_free, depth: int = 0) -> Term:
    """Rebuild t with its free variables replaced: a Var(i) under d binders
    (d counted from depth) with i >= d becomes on_free(i - d, d). Every
    de Bruijn index rewrite goes through this one traversal."""
    def go(s: Term, d: int) -> Term:
        if isinstance(s, Var):
            return s if s.index < d else on_free(s.index - d, d)
        if type(s) in _LEAVES:
            return s
        return map_subterms(s, go, d)
    try:
        return go(t, depth)
    finally:
        # go's closure cell holds go: emptying it leaves no reference cycle
        # for the cyclic garbage collector.
        del go


def lift(t: Term, amount: int, cutoff: int = 0) -> Term:
    """Raise every free Var index >= cutoff by amount."""
    if amount == 0:
        return t
    return rebind(t, lambda k, d: Var(k + d + amount), cutoff)


def subst(t: Term, index: int, replacement: Term) -> Term:
    """Capture-avoiding substitution of Var(index) by replacement; free
    variables above index are decremented."""
    return rebind(t, lambda k, d: lift(replacement, d) if k == 0 else Var(k + d - 1),
                  index)


def subst_list(t: Term, values: list[Term]) -> Term:
    """Simultaneous substitution Var(i) := values[i] for i < len(values);
    higher frees drop by len(values). values are in the outer context."""
    n = len(values)
    return rebind(t, lambda k, d: lift(values[k], d) if k < n else Var(k + d - n))


def well_scoped(t: Term, depth: int = 0) -> bool:
    """Check every Var is bound by an enclosing binder or below depth."""
    if isinstance(t, Var):
        return 0 <= t.index < depth
    return all(well_scoped(c, depth + extra) for c, extra in children(t))


def is_closed(t: Term) -> bool:
    return well_scoped(t, 0)


def alpha_eq(t: Term, u: Term) -> bool:
    """Structural equality ignoring binder name hints."""
    if t is u:
        return True
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return t.index == u.index
    if isinstance(t, Const):
        return t.name == u.name
    if isinstance(t, Ctor):
        return t.inductive == u.inductive and t.ctor_index == u.ctor_index
    if isinstance(t, Ind):
        return t.inductive == u.inductive
    if isinstance(t, TVar):
        return t.name == u.name
    if isinstance(t, IntLit):
        return t.value == u.value
    if isinstance(t, Fix) and t.decreasing != u.decreasing:
        return False
    if isinstance(t, Match):
        if len(t.branches) != len(u.branches):
            return False
        if any(a.arity != b.arity for a, b in zip(t.branches, u.branches)):
            return False
    tc, uc = children(t), children(u)
    if len(tc) != len(uc):
        return False
    return all(alpha_eq(a, b) for (a, _), (b, _) in zip(tc, uc))


def alpha_key(t: Term) -> Term:
    """t with every binder name hint erased: alpha_key(t) == alpha_key(u)
    exactly when alpha_eq(t, u), so keys can index sets and dicts. A term
    without binder names is its own key."""
    if type(t) in _LEAVES or type(t) is Var:
        return t
    if isinstance(t, (Pi, Lam, Exists)):
        body = t.codomain if isinstance(t, Pi) else t.body
        a, b = alpha_key(t.domain), alpha_key(body)
        if t.binder == "" and a is t.domain and b is body:
            return t
        return type(t)("", a, b)
    if isinstance(t, Fix):
        a, b = alpha_key(t.full_type), alpha_key(t.body)
        if t.binder == "" and a is t.full_type and b is t.body:
            return t
        return Fix("", t.decreasing, a, b)
    if isinstance(t, Match) and any(any(b.binders) for b in t.branches):
        return Match(
            alpha_key(t.scrutinee),
            None if t.scrutinee_type is None else alpha_key(t.scrutinee_type),
            alpha_key(t.return_type),
            tuple(Branch(("",) * b.arity, alpha_key(b.body)) for b in t.branches),
        )
    return map_subterms(t, _key_child)


def _key_child(s: Term, _depth: int) -> Term:
    return alpha_key(s)


# ---------------------------------------------------------------------------
# Spines and telescopes
# ---------------------------------------------------------------------------

def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into (head, [args])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.head
    args.reverse()
    return t, args


def make_app(head: Term, args: list[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def strip_pis(t: Term) -> tuple[list[tuple[str, Term]], Term]:
    """Unfold a Pi chain into ([(name, domain), ...], codomain); each
    domain is in the context extended by the previous binders."""
    binders: list[tuple[str, Term]] = []
    while isinstance(t, Pi):
        binders.append((t.binder, t.domain))
        t = t.codomain
    return binders, t


def make_pis(binders: list[tuple[str, Term]], body: Term) -> Term:
    for name, dom in reversed(binders):
        body = Pi(name, dom, body)
    return body


def strip_lams(t: Term) -> tuple[list[tuple[str, Term]], Term]:
    binders: list[tuple[str, Term]] = []
    while isinstance(t, Lam):
        binders.append((t.binder, t.domain))
        t = t.body
    return binders, t


def make_lams(binders: list[tuple[str, Term]], body: Term) -> Term:
    for name, dom in reversed(binders):
        body = Lam(name, dom, body)
    return body


def has_interior_type_binder(stmt: Term) -> bool:
    """True when a type binder (forall A : Type) occurs in the proposition
    structure of stmt after its leading prefix of type binders: after an
    object binder, in a premise, or under a connective or an exists. Types
    inside equations and object terms are not inspected."""
    while isinstance(stmt, Pi) and isinstance(stmt.domain, SortType):
        stmt = stmt.codomain

    def bad(t: Term) -> bool:
        if isinstance(t, Pi):
            return isinstance(t.domain, SortType) or bad(t.codomain) or bad(t.domain)
        if isinstance(t, (And, Or)):
            return bad(t.lhs) or bad(t.rhs)
        if isinstance(t, (Not, Exists)):
            return bad(t.body)
        return False

    return bad(stmt)


# ---------------------------------------------------------------------------
# Inductive type helpers
# ---------------------------------------------------------------------------

def ind_type(decl: InductiveDecl) -> Term:
    """Type of the inductive's type constructor: Type -> ... -> Type."""
    ty: Term = TYPE
    for _ in decl.params:
        ty = Pi("_", TYPE, ty)
    return ty


def ctor_type(env: GlobalEnv, ind: str, index: int) -> Term:
    """Closed type of a constructor: forall params, args -> I params;
    computed once per environment."""
    ty = env.memo.get(("ctor_type", ind, index))
    if ty is None:
        ty = env.memo["ctor_type", ind, index] = _ctor_type(env, ind, index)
    return ty


def _ctor_type(env: GlobalEnv, ind: str, index: int) -> Term:
    decl = env.inductive(ind)
    c = decl.ctors[index]
    p = len(decl.params)
    n = len(c.arg_types)
    # Result type under params and value binders: params are Var(n+p-1-i).
    result = make_app(Ind(ind), [Var(n + p - 1 - i) for i in range(p)])
    ty = result
    # Value binders, innermost last; arg_types[j] lives under the params
    # only, so lift it past the j earlier value binders.
    for j in reversed(range(n)):
        ty = Pi("_", lift(c.arg_types[j], j), ty)
    for name in reversed(decl.params):
        ty = Pi(name, TYPE, ty)
    return ty


def ctor_arg_types(env: GlobalEnv, ind: str, index: int, type_args: list[Term]) -> list[Term]:
    """Constructor argument types instantiated at the given type args
    (which must not be captured: they are in the caller's context and the
    results reference nothing else)."""
    decl = env.inductive(ind)
    c = decl.ctors[index]
    if len(type_args) != len(decl.params):
        raise ScopeError(f"{ind} expects {len(decl.params)} type argument(s)")
    values = list(reversed(type_args))  # Var(0) is the last param
    return [subst_list(t, values) for t in c.arg_types]


def as_inductive_instance(t: Term) -> tuple[str, list[Term]] | None:
    """Recognize `I T1 ... Tn` with an Ind head; returns (name, args)."""
    head, args = spine(t)
    if isinstance(head, Ind):
        return head.inductive, args
    return None
