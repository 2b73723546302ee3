"""Core language syntax: de Bruijn terms, declarations, environments.

Terms double as types and Prop-level formulas (CIC style). Variables are
de Bruijn indices; index 0 is the innermost binder. Every index rewrite
(lift, subst, subst_list and the shifts of the other modules) is one call
to rebind, which hands each free variable and its binder depth to a
function. Binder name fields are printing hints only: they are excluded
from `==` and `hash`, so term equality is alpha-equivalence and
alpha-equal terms index the same set or dict entry. `repr` and the printer
still show them; a test that pins exact names compares `repr`.

Each node computes its hash and its reach (how far above it its free
variables point) once, from its children, when it is built. Nodes are
immutable by convention: nothing assigns a field after `__init__`, because
those cached facts are computed from the fields.

The kernels (map_subterms and with it rebind, lift, subst and subst_list)
return the input node itself when none of its children changed, and rebind
does not enter a subterm whose reach stays below the binder depth, so a
closed term survives lift and subst without a copy or a walk. Terms are
immutable, so this sharing is never observable: an `is` check on a result
is only a fast path, and no code needs one for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator


class FolbridgeError(Exception):
    """Base class for all package errors."""


class ScopeError(FolbridgeError):
    pass


class Term:
    """Base of the term nodes.

    Each node computes two facts from its children once, when it is built:
    `_hash`, which ignores binder names, and `_reach`, how many binders
    above the node its free variables reach (Var(i) reaches i + 1, and a
    child under k binders of the node counts k less). No field of a node is
    ever None.
    `==` is True on identity, False at once when the hashes differ, and
    otherwise compares the fields that the class's `_key` reads.
    """
    __slots__ = ("_hash", "_reach")
    # The fields `==` compares, binder names excluded. A class without
    # fields compares by its class and hash alone.
    _key = attrgetter("_hash")

    def __init__(self) -> None:  # the field-less leaves: IntT, the sorts, TrueP, FalseP
        self._hash = hash(type(self))
        self._reach = 0

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Var(Term):
    """Bound variable, de Bruijn index (0 = innermost binder)."""
    __slots__ = ("index",)
    _key = attrgetter("index")

    def __init__(self, index: int) -> None:
        self.index = index
        self._hash = hash((Var, index))
        self._reach = index + 1 if index >= 0 else 0


class Const(Term):
    """Reference to a global definition or builtin function."""
    __slots__ = ("name",)
    _key = attrgetter("name")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = hash((Const, name))
        self._reach = 0


class Ctor(Term):
    """Constructor of an inductive type, by declaration position."""
    __slots__ = ("inductive", "ctor_index")
    _key = attrgetter("inductive", "ctor_index")

    def __init__(self, inductive: str, ctor_index: int) -> None:
        self.inductive = inductive
        self.ctor_index = ctor_index
        self._hash = hash((Ctor, inductive, ctor_index))
        self._reach = 0


class Ind(Term):
    """An inductive type constructor itself (e.g. list)."""
    __slots__ = ("inductive",)
    _key = attrgetter("inductive")

    def __init__(self, inductive: str) -> None:
        self.inductive = inductive
        self._hash = hash((Ind, inductive))
        self._reach = 0


class TVar(Term):
    """Rigid type symbol: a section-style type variable fixed by the goal.

    Stands for one of the goal's leading type binders once it is
    stripped; closed (no de Bruijn index) and never bound.
    """
    __slots__ = ("name",)
    _key = attrgetter("name")

    def __init__(self, name: str) -> None:
        self.name = name
        self._hash = hash((TVar, name))
        self._reach = 0


class IntT(Term):
    """The builtin integer type."""
    __slots__ = ()


class SortType(Term):
    __slots__ = ()


class SortProp(Term):
    __slots__ = ()


class Pi(Term):
    """Dependent product; houses both forall and -> (non-dependent)."""
    __slots__ = ("binder", "domain", "codomain")
    _key = attrgetter("domain", "codomain")

    def __init__(self, binder: str, domain: Term, codomain: Term) -> None:
        self.binder = binder
        self.domain = domain
        self.codomain = codomain
        self._hash = hash((Pi, domain._hash, codomain._hash))
        self._reach = max(domain._reach, codomain._reach - 1)


class Lam(Term):
    __slots__ = ("binder", "domain", "body")
    _key = attrgetter("domain", "body")

    def __init__(self, binder: str, domain: Term, body: Term) -> None:
        self.binder = binder
        self.domain = domain
        self.body = body
        self._hash = hash((Lam, domain._hash, body._hash))
        self._reach = max(domain._reach, body._reach - 1)


class App(Term):
    __slots__ = ("head", "arg")
    _key = attrgetter("head", "arg")

    def __init__(self, head: Term, arg: Term) -> None:
        self.head = head
        self.arg = arg
        self._hash = hash((App, head._hash, arg._hash))
        r, s = head._reach, arg._reach
        self._reach = r if r > s else s


class Branch:
    """Match branch: body lives under len(binders) extra binders.

    Constructor argument i (0-based, in declaration order) has de Bruijn
    index len(binders)-1-i inside the body. Equality and hash see the
    arity and the body, not the binder names.
    """
    __slots__ = ("binders", "body", "arity", "_hash")

    def __init__(self, binders: tuple[str, ...], body: Term) -> None:
        self.binders = binders
        self.body = body
        self.arity = len(binders)
        self._hash = hash((self.arity, body._hash))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Branch:
            return NotImplemented
        return (self._hash == other._hash and self.arity == other.arity
                and self.body == other.body)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Branch(binders={self.binders!r}, body={self.body!r})"


class Match(Term):
    """Non-dependent pattern matching on a value of the named inductive,
    one branch per constructor in declaration order; the return type is
    explicit."""
    __slots__ = ("scrutinee", "inductive", "return_type", "branches")
    _key = attrgetter("scrutinee", "inductive", "return_type", "branches")

    def __init__(self, scrutinee: Term, inductive: str, return_type: Term,
                 branches: tuple[Branch, ...]) -> None:
        self.scrutinee = scrutinee
        self.inductive = inductive
        self.return_type = return_type
        self.branches = branches
        self._hash = hash((Match, scrutinee._hash, inductive, return_type._hash,
                           *[b._hash for b in branches]))
        self._reach = max(scrutinee._reach, return_type._reach,
                          *[b.body._reach - b.arity for b in branches])


class Fix(Term):
    """Structural fixpoint. body lives under one extra binder (the
    recursive self-reference); decreasing indexes the Pi-chain argument
    that must be constructor-headed before unfolding."""
    __slots__ = ("binder", "decreasing", "full_type", "body")
    _key = attrgetter("decreasing", "full_type", "body")

    def __init__(self, binder: str, decreasing: int, full_type: Term, body: Term) -> None:
        self.binder = binder
        self.decreasing = decreasing
        self.full_type = full_type
        self.body = body
        self._hash = hash((Fix, decreasing, full_type._hash, body._hash))
        self._reach = max(full_type._reach, body._reach - 1)


class Eq(Term):
    """Prop-level equality at an explicit type."""
    __slots__ = ("at_type", "lhs", "rhs")
    _key = attrgetter("at_type", "lhs", "rhs")

    def __init__(self, at_type: Term, lhs: Term, rhs: Term) -> None:
        self.at_type = at_type
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((Eq, at_type._hash, lhs._hash, rhs._hash))
        self._reach = max(at_type._reach, lhs._reach, rhs._reach)


class TrueP(Term):
    __slots__ = ()


class FalseP(Term):
    __slots__ = ()


class And(Term):
    __slots__ = ("lhs", "rhs")
    _key = attrgetter("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((And, lhs._hash, rhs._hash))
        self._reach = max(lhs._reach, rhs._reach)


class Or(Term):
    __slots__ = ("lhs", "rhs")
    _key = attrgetter("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((Or, lhs._hash, rhs._hash))
        self._reach = max(lhs._reach, rhs._reach)


class Not(Term):
    __slots__ = ("body",)
    _key = attrgetter("body")

    def __init__(self, body: Term) -> None:
        self.body = body
        self._hash = hash((Not, body._hash))
        self._reach = body._reach


class Exists(Term):
    """Existential quantifier: written `exists` in statements, and produced
    by the exhaustiveness axiom generator (off by default)."""
    __slots__ = ("binder", "domain", "body")
    _key = attrgetter("domain", "body")

    def __init__(self, binder: str, domain: Term, body: Term) -> None:
        self.binder = binder
        self.domain = domain
        self.body = body
        self._hash = hash((Exists, domain._hash, body._hash))
        self._reach = max(domain._reach, body._reach - 1)


class IntLit(Term):
    __slots__ = ("value",)
    _key = attrgetter("value")

    def __init__(self, value: int) -> None:
        self.value = value
        self._hash = hash((IntLit, value))
        self._reach = 0


# The node classes that head a proposition, under its leading products: a
# product whose final codomain is one of them has sort Prop, or is ill-typed.
PROP_HEADS = frozenset({Eq, And, Or, Not, Exists, TrueP, FalseP})

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
    # Facts derived from the declarations (constructor types and names,
    # least inhabitant sizes, the sorts of closed types), keyed by (function
    # name, arguments) and filled on demand; declare_inductive clears it. A
    # key holding a type is name-blind like every term: alpha-equal types
    # share an entry, and the terms an entry holds (a constructor table's
    # type arguments) keep the binder names of the type that filled it.
    # Those names reach random data only, never a hypothesis.
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
    """Immediate subterms with the number of binders crossed to reach each.
    Dispatch is on the exact node class, the most frequent first."""
    cls = type(t)
    if cls is App:
        return ((t.head, 0), (t.arg, 0))
    if cls in _LEAVES or cls is Var:
        return ()
    if cls is Pi:
        return ((t.domain, 0), (t.codomain, 1))
    if cls is Lam:
        return ((t.domain, 0), (t.body, 1))
    if cls is Match:
        return ((t.scrutinee, 0), (t.return_type, 0),
                *[(b.body, b.arity) for b in t.branches])
    if cls is Fix:
        return ((t.full_type, 0), (t.body, 1))
    if cls is Eq:
        return ((t.at_type, 0), (t.lhs, 0), (t.rhs, 0))
    if cls is And or cls is Or:
        return ((t.lhs, 0), (t.rhs, 0))
    if cls is Not:
        return ((t.body, 0),)
    if cls is Exists:
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
    every child unchanged (by identity). Dispatch is on the exact node
    class, the most frequent first."""
    cls = type(t)
    if cls is App:
        a, b = f(t.head, depth), f(t.arg, depth)
        return t if a is t.head and b is t.arg else App(a, b)
    if cls is Pi:
        a, b = f(t.domain, depth), f(t.codomain, depth + 1)
        return t if a is t.domain and b is t.codomain else Pi(t.binder, a, b)
    if cls is Lam:
        a, b = f(t.domain, depth), f(t.body, depth + 1)
        return t if a is t.domain and b is t.body else Lam(t.binder, a, b)
    if cls is Match:
        scrut, rty = f(t.scrutinee, depth), f(t.return_type, depth)
        bodies = [f(b.body, depth + b.arity) for b in t.branches]
        if (scrut is t.scrutinee and rty is t.return_type
                and all(new is b.body for new, b in zip(bodies, t.branches))):
            return t
        return Match(scrut, t.inductive, rty, tuple(
            b if new is b.body else Branch(b.binders, new)
            for new, b in zip(bodies, t.branches)))
    if cls is Fix:
        a, b = f(t.full_type, depth), f(t.body, depth + 1)
        return t if a is t.full_type and b is t.body else Fix(t.binder, t.decreasing, a, b)
    if cls is Eq:
        at, a, b = f(t.at_type, depth), f(t.lhs, depth), f(t.rhs, depth)
        return t if at is t.at_type and a is t.lhs and b is t.rhs else Eq(at, a, b)
    if cls is And or cls is Or:
        a, b = f(t.lhs, depth), f(t.rhs, depth)
        return t if a is t.lhs and b is t.rhs else cls(a, b)
    if cls is Not:
        a = f(t.body, depth)
        return t if a is t.body else Not(a)
    if cls is Exists:
        a, b = f(t.domain, depth), f(t.body, depth + 1)
        return t if a is t.domain and b is t.body else Exists(t.binder, a, b)
    return t


# ---------------------------------------------------------------------------
# Lifting and substitution
# ---------------------------------------------------------------------------

def rebind(t: Term, on_free, depth: int = 0) -> Term:
    """Rebuild t with its free variables replaced: a Var(i) under d binders
    (d counted from depth) with i >= d becomes on_free(i - d, d). Every
    de Bruijn index rewrite goes through this one traversal. A subterm
    whose `_reach` is at most d is returned as it is, without a walk."""
    def go(s: Term, d: int) -> Term:
        if s._reach <= d:
            return s  # no free variable: nothing to rewrite below s
        if type(s) is Var:
            return on_free(s.index - d, d)
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
    """Check every Var is bound by an enclosing binder or below depth. An
    explicit stack of (subterm, depth) pairs keeps deep terms off the
    Python call stack."""
    stack = [(t, depth)]
    while stack:
        s, d = stack.pop()
        if type(s) is Var:
            if not 0 <= s.index < d:
                return False
        elif type(s) not in _LEAVES:
            for c, extra in children(s):
                stack.append((c, d + extra))
    return True


def is_closed(t: Term) -> bool:
    return t._reach == 0


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to binder names, which `==` already ignores."""
    return t == u


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

    try:
        return bad(stmt)
    finally:
        del bad  # empties bad's own closure cell: no reference cycle is left


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
