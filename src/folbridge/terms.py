"""Core language syntax: de Bruijn terms, declarations, environments.

Terms double as types and Prop-level formulas (CIC style). Variables are
de Bruijn indices; index 0 is the innermost binder. Every index rewrite
(lift, subst, subst_list, and the conversion module's type reification) is
one call to rebind, which hands each free variable and its binder depth to a
function; every normalizer (full, beta, iota, type-variable replacement) is
one call to normal_form, which takes the rewrite to try at a root. Binder
name fields are printing hints only: they are excluded from `==` and
`hash`, so term equality is alpha-equivalence and alpha-equal terms index
the same set or dict entry. `repr` and the printer still show them; a test
that pins exact names compares `repr`.

Each node computes its hash, its free-variable mask and its node-class
mask once, from its children, when it is built. Nodes are immutable by
convention: nothing assigns a field after the node is built, because those
cached facts are computed from the fields. The free-variable mask answers
in O(1) whether a term is closed or well scoped, whether a binder's
variable occurs, and whether a subterm mentions a variable bound outside
it; the class mask answers whether a subterm holds a lambda, a constant, a
match, a fixpoint or a type variable, so a walk that looks for one skips
the rest.

The kernels (map_subterms and with it rebind, lift, subst and subst_list)
return the input node itself when none of its children changed. Each
index rewrite tests the free-variable mask on entry, and each normalizer
the class mask, before it builds anything: a term with no free variable at
or above the cutoff, or with no class the rewrite acts on, is returned as
it is. A closed term survives the kernels without a closure, a call into
rebind or a walk, and rebind does not enter a subterm with nothing to
rewrite either; it rebuilds an application in one frame per spine level.
Terms are immutable, so this sharing is never observable: an `is` check
on a result is only a fast path, and no code needs one for correctness.

Leaves are shared too. Var, Const, Ctor, Ind, TVar and IntLit return from
`__new__` one node per key (index, name, constructor or literal), kept in a
table per class; IntT, the sorts, TrueP and FalseP have one node each. A
table holds one entry per distinct key ever built, so its size is bounded
by the indices, names and literals of the inputs, not by how many terms are
built, and `==`, set and dict probes on leaves end at the identity test.

Closed applications are shared per environment. `share_app` returns the one
App node that a `GlobalEnv.apps` table holds for a closed head and a closed
argument, keyed by the pair of their identities; the parser, the instantiated
types of `_infer` and `ctor_arg_types`, `monomorphize`,
`eliminate_pattern_matching` and the datatype axioms build their closed
applications through it, so the copies of `list nat` that a problem's
statements and types repeat are one node, and the identity tests of the
closed-type and closed-value tables, the instance walk and `convertible`
hit. The table is bounded by the problem and goes with its environment; a
process-wide one would grow with every distinct term built. Open
applications are built anew: no identity-keyed cache looks them up, and a
table for every App, process-wide or per problem, was measured to cost more
than it saved. Binder nodes (Pi, Lam, Fix, Match, Exists) are built anew
too: they carry binder names, which `==` ignores and printing shows. The
App constructor itself always builds a new node. `==` and `hash` stay
structural, so no sharing is observable but through `is`. Copying and
pickling rebuild each node through its constructor.

Everything else the package builds from fields (declarations, problems,
environments, and in the other modules justifications, hypotheses, proof
states) is a Record: a slotted class with an explicit `__init__`
whose `==`, `hash` and `repr` read the fields its `_fields` names. Records
need no code generated at import, so the package starts fast: importing it
loads none of `inspect`, `ast` or `typing` (tests/test_imports.py).
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import attrgetter


class FolbridgeError(Exception):
    """Base class for all package errors."""


class ScopeError(FolbridgeError):
    pass


def node_repr(root: object) -> str:
    """The `repr` of term nodes, branches and the evaluator's values:
    `Name(field=value, ...)` over the fields the class's `__slots__` names
    (a Branch shows its binders and body). Nodes, and the tuples holding
    them, are expanded from an explicit stack of text and items, so no
    depth needs Python recursion."""
    out: list[str] = []
    stack: list[object] = [root]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is str:
            out.append(x)
            continue
        if cls is tuple:
            out.append("(")
            stack.append(",)" if len(x) == 1 else ")")
            fields = [(", " if i else "", v) for i, v in enumerate(x)]
        else:
            out.append(f"{cls.__name__}(")
            stack.append(")")
            names = ("binders", "body") if cls is Branch else cls.__slots__
            fields = [(f", {n}=" if i else f"{n}=", getattr(x, n)) for i, n in enumerate(names)]
        for label, v in reversed(fields):
            c = type(v)
            stack += (v if c is tuple or c.__repr__ is node_repr else repr(v), label)
    return "".join(out)


# The bits of `Term._has`, one per node class that a walk looks for. All
# five fit below 32, so every mask is one of CPython's cached small ints.
HAS_LAM, HAS_CONST, HAS_MATCH, HAS_FIX, HAS_TVAR = 1, 2, 4, 8, 16


class Term:
    """Base of the term nodes.

    Each node computes three facts from its children once, when it is
    built. `_hash` ignores binder names. `_free` is the mask of its free
    de Bruijn indices: bit i is set when Var(i) occurs free in the node.
    Var(i) gives 1 << i, a child under k binders of the node contributes
    its mask shifted right by k, and the node ors its children's. Under d
    binders a mask has at most d bits. `_has` is the mask of the node
    classes that occur in the node, itself included, one bit (HAS_LAM,
    HAS_CONST, HAS_MATCH, HAS_FIX, HAS_TVAR) per class that some walk looks
    for: a walk skips a subterm whose mask lacks its class. No field of a
    node is ever None. `==` is True on identity, False at once when the
    hashes differ, and otherwise compares the fields that the class's
    `_key` reads.
    """
    __slots__ = ("_hash", "_free", "_has")
    # Each class with fields names in `_key` the fields `==` compares,
    # binder names excluded. A class without fields has one node, which
    # `==` meets only through the identity test.

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Copying and pickling rebuild a node through its constructor, whose
        # arguments are the class's own slots in order: a leaf comes back as
        # the shared node, and every node computes its hash anew where it is
        # loaded.
        return self.__class__, tuple([getattr(self, n) for n in self.__slots__])

    __repr__ = node_repr


# The shared leaves, one table per class, keyed by the constructor's
# arguments. Each holds one node per distinct key ever built.
_VARS: dict[int, Var] = {}
_CONSTS: dict[str, Const] = {}
_CTORS: dict[tuple[str, int], Ctor] = {}
_INDS: dict[str, Ind] = {}
_TVARS: dict[str, TVar] = {}
_INTLITS: dict[int, IntLit] = {}
_SOLE: dict[type, Term] = {}


def _share(table: dict, key: object, cls: type, values: tuple, free: int = 0,
           has: int = 0) -> Term:
    """Build the shared leaf of `key` in `table`: its slots, in order, hold
    `values`. Two threads that race here get one node."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        setattr(node, name, value)
    node._hash = hash((cls, *values))
    node._free = free
    node._has = has
    return table.setdefault(key, node)


class Var(Term):
    """Bound variable, de Bruijn index (0 = innermost binder)."""
    __slots__ = ("index",)
    _key = attrgetter("index")

    def __new__(cls, index: int) -> Var:
        try:
            return _VARS[index]
        except KeyError:
            if index < 0:
                raise ScopeError(f"negative de Bruijn index {index}") from None
            return _share(_VARS, index, cls, (index,), free=1 << index)


class Const(Term):
    """Reference to a global definition or builtin function."""
    __slots__ = ("name",)
    _key = attrgetter("name")

    def __new__(cls, name: str) -> Const:
        try:
            return _CONSTS[name]
        except KeyError:
            return _share(_CONSTS, name, cls, (name,), has=HAS_CONST)


class Ctor(Term):
    """Constructor of an inductive type, by declaration position."""
    __slots__ = ("inductive", "ctor_index")
    _key = attrgetter("inductive", "ctor_index")

    def __new__(cls, inductive: str, ctor_index: int) -> Ctor:
        key = inductive, ctor_index
        try:
            return _CTORS[key]
        except KeyError:
            if ctor_index < 0:
                raise ScopeError(f"negative constructor index {ctor_index}") from None
            return _share(_CTORS, key, cls, key)


class Ind(Term):
    """An inductive type constructor itself (e.g. list)."""
    __slots__ = ("inductive",)
    _key = attrgetter("inductive")

    def __new__(cls, inductive: str) -> Ind:
        try:
            return _INDS[inductive]
        except KeyError:
            return _share(_INDS, inductive, cls, (inductive,))


class TVar(Term):
    """Rigid type symbol: a section-style type variable fixed by the goal.

    Stands for one of the goal's leading type binders once it is
    stripped; closed (no de Bruijn index) and never bound.
    """
    __slots__ = ("name",)
    _key = attrgetter("name")

    def __new__(cls, name: str) -> TVar:
        try:
            return _TVARS[name]
        except KeyError:
            return _share(_TVARS, name, cls, (name,), has=HAS_TVAR)


def _sole(cls: type) -> Term:
    """`__new__` of the field-less leaves: one node per class."""
    try:
        return _SOLE[cls]
    except KeyError:
        return _share(_SOLE, cls, cls, ())


class IntT(Term):
    """The builtin integer type."""
    __slots__ = ()
    __new__ = _sole


class SortType(Term):
    __slots__ = ()
    __new__ = _sole


class SortProp(Term):
    __slots__ = ()
    __new__ = _sole


class Pi(Term):
    """Dependent product; houses both forall and -> (non-dependent)."""
    __slots__ = ("binder", "domain", "codomain")
    _key = attrgetter("domain", "codomain")

    def __init__(self, binder: str, domain: Term, codomain: Term) -> None:
        self.binder = binder
        self.domain = domain
        self.codomain = codomain
        self._hash = hash((Pi, domain._hash, codomain._hash))
        self._free = domain._free | codomain._free >> 1
        self._has = domain._has | codomain._has


class Lam(Term):
    __slots__ = ("binder", "domain", "body")
    _key = attrgetter("domain", "body")

    def __init__(self, binder: str, domain: Term, body: Term) -> None:
        self.binder = binder
        self.domain = domain
        self.body = body
        self._hash = hash((Lam, domain._hash, body._hash))
        self._free = domain._free | body._free >> 1
        self._has = HAS_LAM | domain._has | body._has


class App(Term):
    __slots__ = ("head", "arg")
    _key = attrgetter("head", "arg")

    def __init__(self, head: Term, arg: Term) -> None:
        self.head = head
        self.arg = arg
        self._hash = hash((App, head._hash, arg._hash))
        self._free = head._free | arg._free
        self._has = head._has | arg._has


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

    def __reduce__(self) -> tuple:
        return Branch, (self.binders, self.body)  # as Term.__reduce__

    __repr__ = node_repr


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
        free = scrutinee._free | return_type._free
        has = HAS_MATCH | scrutinee._has | return_type._has
        for b in branches:
            free |= b.body._free >> b.arity
            has |= b.body._has
        self._free = free
        self._has = has


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
        self._free = full_type._free | body._free >> 1
        self._has = HAS_FIX | full_type._has | body._has


class Eq(Term):
    """Prop-level equality at an explicit type."""
    __slots__ = ("at_type", "lhs", "rhs")
    _key = attrgetter("at_type", "lhs", "rhs")

    def __init__(self, at_type: Term, lhs: Term, rhs: Term) -> None:
        self.at_type = at_type
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((Eq, at_type._hash, lhs._hash, rhs._hash))
        self._free = at_type._free | lhs._free | rhs._free
        self._has = at_type._has | lhs._has | rhs._has


class TrueP(Term):
    __slots__ = ()
    __new__ = _sole


class FalseP(Term):
    __slots__ = ()
    __new__ = _sole


class And(Term):
    __slots__ = ("lhs", "rhs")
    _key = attrgetter("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((And, lhs._hash, rhs._hash))
        self._free = lhs._free | rhs._free
        self._has = lhs._has | rhs._has


class Or(Term):
    __slots__ = ("lhs", "rhs")
    _key = attrgetter("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self._hash = hash((Or, lhs._hash, rhs._hash))
        self._free = lhs._free | rhs._free
        self._has = lhs._has | rhs._has


class Not(Term):
    __slots__ = ("body",)
    _key = attrgetter("body")

    def __init__(self, body: Term) -> None:
        self.body = body
        self._hash = hash((Not, body._hash))
        self._free = body._free
        self._has = body._has


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
        self._free = domain._free | body._free >> 1
        self._has = domain._has | body._has


class IntLit(Term):
    __slots__ = ("value",)
    _key = attrgetter("value")

    def __new__(cls, value: int) -> IntLit:
        try:
            return _INTLITS[value]
        except KeyError:
            return _share(_INTLITS, value, cls, (value,))


# The node classes that head a proposition, under its leading products: a
# product whose final codomain is one of them has sort Prop, or is ill-typed.
PROP_HEADS = frozenset({Eq, And, Or, Not, Exists, TrueP, FalseP})


def is_prop(t: Term) -> bool:
    """Whether the well-typed term t is a proposition (has sort Prop), read
    off its shape: under its leading products it is an equation, a
    connective, an exists or true_p/false_p. The language has no variable
    or constant of sort Prop, so no other term is one."""
    while type(t) is Pi:
        t = t.codomain
    return type(t) in PROP_HEADS


TYPE = SortType()
PROP = SortProp()
INT = IntT()
BOOL = Ind("Bool")
TRUE = Ctor("Bool", 0)
FALSE = Ctor("Bool", 1)


# ---------------------------------------------------------------------------
# Declarations and environments
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's plain records: declarations, problems,
    justifications, hypotheses, proof states. Each is a slotted
    class with an explicit `__init__`, like the term nodes. `==`, `hash` and
    `repr` read the fields that `_fields` names, in order: `==` holds only
    between records of the same class with equal fields, and `repr` reads
    `Name(field=value, ...)`. A slot left out of `_fields` (a cache or an
    index) is invisible to all three. A record that changes after it is
    built sets `__hash__ = None`; the others are immutable by convention."""
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class CtorDecl(Record):
    """Constructor declaration. arg_types are de Bruijn terms over the
    inductive's type parameters (for params (A, B): Var 1 = A, Var 0 = B)
    and may reference this or earlier inductives; no Pi inside."""
    __slots__ = _fields = ("name", "arg_types")

    def __init__(self, name: str, arg_types: tuple[Term, ...]) -> None:
        self.name = name
        self.arg_types = arg_types


class InductiveDecl(Record):
    """Its own type `Type -> ... -> Type` and each constructor's closed type
    `forall params, args -> name params` are built here, once, in slots
    outside `_fields` that `==`, `hash` and `repr` skip."""
    __slots__ = ("name", "params", "ctors", "type", "ctor_types")
    _fields = ("name", "params", "ctors")

    def __init__(self, name: str, params: tuple[str, ...], ctors: tuple[CtorDecl, ...]) -> None:
        self.name = name
        self.params = params
        self.ctors = ctors
        p = len(params)
        self.type = make_pis([("_", TYPE)] * p, TYPE)
        ctor_types = []
        for c in ctors:
            # arg_types[j] lives under the params only, so it is lifted past
            # the j value binders before it; under all n of them, param i
            # is Var(n+p-1-i).
            n = len(c.arg_types)
            binders = [(x, TYPE) for x in params]
            binders += [("_", lift(a, j)) for j, a in enumerate(c.arg_types)]
            result = make_app(Ind(name), [Var(n + p - 1 - i) for i in range(p)])
            ctor_types.append(make_pis(binders, result))
        self.ctor_types = tuple(ctor_types)


class Definition(Record):
    __slots__ = _fields = ("name", "type", "body")

    def __init__(self, name: str, type: Term, body: Term) -> None:
        self.name = name
        self.type = type
        self.body = body


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


class GlobalEnv(Record):
    """Named declarations. Insertion order is declaration order; names are
    unique across inductives, constructors, definitions and builtins. The
    constructor index and the name set are built here; declarations extend
    them.

    `apps` is the environment's table of closed applications: one `App`
    node per closed head and closed argument, keyed by the pair of their
    ids, which `share_app` fills (see the module docstring for who builds
    through it). An entry holds both children, so their ids stay valid
    while the table lives. The table only grows, bounded by the closed
    applications the problem builds, and goes with the environment.

    `memo` and `apps` are keyed by ids, which name nothing outside this
    environment's lifetime: a copied or unpickled environment is rebuilt
    from its fields, with both empty."""
    __slots__ = ("inductives", "definitions", "memo", "apps", "_ctors", "_names")
    _fields = ("inductives", "definitions")
    __hash__ = None

    def __init__(self, inductives: dict[str, InductiveDecl] | None = None,
                 definitions: dict[str, Definition] | None = None) -> None:
        inductives = {} if inductives is None else inductives
        if "Bool" not in inductives:
            inductives = {"Bool": BOOL_DECL, **inductives}
        self.inductives = inductives
        self.definitions = {} if definitions is None else definitions
        self._ctors: dict[str, tuple[str, int]] = {}
        self._names = frozenset(self.definitions).union(BUILTIN_FUNCTIONS)
        for decl in inductives.values():
            self._index(decl)
        # Five caches that only conversion reads and writes (see there),
        # and the table of closed applications; never invalidated. Not
        # fields: `==` and `repr` skip them.
        self.memo: dict[tuple, object] = {}
        self.apps: dict[tuple[int, int], App] = {}

    def __reduce__(self) -> tuple:
        # Rebuilt from the fields: the caches' id keys would name other
        # objects, or none, in the copy.
        return GlobalEnv, (dict(self.inductives), dict(self.definitions))

    def _index(self, decl: InductiveDecl) -> None:
        for i, c in enumerate(decl.ctors):
            self._ctors.setdefault(c.name, (decl.name, i))
        self._names = self._names.union([decl.name], [c.name for c in decl.ctors])

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
        return self._ctors.get(name)

    def names(self) -> frozenset[str]:
        """Every declared name: inductives, constructors, definitions and
        builtins. A declaration replaces the set, so a returned set never
        changes."""
        return self._names

    # -- declaration (parser-facing) ----------------------------------------

    def declare_inductive(self, decl: InductiveDecl) -> None:
        """Add decl. Its constructors' argument types must be first-order,
        and the parameters uniform: every occurrence of decl's own name in
        them is applied to exactly its parameters, in order, so that each
        instance mentions only itself and instances of other types."""
        if not decl.ctors:
            raise ScopeError(f"inductive {decl.name} needs at least one constructor")
        for n in [decl.name] + [c.name for c in decl.ctors]:
            if n in self._names:
                raise ScopeError(f"name already declared: {n}")
        p = len(decl.params)
        own = [Var(p - 1 - i) for i in range(p)]
        for c in decl.ctors:
            stack = list(c.arg_types)
            while stack:
                head, args = spine(stack.pop())
                if type(head) in (Pi, Lam, Match, Fix):
                    raise ScopeError(
                        f"constructor {c.name}: argument types must be first-order")
                if type(head) is Ind and head.inductive == decl.name and args != own:
                    raise ScopeError(
                        f"constructor {c.name}: {decl.name} must be applied to "
                        f"exactly its own parameters, in order")
                stack += args
                stack += [s for s, _ in children(head)]
        self.inductives[decl.name] = decl
        self._index(decl)

    def declare_definition(self, d: Definition) -> None:
        if d.name in self._names:
            raise ScopeError(f"name already declared: {d.name}")
        self.definitions[d.name] = d
        self._names = self._names | {d.name}


def builtin_type(name: str) -> Term | None:
    return BUILTIN_FUNCTIONS.get(name)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

class Problem(Record):
    __slots__ = _fields = ("env", "hypotheses", "goal", "lemma_params")
    __hash__ = None

    def __init__(self, env: GlobalEnv, hypotheses: list[tuple[str, Term]], goal: Term,
                 lemma_params: list[str] | None = None) -> None:
        self.env = env
        self.hypotheses = hypotheses
        self.goal = goal
        self.lemma_params = [] if lemma_params is None else lemma_params


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

# Node classes without subterms, which the walks below handle without recursing.
LEAVES = frozenset({Const, Ctor, Ind, TVar, IntT, SortType, SortProp,
                    TrueP, FalseP, IntLit})


def children(t: Term) -> tuple[tuple[Term, int], ...]:
    """Immediate subterms with the number of binders crossed to reach each.
    Dispatch is on the exact node class, the most frequent first."""
    cls = type(t)
    if cls is App:
        return ((t.head, 0), (t.arg, 0))
    if cls in LEAVES or cls is Var:
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
    ancestors, O(size * depth) in all. An App pushes its head and argument
    itself, and only a class with other children builds a children() tuple."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        cls = type(s)
        if cls is App:
            stack.append(s.arg)
            stack.append(s.head)
        elif cls is not Var and cls not in LEAVES:
            stack += [c for c, _ in reversed(children(s))]


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

def rebind(t: Term, on_free, depth: int = 0, apps: dict | None = None) -> Term:
    """Rebuild t with its free variables replaced: a Var(i) under d binders
    (d counted from depth) with i >= d becomes on_free(i - d, d). Every
    de Bruijn index rewrite goes through this one traversal. A subterm
    with no free index at or above d is returned as it is, without a walk;
    every caller tests t itself first, so as not to build on_free. go
    rebuilds an App in its own frame, entering only a child with something
    to rewrite, and through `share_app` when the caller passes its
    environment's table `apps`; the other classes go through
    map_subterms."""
    def go(s: Term, d: int) -> Term:
        if not s._free >> d:
            return s  # no free variable: nothing to rewrite below s
        cls = type(s)
        if cls is App:
            head, arg = s.head, s.arg
            h = go(head, d) if head._free >> d else head
            a = go(arg, d) if arg._free >> d else arg
            if h is head and a is arg:
                return s
            return App(h, a) if apps is None else share_app(apps, h, a)
        if cls is Var:
            return on_free(s.index - d, d)
        return map_subterms(s, go, d)
    try:
        return go(t, depth)
    finally:
        # go's closure cell holds go: emptying it leaves no reference cycle
        # for the cyclic garbage collector.
        del go


def normal_form(t: Term, head, at: int) -> Term:
    """Normalize t: head(s) rewrites s at its root until no rule applies
    and returns s itself when none did; the root is tried again whenever
    normalizing the children changed one. `at` is the `_has` mask of the
    node classes that head can rewrite at (a node of one of them heads
    every redex it takes): a subterm whose mask meets none of them is
    returned as it is, unvisited; every caller tests t itself first, so as
    not to build head."""
    def go(s: Term, _depth: int = 0) -> Term:
        if not s._has & at:
            return s  # no class that head rewrites occurs in s
        s = head(s)
        s2 = map_subterms(s, go)
        if s2 is s:
            return s
        s3 = head(s2)
        return s2 if s3 is s2 else go(s3)
    try:
        return go(t)
    finally:
        del go  # empties go's own closure cell: no reference cycle is left


def lift(t: Term, amount: int, cutoff: int = 0) -> Term:
    """Raise every free Var index >= cutoff by amount. A term with no free
    index at or above cutoff is returned at once, without a closure."""
    if amount == 0 or not t._free >> cutoff:
        return t
    return rebind(t, lambda k, d: Var(k + d + amount), cutoff)


def subst(t: Term, index: int, replacement: Term) -> Term:
    """Capture-avoiding substitution of Var(index) by replacement; free
    variables above index are decremented. A term with no free index at
    or above index is returned at once, without a closure."""
    if not t._free >> index:
        return t
    return rebind(t, lambda k, d: lift(replacement, d) if k == 0 else Var(k + d - 1),
                  index)


def subst_list(t: Term, values: list[Term], apps: dict | None = None) -> Term:
    """Simultaneous substitution Var(i) := values[i] for i < len(values);
    higher frees drop by len(values). values are in the outer context. A
    closed term is returned at once, without a closure. With an
    environment's table `apps`, the closed applications it builds are
    shared (see `share_app`)."""
    if not t._free:
        return t
    n = len(values)
    return rebind(t, lambda k, d: lift(values[k], d) if k < n else Var(k + d - n), 0, apps)


def well_scoped(t: Term, depth: int = 0) -> bool:
    """Check every Var is bound by an enclosing binder or below depth."""
    return not t._free >> depth


def is_closed(t: Term) -> bool:
    return not t._free


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


def share_app(apps: dict, head: Term, arg: Term) -> App:
    """The application of head to arg. When both are closed it is the one
    node that the table `apps` (a `GlobalEnv.apps`) holds for that head and
    argument, keyed by their identities, built on the first request; an
    open application is built anew. The stored node holds both children,
    so their ids are not reused while the table lives."""
    if head._free or arg._free:
        return App(head, arg)
    key = id(head), id(arg)
    node = apps.get(key)
    if node is None:
        node = apps.setdefault(key, App(head, arg))  # racing threads get one node
    return node


def make_app(head: Term, args: list[Term], apps: dict | None = None) -> Term:
    """head applied to args; through `share_app` with a table `apps`."""
    for a in args:
        head = App(head, a) if apps is None else share_app(apps, head, a)
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
    stack = [stmt]
    while stack:
        t = stack.pop()
        if isinstance(t, Pi):
            if isinstance(t.domain, SortType):
                return True
            stack += (t.domain, t.codomain)
        elif isinstance(t, (And, Or)):
            stack += (t.lhs, t.rhs)
        elif isinstance(t, (Not, Exists)):
            stack.append(t.body)
    return False


# ---------------------------------------------------------------------------
# Inductive type helpers
# ---------------------------------------------------------------------------

def ctor_arg_types(env: GlobalEnv, ind: str, index: int, type_args: list[Term]) -> list[Term]:
    """Constructor argument types instantiated at the given type args
    (which must not be captured: they are in the caller's context and the
    results reference nothing else). Their closed applications are the
    environment's shared nodes (see `share_app`)."""
    decl = env.inductive(ind)
    try:
        c = decl.ctors[index]
    except IndexError:
        raise ScopeError(f"{ind} has no constructor {index}") from None
    if len(type_args) != len(decl.params):
        raise ScopeError(f"{ind} expects {len(decl.params)} type argument(s)")
    values = list(reversed(type_args))  # Var(0) is the last param
    return [subst_list(t, values, env.apps) for t in c.arg_types]


def as_inductive_instance(t: Term) -> tuple[str, list[Term]] | None:
    """Recognize `I T1 ... Tn` with an Ind head; returns (name, args)."""
    head, args = spine(t)
    if isinstance(head, Ind):
        return head.inductive, args
    return None


# Built last: a declaration builds its types with make_pis, make_app and lift.
BOOL_DECL = InductiveDecl("Bool", (), (CtorDecl("true", ()), CtorDecl("false", ())))
