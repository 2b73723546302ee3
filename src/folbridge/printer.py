"""Pretty-printer: deterministic concrete syntax that reparses to an
alpha-equal term. Parenthesization follows the precedence-level trick:
each position states the loosest level it tolerates and anything looser
gets wrapped. The levels and `OPERATORS`, the table of binary operators,
are shared with the parser, which climbs the same levels."""

from __future__ import annotations

from .terms import (
    And, App, Const, Ctor, Eq, Exists, FalseP, Fix, GlobalEnv, Ind,
    IntLit, IntT, Lam, Match, Not, Or, Pi, Problem, ScopeError, SortProp,
    SortType, TVar, Term, TrueP, Var,
)

# Levels, loosest to tightest. A node prints parens when its own level is
# strictly looser than what the position requires.
L_BINDER = 0   # forall/exists/fun/fix bodies extend to the right
L_IMP = 1      # -> (right associative)
L_OR = 2
L_AND = 3
L_NOT = 4
L_EQ = 5       # = and <>
L_ORB = 6      # ||
L_ANDB = 7     # &&
L_CMP = 8      # <= <
L_ADD = 9
L_MUL = 10
L_APP = 11
L_ATOM = 12

# The binary operators, loosest first: (symbol, level, associativity,
# builtin constant or None). The parser reads the same table.
OPERATORS = (
    ("->", L_IMP, "right", None),
    ("\\/", L_OR, "right", None),
    ("/\\", L_AND, "right", None),
    ("=", L_EQ, None, None),
    ("<>", L_EQ, None, None),
    ("||", L_ORB, "right", "orb"),
    ("&&", L_ANDB, "right", "andb"),
    ("<=", L_CMP, None, "le"),
    ("<", L_CMP, None, "lt"),
    ("+", L_ADD, "left", "add"),
    ("-", L_ADD, "left", "sub"),
    ("*", L_MUL, "left", "mul"),
)

_INFIX_BUILTINS = {builtin: (sym, lvl, assoc) for sym, lvl, assoc, builtin in OPERATORS if builtin}


class _Namer:
    """The names taken so far in one print_term call: the environment's
    names, kept by reference (the set never changes), and `used`, the
    context names and the binder names given so far, which it owns and adds
    to. Whether a binder's variable occurs, which decides if it needs a name
    at all, is read off its scope's free-variable mask."""

    def __init__(self, declared: frozenset[str], used: set[str]):
        self.declared = declared
        self.used = used

    def fresh(self, hint: str) -> str:
        base = hint if hint and hint != "_" else "x"
        if base not in self.used and base not in self.declared:
            self.used.add(base)
            return base
        i = 0
        while f"{base}{i}" in self.used or f"{base}{i}" in self.declared:
            i += 1
        name = f"{base}{i}"
        self.used.add(name)
        return name


def print_term(t: Term, env: GlobalEnv | None = None,
               context_names: list[str] | None = None) -> str:
    """Render t; context_names[i] names Var(i) (innermost first)."""
    env = env or GlobalEnv()
    names = list(context_names or [])
    namer = _Namer(env.names(), set(names))
    return _pp(t, env, names, namer, L_BINDER)


def _wrap(s: str, level: int, want: int) -> str:
    return f"({s})" if level < want else s


def _pp(t: Term, env: GlobalEnv, names: list[str], namer: _Namer, want: int) -> str:
    # Dispatch is on the exact node class, most frequent first.
    cls = type(t)
    if cls is App:
        # The spine is walked in a loop; args holds the arguments last first.
        args = []
        head = t
        while type(head) is App:
            args.append(head.arg)
            head = head.head
        if type(head) is Const and len(args) == 2 and head.name in _INFIX_BUILTINS:
            # An operand may be at the operator's level on the side it associates to.
            sym, lvl, assoc = _INFIX_BUILTINS[head.name]
            lhs = _pp(args[1], env, names, namer, lvl + (assoc != "left"))
            rhs = _pp(args[0], env, names, namer, lvl + (assoc != "right"))
            s = f"{lhs} {sym} {rhs}"
            return f"({s})" if lvl < want else s
        s = _pp(head, env, names, namer, L_ATOM)
        for a in reversed(args):
            s = f"{s} {_pp(a, env, names, namer, L_ATOM)}"
        return f"({s})" if L_APP < want else s
    if cls is Var:
        try:
            return names[t.index]
        except IndexError:
            raise ScopeError(f"Var({t.index}) is unbound: {len(names)} names in scope") from None
    if cls is Const:
        return t.name
    if cls is Ctor:
        try:
            return env.inductive(t.inductive).ctors[t.ctor_index].name
        except IndexError:
            raise ScopeError(f"{t.inductive} has no constructor {t.ctor_index}") from None
    if cls is Ind:
        return t.inductive
    if cls is TVar:
        return t.name
    if cls is IntT:
        return "Int"
    if cls is SortType:
        return "Type"
    if cls is SortProp:
        return "Prop"
    if cls is IntLit:
        return f"({t.value})" if t.value < 0 else str(t.value)
    if cls is TrueP:
        return "true_p"
    if cls is FalseP:
        return "false_p"
    if cls is Pi:
        if t.codomain._free & 1:
            groups, body, names2 = _collect_binders(t, env, names, namer, Pi)
            s = f"forall {groups}, {_pp(body, env, names2, namer, L_BINDER)}"
            return _wrap(s, L_BINDER, want)
        dom = _pp(t.domain, env, names, namer, L_IMP + 1)
        # The binder is unused, so its placeholder name is never printed.
        cod = _pp(t.codomain, env, ["_"] + names, namer, L_IMP)
        return _wrap(f"{dom} -> {cod}", L_IMP, want)
    if cls is Exists:
        groups, body, names2 = _collect_binders(t, env, names, namer, Exists)
        s = f"exists {groups}, {_pp(body, env, names2, namer, L_BINDER)}"
        return _wrap(s, L_BINDER, want)
    if cls is Lam:
        groups, body, names2 = _collect_binders(t, env, names, namer, Lam)
        s = f"fun {groups} => {_pp(body, env, names2, namer, L_BINDER)}"
        return _wrap(s, L_BINDER, want)
    if cls is Or:
        s = f"{_pp(t.lhs, env, names, namer, L_OR + 1)} \\/ {_pp(t.rhs, env, names, namer, L_OR)}"
        return _wrap(s, L_OR, want)
    if cls is And:
        s = f"{_pp(t.lhs, env, names, namer, L_AND + 1)} /\\ {_pp(t.rhs, env, names, namer, L_AND)}"
        return _wrap(s, L_AND, want)
    if cls is Not:
        if type(t.body) is Eq:
            e = t.body
            s = (f"{_pp(e.lhs, env, names, namer, L_ORB)} <> "
                 f"{_pp(e.rhs, env, names, namer, L_ORB)}")
            return _wrap(s, L_EQ, want)
        return _wrap(f"~ {_pp(t.body, env, names, namer, L_NOT)}", L_NOT, want)
    if cls is Eq:
        s = (f"{_pp(t.lhs, env, names, namer, L_ORB)} = "
             f"{_pp(t.rhs, env, names, namer, L_ORB)}")
        return _wrap(s, L_EQ, want)
    if cls is Match:
        scrut = _pp(t.scrutinee, env, names, namer, L_BINDER)
        rty = _pp(t.return_type, env, names, namer, L_BINDER)
        ctors = env.inductive(t.inductive).ctors
        arms = []
        for k, br in enumerate(t.branches):
            cname = ctors[k].name
            bnames = []
            for j, hint in enumerate(br.binders):
                used = br.body._free >> (br.arity - 1 - j) & 1
                bnames.append(namer.fresh(hint) if used or (hint and hint != "_") else "_")
            body_names = list(reversed(bnames)) + names
            body = _pp(br.body, env, body_names, namer, L_BINDER)
            pat = " ".join([cname] + bnames)
            arms.append(f"| {pat} => {body}")
        return f"match {scrut} return {rty} with {' '.join(arms)} end"
    if cls is Fix:
        self_name = namer.fresh(t.binder)
        lam_binders = []
        lam_names: list[str] = []  # innermost first
        body = t.body
        rty = t.full_type
        # One binder per lambda that the annotation shows a product for;
        # the lambdas after those (the annotation ends in an alias of an
        # arrow) print as a `fun` in the body.
        while type(body) is Lam and type(rty) is Pi:
            nm = namer.fresh(body.binder)
            lam_binders.append(
                f"({nm} : {_pp(body.domain, env, lam_names + [self_name] + names, namer, L_BINDER)})")
            lam_names.insert(0, nm)
            body = body.body
            rty = rty.codomain
        # rty lies under the lam binders of full_type, without the self binder.
        s = (f"fix {self_name}/{t.decreasing} {' '.join(lam_binders)} : "
             f"{_pp(rty, env, lam_names + names, namer, L_BINDER)} := "
             f"{_pp(body, env, lam_names + [self_name] + names, namer, L_BINDER)}")
        return _wrap(s, L_BINDER, want)
    raise ValueError(f"cannot print {t!r}")


def _collect_binders(t: Term, env: GlobalEnv, names: list[str], namer: _Namer, cls):
    """Group consecutive binders of the same flavor for printing."""
    groups: list[str] = []
    cur = t
    names2 = list(names)
    while isinstance(cur, cls):
        body = cur.codomain if cls is Pi else cur.body
        used = body._free & 1
        if cls is Pi and not used:
            break
        nm = namer.fresh(cur.binder) if (used or (cur.binder and cur.binder != "_")) else "_"
        groups.append(f"({nm} : {_pp(cur.domain, env, names2, namer, L_BINDER)})")
        names2 = [nm] + names2
        cur = body
    return " ".join(groups), cur, names2


# ---------------------------------------------------------------------------
# Whole problems
# ---------------------------------------------------------------------------

def print_problem(p: Problem) -> str:
    lines: list[str] = []
    for decl in p.env.inductives.values():
        if decl.name == "Bool":
            continue
        params = f" ({' '.join(decl.params)})" if decl.params else ""
        ctor_parts = []
        pnames = list(reversed(decl.params))
        for c in decl.ctors:
            args = "".join(
                f" ({print_term(a, p.env, pnames)})" for a in c.arg_types)
            ctor_parts.append(f"{c.name}{args}")
        lines.append(f"data {decl.name}{params} = {' | '.join(ctor_parts)}.")
    for d in p.env.definitions.values():
        lines.append(
            f"def {d.name} : {print_term(d.type, p.env)} = {print_term(d.body, p.env)}.")
    for name, stmt in p.hypotheses:
        kw = "lemma" if name in p.lemma_params else "hyp"
        lines.append(f"{kw} {name} : {print_term(stmt, p.env)}.")
    lines.append(f"goal {print_term(p.goal, p.env)}.")
    return "\n".join(lines) + "\n"
