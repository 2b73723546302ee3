"""Pretty-printer: deterministic concrete syntax that reparses to an
alpha-equal term. Parenthesization follows the precedence-level trick:
each position states the loosest level it tolerates and anything looser
gets wrapped."""

from __future__ import annotations

from .terms import (
    And, App, Const, Ctor, Eq, Exists, FalseP, Fix, GlobalEnv, Ind,
    IntLit, IntT, Lam, Match, Not, Or, Pi, Problem, SortProp, SortType,
    TVar, Term, TrueP, Var, as_inductive_instance, children, spine,
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

_INFIX_BUILTINS = {
    "orb": ("||", L_ORB, 1),
    "andb": ("&&", L_ANDB, 1),
    "le": ("<=", L_CMP, None),
    "lt": ("<", L_CMP, None),
    "add": ("+", L_ADD, 0),
    "sub": ("-", L_ADD, 0),
    "mul": ("*", L_MUL, 0),
}


class _Namer:
    """The state of one print_term call: the names taken so far, and the
    free de Bruijn indices of every subterm asked about."""

    def __init__(self, used: set[str]):
        self.used = set(used)
        # id(subterm) -> (subterm, its free indices); holding the subterm
        # keeps its id from being reused while the call runs.
        self._free: dict[int, tuple[Term, frozenset[int]]] = {}

    def uses_binder_at(self, t: Term, index: int) -> bool:
        """Whether Var(index) occurs free in t."""
        return index in self._free_indices(t)

    def _free_indices(self, t: Term) -> frozenset[int]:
        hit = self._free.get(id(t))
        if hit is not None:
            return hit[1]
        if isinstance(t, Var):
            free = frozenset((t.index,))
        else:
            free = _NO_INDICES
            for c, extra in children(t):
                below = self._free_indices(c)
                if below:
                    free = free.union(i - extra for i in below if i >= extra)
        self._free[id(t)] = (t, free)
        return free

    def fresh(self, hint: str) -> str:
        base = hint if hint and hint != "_" else "x"
        if base not in self.used:
            self.used.add(base)
            return base
        i = 0
        while f"{base}{i}" in self.used:
            i += 1
        name = f"{base}{i}"
        self.used.add(name)
        return name


_NO_INDICES: frozenset[int] = frozenset()


def print_term(t: Term, env: GlobalEnv | None = None,
               context_names: list[str] | None = None) -> str:
    """Render t; context_names[i] names Var(i) (innermost first)."""
    env = env or GlobalEnv()
    names = list(context_names or [])
    namer = _Namer(env.names() | set(names))
    return _pp(t, env, names, namer, L_BINDER)


def _wrap(s: str, level: int, want: int) -> str:
    return f"({s})" if level < want else s


def _pp(t: Term, env: GlobalEnv, names: list[str], namer: _Namer, want: int) -> str:
    if isinstance(t, Var):
        return names[t.index]
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Ctor):
        return env.inductive(t.inductive).ctors[t.ctor_index].name
    if isinstance(t, Ind):
        return t.inductive
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, IntT):
        return "Int"
    if isinstance(t, SortType):
        return "Type"
    if isinstance(t, SortProp):
        return "Prop"
    if isinstance(t, IntLit):
        return f"({t.value})" if t.value < 0 else str(t.value)
    if isinstance(t, TrueP):
        return "true_p"
    if isinstance(t, FalseP):
        return "false_p"
    if isinstance(t, Pi):
        if namer.uses_binder_at(t.codomain, 0):
            groups, body, names2 = _collect_binders(t, env, names, namer, Pi)
            s = f"forall {groups}, {_pp(body, env, names2, namer, L_BINDER)}"
            return _wrap(s, L_BINDER, want)
        dom = _pp(t.domain, env, names, namer, L_IMP + 1)
        # The binder is unused, so its placeholder name is never printed.
        cod = _pp(t.codomain, env, ["_"] + names, namer, L_IMP)
        return _wrap(f"{dom} -> {cod}", L_IMP, want)
    if isinstance(t, Exists):
        groups, body, names2 = _collect_binders(t, env, names, namer, Exists)
        s = f"exists {groups}, {_pp(body, env, names2, namer, L_BINDER)}"
        return _wrap(s, L_BINDER, want)
    if isinstance(t, Lam):
        groups, body, names2 = _collect_binders(t, env, names, namer, Lam)
        s = f"fun {groups} => {_pp(body, env, names2, namer, L_BINDER)}"
        return _wrap(s, L_BINDER, want)
    if isinstance(t, Or):
        s = f"{_pp(t.lhs, env, names, namer, L_OR + 1)} \\/ {_pp(t.rhs, env, names, namer, L_OR)}"
        return _wrap(s, L_OR, want)
    if isinstance(t, And):
        s = f"{_pp(t.lhs, env, names, namer, L_AND + 1)} /\\ {_pp(t.rhs, env, names, namer, L_AND)}"
        return _wrap(s, L_AND, want)
    if isinstance(t, Not):
        if isinstance(t.body, Eq):
            e = t.body
            s = (f"{_pp(e.lhs, env, names, namer, L_ORB)} <> "
                 f"{_pp(e.rhs, env, names, namer, L_ORB)}")
            return _wrap(s, L_EQ, want)
        return _wrap(f"~ {_pp(t.body, env, names, namer, L_NOT)}", L_NOT, want)
    if isinstance(t, Eq):
        s = (f"{_pp(t.lhs, env, names, namer, L_ORB)} = "
             f"{_pp(t.rhs, env, names, namer, L_ORB)}")
        return _wrap(s, L_EQ, want)
    if isinstance(t, Match):
        scrut = _pp(t.scrutinee, env, names, namer, L_BINDER)
        rty = _pp(t.return_type, env, names, namer, L_BINDER)
        inst = _match_inductive(t, env)
        arms = []
        for k, br in enumerate(t.branches):
            cname = env.inductive(inst).ctors[k].name
            bnames = []
            for j, hint in enumerate(br.binders):
                used = namer.uses_binder_at(br.body, br.arity - 1 - j)
                bnames.append(namer.fresh(hint) if used or (hint and hint != "_") else "_")
            body_names = list(reversed(bnames)) + names
            body = _pp(br.body, env, body_names, namer, L_BINDER)
            pat = " ".join([cname] + bnames)
            arms.append(f"| {pat} => {body}")
        return f"match {scrut} return {rty} with {' '.join(arms)} end"
    if isinstance(t, Fix):
        self_name = namer.fresh(t.binder)
        lam_binders = []
        lam_names: list[str] = []  # innermost first
        body = t.body
        while isinstance(body, Lam):
            nm = namer.fresh(body.binder)
            lam_binders.append(
                f"({nm} : {_pp(body.domain, env, lam_names + [self_name] + names, namer, L_BINDER)})")
            lam_names.insert(0, nm)
            body = body.body
        rty = t.full_type
        for _ in lam_binders:
            assert isinstance(rty, Pi)
            rty = rty.codomain
        # rty lies under the lam binders of full_type, without the self binder.
        s = (f"fix {self_name}/{t.decreasing} {' '.join(lam_binders)} : "
             f"{_pp(rty, env, lam_names + names, namer, L_BINDER)} := "
             f"{_pp(body, env, lam_names + [self_name] + names, namer, L_BINDER)}")
        return _wrap(s, L_BINDER, want)
    if isinstance(t, App):
        head, args = spine(t)
        if isinstance(head, Const) and head.name in _INFIX_BUILTINS and len(args) == 2:
            sym, lvl, assoc = _INFIX_BUILTINS[head.name]
            if assoc == 0:  # left associative
                lhs = _pp(args[0], env, names, namer, lvl)
                rhs = _pp(args[1], env, names, namer, lvl + 1)
            elif assoc == 1:  # right associative
                lhs = _pp(args[0], env, names, namer, lvl + 1)
                rhs = _pp(args[1], env, names, namer, lvl)
            else:  # non-associative comparisons
                lhs = _pp(args[0], env, names, namer, lvl + 1)
                rhs = _pp(args[1], env, names, namer, lvl + 1)
            return _wrap(f"{lhs} {sym} {rhs}", lvl, want)
        parts = [_pp(head, env, names, namer, L_ATOM)]
        parts.extend(_pp(a, env, names, namer, L_ATOM) for a in args)
        return _wrap(" ".join(parts), L_APP, want)
    raise ValueError(f"cannot print {t!r}")


def _collect_binders(t: Term, env: GlobalEnv, names: list[str], namer: _Namer, cls):
    """Group consecutive binders of the same flavor for printing."""
    groups: list[str] = []
    cur = t
    names2 = list(names)
    while isinstance(cur, cls):
        if cls is Pi and not namer.uses_binder_at(cur.codomain, 0):
            break
        body = cur.codomain if cls is Pi else cur.body
        nm = namer.fresh(cur.binder) if (namer.uses_binder_at(body, 0) or (cur.binder and cur.binder != "_")) else "_"
        groups.append(f"({nm} : {_pp(cur.domain, env, names2, namer, L_BINDER)})")
        names2 = [nm] + names2
        cur = body
    return " ".join(groups), cur, names2


def _match_inductive(t: Match, env: GlobalEnv) -> str:
    inst = as_inductive_instance(t.scrutinee_type) if t.scrutinee_type is not None else None
    if inst is not None:
        return inst[0]
    # Fall back to matching the branch count against declarations.
    for decl in env.inductives.values():
        if len(decl.ctors) == len(t.branches) and all(
                len(c.arg_types) == b.arity for c, b in zip(decl.ctors, t.branches)):
            return decl.name
    raise ValueError("cannot determine the inductive of a match")


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
