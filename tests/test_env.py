"""Declarations carry their own types, and the environment keeps its own
indexes: `InductiveDecl.type` and `InductiveDecl.ctor_types` against the
types the environment used to build on demand (tests/decl_reference.py),
every answer an environment gives after later declarations against the
answer of a fresh environment that holds the same declarations, and copies
of an environment or a proof state, which start with empty caches."""

from __future__ import annotations

import copy
import gc
import pickle
import random

import pytest

import decl_reference
from folbridge.conversion import min_term_size, random_ground_term, typecheck
from folbridge.parser import parse_problem
from folbridge.transforms import Given, Hypothesis, ProofState, monomorphize
from folbridge.terms import (
    INT, TYPE, App, Const, Ctor, CtorDecl, Definition, FolbridgeError, GlobalEnv, Ind,
    InductiveDecl, IntLit, Var, make_app,
)

# Two parameters, a nested recursive occurrence and a constructor that
# mentions an earlier inductive.
EXTRA = """\
data option (A) = none | some (A).
data list (A) = nil | cons (A) (list A).
data pair (A B) = mk (A) (B) | swap (B) (A) (pair A B).
data rose (A) = rnode (A) (list (rose A)).
data keyed (K V) = entry (K) (option V) (list (pair K V)).
goal true = true.
"""


def _envs(prelude, bench_driver):
    _, workloads = bench_driver
    yield prelude.env
    yield parse_problem(EXTRA).env
    for w in workloads.GENERATORS:
        for index in range(len(workloads.SIZES[w])):
            yield parse_problem(workloads.problem(w, 0, index)[1]).env


def test_declarations_carry_the_reference_types(prelude, bench_driver):
    """Binder names included: the types are compared by `repr`."""
    seen = set()
    for env in _envs(prelude, bench_driver):
        for decl in env.inductives.values():
            assert repr(decl.type) == repr(decl_reference.ind_type(env, decl.name))
            assert [repr(t) for t in decl.ctor_types] == [
                repr(decl_reference.ctor_type(env, decl.name, k))
                for k in range(len(decl.ctors))], decl.name
            seen.add(decl.name)
    assert {"Bool", "nat", "list", "option", "tree", "pair", "rose", "keyed"} <= seen


NAT = Ind("nat")

# Declared one at a time: a later one mentions earlier ones, and `wrap`
# holds the alias `T`.
DECLARATIONS = [
    InductiveDecl("nat", (), (CtorDecl("O", ()), CtorDecl("S", (NAT,)))),
    Definition("two", INT, IntLit(2)),
    InductiveDecl("box", ("A",), (CtorDecl("B", (Var(0), NAT)), CtorDecl("E", ()))),
    Definition("T", TYPE, App(Ind("box"), NAT)),
    InductiveDecl("wrap", (), (CtorDecl("W", (Const("T"),)),)),
]

NAMES = ["nat", "O", "S", "two", "box", "B", "E", "T", "wrap", "W", "true", "add", "nope"]

TERMS = [
    Ctor("nat", 1), Ind("box"), Const("two"), Const("T"), Ctor("wrap", 0),
    App(Ctor("nat", 1), Ctor("nat", 0)),
    make_app(Ctor("box", 0), [NAT, Ctor("nat", 0), Ctor("nat", 0)]),
    App(Ctor("wrap", 0), make_app(Ctor("box", 1), [NAT])),
]

TYPES = [NAT, App(Ind("box"), NAT), App(Ind("box"), App(Ind("box"), INT)), Const("T"),
         Ind("wrap"), App(Ind("box"), Const("T"))]


def _outcome(fn, *args):
    """repr of fn's result, or the class of the error it raises."""
    try:
        return repr(fn(*args))
    except FolbridgeError as e:
        return type(e)


def _answers(env: GlobalEnv) -> list:
    out = [sorted(env.names())]
    out += [env.find_ctor(n) for n in NAMES]
    out += [_outcome(typecheck, env, [], t) for t in TERMS]
    out += [_outcome(min_term_size, env, ty) for ty in TYPES]
    out += [_outcome(random_ground_term, env, ty, 6, random.Random(seed))
            for ty in TYPES for seed in range(3)]
    return out


def test_later_declarations_answer_like_a_fresh_environment():
    """The environment answers every query before each declaration; after
    it, each answer equals that of a fresh environment built from the same
    declarations, so nothing it kept from before went stale."""
    env = GlobalEnv()
    for i, d in enumerate(DECLARATIONS):
        _answers(env)
        if isinstance(d, InductiveDecl):
            env.declare_inductive(d)
        else:
            env.declare_definition(d)
        so_far = DECLARATIONS[:i + 1]
        fresh = GlobalEnv({e.name: e for e in so_far if isinstance(e, InductiveDecl)},
                          {e.name: e for e in so_far if isinstance(e, Definition)})
        assert _answers(env) == _answers(fresh), d.name
    # The last environment answers every query: nothing was left unknown.
    assert all(type(a) is not type for a in _answers(env))


COPIED = ("data nat = O | S (nat). data list (A) = nil | cons (A) (list A). "
          "goal cons nat O (nil nat) = cons nat (S O) (nil nat) /\\ S (S O) = S O "
          "/\\ nil nat = nil nat.")

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_copied_environment_starts_with_empty_caches(round_trip):
    """The closed-type table and the table of closed applications are keyed
    by ids. A copy of an environment is rebuilt from its declarations with
    both empty; a copied entry would be keyed by the id of a term that dies
    with the original, and would type whichever term lands at that address
    next (a deep copy or pickle of the environment typed such an `add`
    application `list nat`)."""
    problem = parse_problem(COPIED)
    assert problem.env.memo and problem.env.apps
    env = round_trip(problem.env)
    assert env == problem.env and env.memo == {} and env.apps == {}
    assert env.names() == problem.env.names() and env.find_ctor("cons") == ("list", 1)
    del problem
    gc.collect()
    sums = [make_app(Const("add"), [IntLit(i), IntLit(1)]) for i in range(300)]
    assert all(typecheck(env, [], t) == INT for t in sums)


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_copied_state_starts_with_empty_caches(round_trip):
    """A proof state keeps its instantiations by the ids of its statements;
    a copy is rebuilt from its fields, so it indexes its hypotheses and
    type instances again, and instantiates anew."""
    problem = parse_problem(COPIED.replace(
        "goal", "hyp len : forall (A : Type) (l : list A), l = l. goal"))
    state = ProofState(problem.env, [Hypothesis(n, t, Given()) for n, t in problem.hypotheses],
                       problem.goal)
    first = monomorphize(state)
    assert first and state._instantiations
    copied = round_trip(state)
    assert copied == state and not copied._instantiations
    assert copied.type_instances() and repr(copied.type_instances()) == repr(state.type_instances())
    assert repr(monomorphize(copied)) == repr(first)
