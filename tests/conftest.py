"""Shared fixtures: the standard datatype/function environment used across
the suite, built by parsing a prelude problem file; and a call counter."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from folbridge.parser import parse_problem

PRELUDE = """\
data option (A) = none | some (A).
data list (A) = nil | cons (A) (list A).
data nat = O | S (nat).
def hd_error : forall (A : Type), list A -> option A =
  fun (A : Type) (l : list A) =>
    match l return option A with | nil => none A | cons x _ => some A x end.
def length : forall (A : Type), list A -> Int =
  fun (A : Type) =>
    fix length/0 (l : list A) : Int :=
      match l return Int with | nil => 0 | cons _ l' => 1 + length l' end.
def nlength : forall (A : Type), list A -> nat =
  fun (A : Type) =>
    fix nlength/0 (l : list A) : nat :=
      match l return nat with | nil => O | cons _ l' => S (nlength l') end.
def app : forall (A : Type), list A -> list A -> list A =
  fun (A : Type) =>
    fix app/0 (l1 : list A) (l2 : list A) : list A :=
      match l1 return list A with | nil => l2 | cons x l0 => cons A x (app l0 l2) end.
def search : forall (A : Type), A -> list A -> Bool =
  fun (A : Type) =>
    fix search/1 (x : A) (l : list A) : Bool :=
      match l return Bool with | nil => false | cons x0 l0 => eqb A x x0 || search x l0 end.
def two : Int = 2.
def bnot : Bool -> Bool =
  fun (b : Bool) => match b return Bool with | true => false | false => true end.
goal true = true.
"""

# A problem shaped like the benchmark's poly_lemmas workload: polymorphic
# lemmas (p3 an alpha-duplicate of p0) and a goal over ground instances.
POLY_PROBLEM = PRELUDE.replace("goal true = true.\n", """\
lemma p0 : forall (A : Type) (l1 l2 : list A),
  length A (app A l1 l2) + 3 = length A l1 + (length A l2 + 3).
lemma p1 : forall (A : Type) (x : A) (l : list A),
  search A x (cons A x l) = true /\\ 5 < 5 + 1 + length A l = true.
lemma p2 : forall (A : Type) (l : list A),
  nlength A (app A l (nil A)) = nlength A l /\\ length A l + 7 = 7 + length A l.
lemma p3 : forall (B : Type) (m1 m2 : list B),
  length B (app B m1 m2) + 3 = length B m1 + (length B m2 + 3).
goal forall (xs : list (list Int)) (o : option nat) (b : Bool),
  xs = xs /\\ o = o /\\ bnot (bnot b) = b.
""")

# A problem shaped like the benchmark's unfold_defs workload: recursive
# definitions over nat and tree with nested matches, each in the goal.
UNFOLD_PROBLEM = """\
data nat = O | S (nat).
data tree = leaf | node (tree) (nat) (tree).
def plus : nat -> nat -> nat =
  fix plus/0 (a : nat) (b : nat) : nat :=
    match a return nat with | O => b | S p => S (plus p b) end.
def d0 : nat -> nat = fix d0/0 (n : nat) : nat :=
  match n return nat with | O => S O | S p =>
  match p return nat with | O => S (S O) | S q => plus (d0 q) p end end.
def d1 : tree -> nat = fix d1/0 (t : tree) : nat :=
  match t return nat with | leaf => O | node l x r =>
  match x return nat with | O => d1 l | S y => plus (d1 r) (d0 y) end end.
def d2 : tree -> Bool = fix d2/0 (t : tree) : Bool :=
  match t return Bool with | leaf => true | node l x r =>
  match x return Bool with | O => d2 l | S _ => d2 r || false end end.
def d3 : tree -> tree = fix d3/0 (t : tree) : tree :=
  match t return tree with | leaf => leaf | node l x r => node (d3 r) (d0 x) (d3 l) end.
goal forall (t : tree) (n : nat), d0 (S n) = d0 (S n) /\\ d1 t = d1 t /\\ d2 t = d2 t
  /\\ d3 t = d3 t.
"""


def count_calls(monkeypatch, name: str, *modules) -> list[tuple]:
    """Wrap the function `name` at its binding in each of `modules` (the
    first must hold it) and return the list of the argument tuples the
    wrapper records, one per call."""
    calls: list[tuple] = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


@pytest.fixture(scope="session")
def prelude():
    return parse_problem(PRELUDE)


@pytest.fixture(scope="session")
def env(prelude):
    return prelude.env


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="session")
def bench_driver():
    """The benchmark's driver and generators, imported read-only."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import driver
    import workloads
    return driver, workloads
