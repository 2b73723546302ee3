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
