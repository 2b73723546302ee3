"""Seeded generators for the benchmark's workloads.

Each generator turns a size and a random source into the text of one `.fol`
problem; the program under test only ever sees that text. Problem `i` of a
run uses size `SIZES[w][i % 3]`, so whole rounds keep the size mix fixed.
The shape of every problem is fixed per workload and size, and the seed
draws the data, the constants and the order, so the hypothesis count of a
problem depends on its size only.
"""

from __future__ import annotations

import random

# The datatype/function prelude of the test suite (tests/conftest.py).
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
"""


def int_list(values: list[int]) -> str:
    out = "nil Int"
    for v in reversed(values):
        out = f"cons Int {v} ({out})"
    return out


def ground_data(n: int, rng: random.Random) -> str:
    """One closed goal over a concrete `list Int` literal of n elements,
    mentioning length, app and search."""
    values = [rng.randrange(100) for _ in range(n)]
    x = rng.randrange(100)
    y = rng.randrange(100)
    return PRELUDE + (
        f"goal length Int (app Int ({int_list(values)}) ({int_list([x])})) = {n + 1}"
        f" /\\ search Int {x} ({int_list([y])}) = {'true' if x == y else 'false'}.\n")


# Prenex-polymorphic lemma templates over one type binder. `C` is a drawn
# constant that makes every draw a distinct statement; the remaining
# fields are binder names, renamed in the alpha-duplicates.
LEMMA_TEMPLATES = (
    "forall ({A} : Type) ({l1} {l2} : list {A}),"
    " length {A} (app {A} {l1} {l2}) + {C} = length {A} {l1} + (length {A} {l2} + {C})",
    "forall ({A} : Type) ({l} : list {A}),"
    " length {A} (app {A} {l} (nil {A})) + {C} = length {A} {l} + {C}",
    "forall ({A} : Type) ({x} : {A}) ({l} : list {A}),"
    " length {A} (cons {A} {x} {l}) + {C} = 1 + length {A} {l} + {C}",
    "forall ({A} : Type) ({x} : {A}) ({l1} {l2} : list {A}),"
    " search {A} {x} (app {A} {l1} {l2}) = search {A} {x} {l1} || search {A} {x} {l2}"
    " /\\ {C} <= {C} + length {A} {l1} = true",
    "forall ({A} : Type) ({x} : {A}) ({l} : list {A}),"
    " hd_error {A} (app {A} (cons {A} {x} (nil {A})) {l}) = some {A} {x}"
    " /\\ length {A} {l} + {C} = {C} + length {A} {l}",
    "forall ({A} : Type) ({l} : list {A}),"
    " nlength {A} (app {A} {l} (nil {A})) = nlength {A} {l}"
    " /\\ length {A} {l} + {C} = {C} + length {A} {l}",
    "forall ({A} : Type) ({x} : {A}) ({l} : list {A}),"
    " search {A} {x} (cons {A} {x} {l}) = true /\\ {C} < {C} + 1 + length {A} {l} = true",
)

BINDERS = {"A": "A", "x": "x", "l": "l", "l1": "l1", "l2": "l2"}
RENAMED = {"A": "B", "x": "y", "l": "m", "l1": "m1", "l2": "m2"}

# One lemma in DUPLICATE_EVERY is an alpha-duplicate of an earlier one.
DUPLICATE_EVERY = 4

# The goal names six ground type instances. Its only defined constant is
# the monomorphic `bnot`, so every transformation runs while the hypotheses
# stay mostly the lemmas, their instances and the datatype axioms.
POLY_GOAL = (
    "goal forall (xs : list (list Int)) (o : option nat) (b : Bool),"
    " xs = xs /\\ o = o /\\ bnot (bnot b) = b.\n")


def poly_lemmas(k: int, rng: random.Random) -> str:
    """k polymorphic lemmas, k // DUPLICATE_EVERY of them alpha-duplicates
    of earlier ones with renamed binders, and a goal over six ground type
    instances."""
    n_dup = k // DUPLICATE_EVERY
    constants = rng.sample(range(1, 1000), k - n_dup)
    drawn = [(LEMMA_TEMPLATES[i % len(LEMMA_TEMPLATES)], c)
             for i, c in enumerate(constants)]
    dup_slots = set(rng.sample(range(1, k), n_dup))
    lemmas: list[str] = []
    seen = 0
    for i in range(k):
        if i in dup_slots:
            template, c = drawn[rng.randrange(seen)]
            lemmas.append(template.format(C=c, **RENAMED))
        else:
            template, c = drawn[seen]
            seen += 1
            lemmas.append(template.format(C=c, **BINDERS))
    body = "".join(f"lemma p{i} : {s}.\n" for i, s in enumerate(lemmas))
    return PRELUDE + body + POLY_GOAL


TREE_PRELUDE = """\
data nat = O | S (nat).
data tree = leaf | node (tree) (nat) (tree).
def plus : nat -> nat -> nat =
  fix plus/0 (a : nat) (b : nat) : nat :=
    match a return nat with | O => b | S p => S (plus p b) end.
"""


def _nat(v: int) -> str:
    out = "O"
    for _ in range(v):
        out = f"S ({out})"
    return out


def unfold_defs(m: int, rng: random.Random) -> str:
    """m monomorphic recursive definitions over nat and tree, each with a
    nested match, cycling through four templates; each may call an earlier
    definition of the right type. The goal mentions every definition."""
    by_type: dict[str, list[str]] = {"nn": [], "tn": [], "tb": [], "tt": []}
    defs: list[str] = []
    goal: list[str] = []

    def call(kind: str, default: str, arg: str) -> str:
        pool = by_type[kind]
        if pool and rng.random() < 0.5:
            return f"{rng.choice(pool)} {arg}"
        return default

    for i in range(m):
        d = f"d{i}"
        kind = ("nn", "tn", "tb", "tt")[i % 4]
        k = _nat(rng.randrange(3))
        if kind == "nn":
            defs.append(
                f"def {d} : nat -> nat = fix {d}/0 (n : nat) : nat :="
                f" match n return nat with | O => {k} | S p =>"
                f" match p return nat with | O => S ({k}) | S q =>"
                f" plus ({d} q) ({call('nn', 'p', 'p')}) end end.")
            goal.append(f"{d} (S n) = {d} (S n)")
        elif kind == "tn":
            defs.append(
                f"def {d} : tree -> nat = fix {d}/0 (t : tree) : nat :="
                f" match t return nat with | leaf => {k} | node l x r =>"
                f" match x return nat with | O => {d} l | S y =>"
                f" plus ({d} r) ({call('nn', 'y', 'y')}) end end.")
            goal.append(f"{d} t = {d} t")
        elif kind == "tb":
            b = rng.choice(("true", "false"))
            defs.append(
                f"def {d} : tree -> Bool = fix {d}/0 (t : tree) : Bool :="
                f" match t return Bool with | leaf => {b} | node l x r =>"
                f" match x return Bool with | O => {d} l | S _ =>"
                f" {d} r || {call('tb', 'false', 'l')} end end.")
            goal.append(f"{d} t = {d} t")
        else:
            defs.append(
                f"def {d} : tree -> tree = fix {d}/0 (t : tree) : tree :="
                f" match t return tree with | leaf => leaf | node l x r =>"
                f" node ({d} r) ({call('nn', 'x', 'x')}) ({call('tt', 'l', 'l')}) end.")
            goal.append(f"{d} t = {d} t")
        by_type[kind].append(d)
    conj = " /\\ ".join(goal)
    return (TREE_PRELUDE + "\n".join(defs) + "\n"
            + f"goal forall (t : tree) (n : nat), {conj}.\n")


GENERATORS = {
    "ground_data": ground_data,
    "poly_lemmas": poly_lemmas,
    "unfold_defs": unfold_defs,
}

SIZES = {
    "ground_data": (20, 40, 80),
    "poly_lemmas": (10, 20, 40),
    "unfold_defs": (8, 16, 32),
}


def problem(workload: str, seed: int, index: int) -> tuple[int, str]:
    """The size and text of problem `index` of a run with `seed`."""
    sizes = SIZES[workload]
    size = sizes[index % len(sizes)]
    rng = random.Random(f"{workload}/{seed}/{index}")
    return size, GENERATORS[workload](size, rng)
