"""The package's plain records (`terms.Record` and its subclasses) keep the
value semantics of the dataclasses they replaced: `==` only between records
of one class with equal fields, a hash that agrees with it (or none, for a
record that changes after it is built), the `Name(field=value)` repr, fresh
default containers per instance, and slots that `==` and `repr` skip."""

from __future__ import annotations

import pytest

from folbridge.conversion import Counterexample, Fuel, _CtorTable, min_term_size, typecheck
from folbridge.terms import (
    BOOL, BOOL_DECL, INT, TRUE, App, Const, CtorDecl, Definition, GlobalEnv, Ind,
    InductiveDecl, IntLit, Problem, TrueP,
)
from folbridge.transforms import (
    ByCaseConversion, ByConversion, ByDefinition, ByInstantiation, DatatypeAxiom,
    Disjointness, Exhaustiveness, Given, Hypothesis, Injectivity, Justification,
    ProofState,
)

NAT = Ind("nat")

# Each builds a fresh record, so `make() is not make()`.
IMMUTABLE = {
    "Justification": lambda: Justification(),
    "Given": lambda: Given(),
    "ByDefinition": lambda: ByDefinition("f"),
    "ByConversion": lambda: ByConversion(),
    "ByConversion_source": lambda: ByConversion(source="h"),
    "ByCaseConversion": lambda: ByCaseConversion("h", (0, 2), depth=2),
    "ByInstantiation": lambda: ByInstantiation("h", (INT, NAT)),
    "Injectivity": lambda: Injectivity(1),
    "Disjointness": lambda: Disjointness(0, 1),
    "Exhaustiveness": lambda: Exhaustiveness(),
    "DatatypeAxiom_inj": lambda: DatatypeAxiom(NAT, Injectivity(1)),
    "DatatypeAxiom_disj": lambda: DatatypeAxiom(NAT, Disjointness(0, 1)),
    "DatatypeAxiom_exh": lambda: DatatypeAxiom(NAT, Exhaustiveness()),
    "Hypothesis": lambda: Hypothesis("h", TrueP(), ByConversion("g")),
    "CtorDecl": lambda: CtorDecl("S", (NAT,)),
    "InductiveDecl": lambda: InductiveDecl("nat", (), (CtorDecl("O", ()), CtorDecl("S", (NAT,)))),
    "Definition": lambda: Definition("two", INT, IntLit(2)),
}


@pytest.mark.parametrize("make", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_record_equals_itself_rebuilt(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("a, b", [
    (Given(), Exhaustiveness()),
    (Justification(), Given()),
    (ByDefinition("f"), ByConversion("f")),
    (ByConversion("h"), ByConversion("g")),
    (ByCaseConversion("h", (0,)), ByCaseConversion("h", (0,), depth=2)),
    (Injectivity(0), Disjointness(0, 0)),
    (DatatypeAxiom(NAT, Injectivity(0)), DatatypeAxiom(NAT, Injectivity(1))),
    (DatatypeAxiom(NAT, Injectivity(0)), DatatypeAxiom(Ind("list"), Injectivity(0))),
    (Hypothesis("h", TrueP(), Given()), Hypothesis("h", TrueP(), ByConversion())),
], ids=repr)
def test_records_of_other_kinds_or_fields_differ(a, b):
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2


def test_record_never_equals_a_tuple_of_its_fields():
    assert Injectivity(1) != (1,)
    assert Given() != ()


def test_reprs_are_pinned():
    assert repr(ByConversion(source="h")) == "ByConversion(source='h')"
    assert repr(ByConversion()) == "ByConversion(source=None)"
    assert repr(Given()) == "Given()"
    assert repr(ByDefinition("f")) == "ByDefinition(const_name='f')"
    assert repr(ByCaseConversion("h", (0,))) == (
        "ByCaseConversion(source='h', split_vars=(0,), depth=1)")
    assert repr(ByInstantiation("h", (INT,))) == "ByInstantiation(source='h', type_args=(IntT(),))"
    assert repr(DatatypeAxiom(NAT, Disjointness(0, 1))) == (
        "DatatypeAxiom(instance=Ind(inductive='nat'), kind=Disjointness(first=0, second=1))")
    assert repr(DatatypeAxiom(NAT, Exhaustiveness())) == (
        "DatatypeAxiom(instance=Ind(inductive='nat'), kind=Exhaustiveness())")
    assert repr(Hypothesis("h", TrueP(), Given())) == (
        "Hypothesis(name='h', statement=TrueP(), justification=Given())")
    assert repr(Fuel()) == "Fuel(remaining=100000)"
    assert repr(Counterexample(TrueP(), TrueP())) == (
        "Counterexample(statement=TrueP(), instance=TrueP(), detail='')")
    assert repr(BOOL_DECL) == ("InductiveDecl(name='Bool', params=(), ctors=("
                               "CtorDecl(name='true', arg_types=()), "
                               "CtorDecl(name='false', arg_types=())))")


def test_env_and_state_reprs_skip_their_caches():
    env = GlobalEnv()
    typecheck(env, [], App(Const("negb"), TRUE))   # fills the closed-type table
    min_term_size(env, BOOL)
    assert env.memo
    assert repr(env) == f"GlobalEnv(inductives={{'Bool': {BOOL_DECL!r}}}, definitions={{}})"
    state = ProofState(env)
    state.statements()
    assert repr(state) == f"ProofState(env={env!r}, hypotheses=[], goal=None)"
    assert repr(Problem(env, [], TrueP())) == (
        f"Problem(env={env!r}, hypotheses=[], goal=TrueP(), lemma_params=[])")


def test_mutable_records_compare_by_fields_and_are_unhashable():
    filled = GlobalEnv()
    filled.names()
    assert filled == GlobalEnv()                # memo is not compared
    assert ProofState(filled) == ProofState(GlobalEnv())
    assert Fuel(3) == Fuel(3) and Fuel(3) != Fuel(4)
    assert Problem(filled, [], TrueP()) == Problem(GlobalEnv(), [], TrueP(), [])
    assert Problem(filled, [], TrueP()) != Problem(filled, [], TrueP(), ["A"])
    for record in (filled, ProofState(filled), Problem(filled, [], TrueP()), Fuel(),
                   Counterexample(TrueP(), TrueP()),
                   _CtorTable("nat", (), (), 1.0)):
        assert type(record).__hash__ is None
        with pytest.raises(TypeError):
            hash(record)


def test_constructor_defaults_are_fresh_per_instance():
    e1, e2 = GlobalEnv(), GlobalEnv()
    assert e1.inductives is not e2.inductives
    assert e1.definitions is not e2.definitions
    assert e1.memo is not e2.memo
    s1, s2 = ProofState(e1), ProofState(e1)
    assert s1.hypotheses is not s2.hypotheses
    assert s1.goal is None
    s1.add(Hypothesis("h", TrueP(), Given()))
    assert s2.hypotheses == [] and s2.statements() == set()
    p1, p2 = Problem(e1, [], TrueP()), Problem(e1, [], TrueP())
    assert p1.lemma_params == [] and p1.lemma_params is not p2.lemma_params
    assert Fuel().remaining == 100_000 and Fuel(remaining=5).remaining == 5
    assert ByCaseConversion("h", (0,)).depth == 1


def test_env_inserts_bool_into_a_new_dict_only_when_missing():
    given = {"nat": InductiveDecl("nat", (), (CtorDecl("O", ()),))}
    env = GlobalEnv(given)
    assert env.inductives is not given and "Bool" not in given
    assert list(env.inductives) == ["Bool", "nat"]
    with_bool = {"Bool": BOOL_DECL}
    assert GlobalEnv(with_bool).inductives is with_bool
    definitions = {"two": Definition("two", INT, IntLit(2))}
    assert GlobalEnv(definitions=definitions).definitions is definitions


def test_ctor_table_takes_its_type_values_after_construction():
    table = _CtorTable("nat", (), ((), (), 1.0), 1.0)
    assert table.vtargs is None
    table.vtargs = ()
    assert table.vtargs == ()


def test_names_see_every_later_declaration():
    env = GlobalEnv()
    before = env.names()
    assert "true" in before and "add" in before and "two" not in before
    assert isinstance(before, frozenset)
    assert env.names() is before                # the same set until a declaration
    env.declare_definition(Definition("two", INT, IntLit(2)))
    assert "two" in env.names()
    env.declare_inductive(InductiveDecl("nat", (), (CtorDecl("O", ()),)))
    assert {"two", "nat", "O"} <= env.names()
    assert "two" not in before                  # a returned set never changes
