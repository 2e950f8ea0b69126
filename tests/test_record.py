"""What the formula nodes and result records keep of their record
semantics: keyword construction and defaults, equality within one class,
a hash that equal values share, the repr text, coercion, an AttributeError
on assignment, copy and pickle; and that importing the CLI does not load
the modules that generating records at import would need."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from uplogic.covers import CoverInstance
from uplogic.envelope import EnvelopeResult
from uplogic.errors import InputError
from uplogic.formula import And, Basic, Const, LAnd, LNot, LOr, Not, Or, Prop, Rel, Term
from uplogic.lp import Constraint, LPOutcome, Relation, Verdict, make_system
from uplogic.solver import BoundsResult, SatResult, SatVerdict, ValidityResult
from uplogic.structure import SetFunction, UpperProbStructure

p, q, r = Prop("p"), Prop("q"), Prop("r")
t = Term(((F(1), p),))
a, b, c = Basic(t, Rel.GE, F(1, 2)), Basic(t, Rel.GT, F(0)), Basic(t, Rel.LT, F(1))
T = "Term(parts=((Fraction(1, 1), Prop(name='p')),))"

# (a node, the same value built another way, its repr)
NODES = [
    (Prop("p"), Prop(name="p"), "Prop(name='p')"),
    (Const(True), Const(value=True), "Const(value=True)"),
    (Not(p), Not(sub=Prop("p")), "Not(sub=Prop(name='p'))"),
    (And(p, q), And(Prop("p"), Prop("q")), "And(parts=(Prop(name='p'), Prop(name='q')))"),
    (Or(p, q, r), Or(Or(p, q), r),
     "Or(parts=(Prop(name='p'), Prop(name='q'), Prop(name='r')))"),
    (Term(((1, p),)), Term(parts=((F(1), Prop("p")),)), T),
    (Basic(t, Rel.GE, 1), Basic(term=Term(((1, p),)), rel=Rel.GE, bound=F(1)),
     f"Basic(term={T}, rel=<Rel.GE: '>='>, bound=Fraction(1, 1))"),
    (LNot(b), LNot(sub=Basic(t, Rel.GT, 0)),
     f"LNot(sub=Basic(term={T}, rel=<Rel.GT: '>'>, bound=Fraction(0, 1)))"),
    (LAnd(LAnd(a, b), c), LAnd(a, b, c), None),
    (LOr(a, LOr(b, c)), LOr(a, b, c), None),
]


@pytest.mark.parametrize("node, same, text", NODES, ids=[type(n[0]).__name__ for n in NODES])
class TestNodes:
    def test_equal_values_share_a_hash(self, node, same, text):
        assert node == same and not node != same and node is not same
        assert hash(node) == hash(same) == hash(node)
        assert {node: 1}[same] == 1

    def test_repr(self, node, same, text):
        assert repr(node) == repr(same)
        if text is not None:
            assert repr(node) == text

    def test_assignment_raises(self, node, same, text):
        field = next(iter(type(node).__slots__))
        with pytest.raises(AttributeError):
            setattr(node, field, p)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.other = 1
        assert node == same


def test_equality_needs_one_class():
    assert And(p, q) != Or(p, q) and LAnd(a, b) != LOr(a, b)
    assert Not(p) != LNot(p) and And(a, b) != LAnd(a, b)
    assert len({And(p, q), Or(p, q), LAnd(p, q), LOr(p, q)}) == 4
    assert Prop("p") != "p" and Prop("p") != ("p",)


def test_coercion_and_checks():
    assert type(Basic(t, Rel.GE, 1).bound) is F
    assert [type(x) for x, _ in Term(((2, p), (F(1, 3), q))).parts] == [F, F]
    assert LAnd(a, LAnd(b, c)).parts == (a, b, c)
    for build in (lambda: Prop(""), lambda: Term(()), lambda: And(p), lambda: LOr(a),
                  lambda: CoverInstance((), frozenset(), 1, 0),
                  lambda: CoverInstance((frozenset("a"),), frozenset(), 0, 0)):
        with pytest.raises(InputError):
            build()


def test_records_keep_their_signatures():
    assert LPOutcome(Verdict.FEASIBLE) == LPOutcome(
        verdict=Verdict.FEASIBLE, point=None, value=None, attained=True)
    assert repr(LPOutcome(Verdict.OPTIMAL, [F(1)], F(2), False)) == (
        "LPOutcome(verdict=<Verdict.OPTIMAL: 'optimal'>, point=[Fraction(1, 1)], "
        "value=Fraction(2, 1), attained=False)")
    assert SatResult(SatVerdict.UNSAT) == SatResult(verdict=SatVerdict.UNSAT, model=None,
                                                    stats=None)
    assert ValidityResult(True).countermodel is None
    bounds = BoundsResult(F(0), True, upper=F(1), upper_attained=False)
    assert hash(bounds) == hash(BoundsResult(F(0), True, F(1), False))
    assert EnvelopeResult(True) == EnvelopeResult(
        is_upper_probability=True, witness=None, failing_set=None, failing_reason=None,
        shortfall_value=None)
    cover = CoverInstance(sets=(frozenset("a"),), target=frozenset("a"), n=1, k=0)
    assert cover == CoverInstance((frozenset("a"),), frozenset("a"), 1, 0)
    assert repr(cover) == ("CoverInstance(sets=(frozenset({'a'}),), target=frozenset({'a'}), "
                           "n=1, k=0)")
    for record in (bounds, cover):
        with pytest.raises(AttributeError):
            record.n = 2
    with pytest.raises(TypeError):
        BoundsResult(F(0), True, F(1))


def test_cached_properties_survive():
    system = make_system(1, [Constraint({0: 1}, Relation.GE, 1, 1)])
    assert system._phase_one is system._phase_one
    assert system == make_system(1, [Constraint({0: 1}, Relation.GE, 1, 1)])
    M = UpperProbStructure(("p",), ("w0", "w1"), {"w0": {"p": True}, "w1": {}},
                           ({"w0": F(1, 2), "w1": F(1, 2)},))
    assert M.measure_ids == ("m0",) and M.columns == {"p": 1} and M.full == 3
    v = SetFunction(ground=("a",), values={})
    assert v.values == {frozenset(): 0, frozenset("a"): 1}
    assert v.values is v.values
    with pytest.raises(AttributeError):
        v.values = {}


def test_copy_and_pickle():
    node = LAnd(a, LNot(b))
    hash(node)
    v = SetFunction(("a", "b"), {frozenset("a"): F(1, 2), frozenset("b"): F(1, 2)})
    v.values
    for x in (node, LPOutcome(Verdict.OPTIMAL, [F(1)], F(2)), v):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x
    assert hash(pickle.loads(pickle.dumps(node))) == hash(node)
    assert repr(copy.deepcopy(node)) == repr(node)
    assert pickle.loads(pickle.dumps(v)).values == v.values


def test_importing_the_cli_loads_no_dataclasses():
    """Generating record classes at import (dataclasses, which loads
    inspect) took most of the CLI's start-up; only modules that a bare
    interpreter had not loaded count."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import uplogic.cli; print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert "uplogic.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
