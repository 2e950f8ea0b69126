import itertools
import random
from fractions import Fraction as F

import pytest

from uplogic import covers
from uplogic.covers import (
    CoverInstance,
    check_properties,
    l4_instances,
    load_certificate,
    save_certificate,
    search_violation,
    up3_check,
    verify_cover,
)
from uplogic.errors import InputError, InternalCheckError, ResourceError
from uplogic.formula import FALSE, TRUE, Not, Prop, is_tautology
from uplogic.semantics import evaluate
from uplogic.structure import SetFunction, set_function_of

from conftest import random_structure

p, q = Prop("p"), Prop("q")


def ci(sets, target, n, k):
    return CoverInstance(
        sets=tuple(frozenset(s) for s in sets),
        target=frozenset(target),
        n=n,
        k=k,
    )


class TestVerifyCover:
    def test_one_one_cover(self):
        assert verify_cover(ci([{"1"}, {"1", "2"}], {"1"}, 1, 1), {"1", "2"})

    def test_self_cover(self):
        assert verify_cover(ci([{"1"}], {"1"}, 1, 0), {"1", "2"})

    def test_uncovered_element(self):
        assert not verify_cover(ci([{"1"}], {"1"}, 0, 1), {"1", "2"})

    def test_set_outside_ground(self):
        with pytest.raises(InputError):
            verify_cover(ci([{"9"}], {"1"}, 1, 0), {"1", "2"})


class TestUp3:
    def test_cancelling_instance(self):
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 3),
            frozenset({"2"}): F(1, 2), frozenset({"1", "2"}): F(1),
        })
        assert up3_check(v, ci([{"1"}, {"1", "2"}], {"1"}, 1, 1))

    def test_invalid_cover_rejected(self):
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 3),
            frozenset({"2"}): F(1, 2), frozenset({"1", "2"}): F(1),
        })
        with pytest.raises(InputError):
            up3_check(v, ci([{"1"}], {"1"}, 0, 1))

    def test_envelopes_pass_small_instances(self):
        rng = random.Random(5)
        for _ in range(10):
            M = random_structure(rng, max_worlds=3)
            v = set_function_of(M)
            pool = [X for X in v.subsets() if X and X != frozenset(v.ground)]
            for m in range(1, 4):
                for sets in itertools.combinations_with_replacement(pool, m):
                    for target in v.subsets():
                        for n in range(m + 1):
                            for k in range(m + 1 - n):
                                inst = CoverInstance(sets, target, n, k) if n + k else None
                                if inst and verify_cover(inst, v.ground):
                                    assert up3_check(v, inst)


class TestSearchViolation:
    def test_none_for_genuine_envelope(self):
        rng = random.Random(9)
        for _ in range(5):
            v = set_function_of(random_structure(rng, max_worlds=3))
            assert search_violation(v, 4) is None

    def test_degenerate_function_refuted(self):
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(0),
            frozenset({"2"}): F(0), frozenset({"1", "2"}): F(1),
        })
        cert = search_violation(v, 2)
        assert cert is not None
        assert sorted(sorted(s) for s in cert.sets) == [["1"], ["2"]]
        assert verify_cover(cert, v.ground)
        assert not up3_check(v, cert)

    def test_veps_minimal_certificate(self, veps):
        # smallest violation found empirically: the three pairs inside
        # {a,b,c} cover it twice without covering d, giving (n,k) = (2,0)
        cert = search_violation(veps, 3)
        assert cert is not None
        assert sorted(sorted(s) for s in cert.sets) == [
            ["a", "b"], ["a", "c"], ["b", "c"]
        ]
        assert cert.target == frozenset({"a", "b", "c"})
        assert (cert.n, cert.k) == (2, 0)
        assert search_violation(veps, 2) is None

    def test_self_check_raises_internal_error(self, monkeypatch):
        # the found instance is re-verified by an independent check, which
        # must still run under python -O
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(0),
            frozenset({"2"}): F(0), frozenset({"1", "2"}): F(1),
        })
        monkeypatch.setattr(covers, "up3_check", lambda v, c: True)
        with pytest.raises(InternalCheckError):
            search_violation(v, 2)

    def test_budget_enforced(self, veps):
        with pytest.raises(ResourceError):
            search_violation(veps, 6, budget=10)

    def test_certificate_round_trip(self, veps):
        cert = search_violation(veps, 3)
        assert load_certificate(save_certificate(cert)) == cert


class TestL4Instances:
    def test_superadditivity_instance(self):
        # l(p) + l(!p) >= 1 comes from the (0,1)-cover {p, !p}
        got = list(l4_instances([p, Not(p)], 2))
        assert any(b.bound == 1 and len(b.term.parts) == 2 for b in got)

    def test_l_true_instance(self):
        got = list(l4_instances([TRUE], 1))
        assert any(b.bound == 1 and len(b.term.parts) == 1 for b in got)

    def test_coefficient_shape(self):
        for inst in l4_instances([p, Not(p), TRUE], 2):
            assert all(c == 1 or c < 0 for c, _ in inst.term.parts)
            assert inst.bound >= 0

    def test_instances_valid_on_random_structures(self):
        rng = random.Random(15)
        instances = list(l4_instances([p, Not(p), q], 2))
        assert instances
        structures = [random_structure(rng) for _ in range(100)]
        for inst in instances:
            for M in structures:
                assert evaluate(M, inst)


class TestCheckProperties:
    def test_veps_passes_all_six(self, veps):
        report = check_properties(veps, 3)
        assert report[6] is None  # the headline: (6) holds despite no envelope
        assert all(v is None for v in report.values())

    def test_random_envelope_passes(self):
        rng = random.Random(19)
        for _ in range(5):
            M = random_structure(rng)
            assert all(v is None for v in check_properties(M, 3).values())

    def test_non_monotone_function_fails(self):
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1),
            frozenset({"2"}): F(0), frozenset({"1", "2"}): F(1),
        })
        # u({1}) = 1 but dual lower of {2} is 0, fine; force a failure with
        # a genuinely superadditivity-breaking value
        w = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 4),
            frozenset({"2"}): F(1, 4), frozenset({"1", "2"}): F(1),
        })
        report = check_properties(w, 2)
        assert report[6] is not None

    def test_violation_witnesses_check_out(self):
        # a reported pair for (6) must actually break the inequality
        w = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 4),
            frozenset({"2"}): F(1, 4), frozenset({"1", "2"}): F(1),
        })
        A, B = check_properties(w, 2)[6]
        assert not (A & B)
        lower = lambda X: 1 - w(frozenset(w.ground) - X)
        assert not (w(A) + lower(B) <= w(A | B) <= w(A) + w(B))

    def test_max_sets_must_cover_pairs(self):
        with pytest.raises(InputError):
            check_properties(SetFunction(("1",), {
                frozenset(): F(0), frozenset({"1"}): F(1),
            }), 1)
