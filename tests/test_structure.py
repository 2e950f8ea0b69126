import itertools
import random
from fractions import Fraction as F

import pytest

from uplogic import structure
from uplogic.errors import InputError, ResourceError, ValidationError
from uplogic.structure import (
    SetFunction,
    UpperProbStructure,
    load_set_function,
    load_structure,
    lower_of,
    mask_tables,
    save_set_function,
    save_structure,
    set_function_of,
    upper_of,
)

from conftest import random_structure


class TestLoadSave:
    def test_marble_fixture(self, marble):
        assert len(marble.worlds) == 3
        assert len(marble.measures) == 2

    def test_bad_total_rejected(self):
        doc = """{"props":["p"],"worlds":[{"id":"w0","assign":{"p":true}}],
                  "measures":[{"id":"m0","dist":{"w0":"99/100"}}]}"""
        with pytest.raises(ValidationError, match="m0"):
            load_structure(doc)

    def test_negative_mass_rejected(self):
        doc = """{"props":["p"],
                  "worlds":[{"id":"w0","assign":{"p":true}},{"id":"w1","assign":{"p":false}}],
                  "measures":[{"id":"m0","dist":{"w0":"3/2","w1":"-1/2"}}]}"""
        with pytest.raises(ValidationError, match="negative"):
            load_structure(doc)

    def test_unknown_world_rejected(self):
        doc = """{"props":["p"],"worlds":[{"id":"w0","assign":{"p":true}}],
                  "measures":[{"id":"m0","dist":{"nope":"1"}}]}"""
        with pytest.raises(ValidationError, match="nope"):
            load_structure(doc)

    def test_float_rejected(self):
        doc = """{"props":["p"],"worlds":[{"id":"w0","assign":{"p":true}}],
                  "measures":[{"id":"m0","dist":{"w0":0.5}}]}"""
        with pytest.raises(ValidationError):
            load_structure(doc)

    def test_undeclared_prop_rejected(self):
        # the model checker reads only declared propositions, so an
        # undeclared one set true in a file would be false there
        doc = """{"props":["p"],"worlds":[{"id":"w0","assign":{"p":false,"q":true}}],
                  "measures":[{"id":"m0","dist":{"w0":"1"}}]}"""
        with pytest.raises(ValidationError, match="world 'w0' assigns 'q'"):
            load_structure(doc)

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(200):
            M = random_structure(rng)
            M2 = load_structure(save_structure(M))
            assert M2.worlds == M.worlds
            assert M2.props == M.props
            assert M2.assignment == M.assignment
            assert all(
                M2.mass(i, w) == M.mass(i, w)
                for i in range(len(M.measures))
                for w in M.worlds
            )


class TestEnvelopes:
    def test_empty_and_full(self, marble):
        assert upper_of(marble, set()) == 0
        assert upper_of(marble, set(marble.worlds)) == 1
        assert lower_of(marble, set()) == 0

    def test_marble_blue(self, marble):
        assert upper_of(marble, {"blue"}) == F(7, 10)
        assert lower_of(marble, {"blue"}) == 0

    def test_table_abc(self, table):
        assert upper_of(table, {"a", "b", "c"}) == F(3, 4)

    def test_unknown_world(self, marble):
        with pytest.raises(InputError):
            upper_of(marble, {"green"})

    def test_duality_exhaustive(self):
        rng = random.Random(31)
        for _ in range(40):
            M = random_structure(rng)
            worlds = set(M.worlds)
            for r in range(len(M.worlds) + 1):
                for S in itertools.combinations(M.worlds, r):
                    S = set(S)
                    assert lower_of(M, S) == 1 - upper_of(M, worlds - S)

    def test_monotone_and_subadditive(self):
        rng = random.Random(37)
        for _ in range(40):
            M = random_structure(rng, max_worlds=4)
            subs = [set(c) for r in range(len(M.worlds) + 1)
                    for c in itertools.combinations(M.worlds, r)]
            for S, T in itertools.product(subs, repeat=2):
                if S <= T:
                    assert upper_of(M, S) <= upper_of(M, T)
                assert upper_of(M, S | T) <= upper_of(M, S) + upper_of(M, T)
                if not (S & T):
                    assert upper_of(M, S) + lower_of(M, T) <= upper_of(M, S | T)


def _with_zeros(rng):
    """A random structure with explicit zero masses and a world that no
    dist lists."""
    M = random_structure(rng, max_worlds=5)
    measures = tuple({**mu, **{w: F(0) for w in M.worlds if w not in mu and rng.random() < 0.5}}
                     for mu in M.measures)
    worlds = list(M.worlds)
    worlds.insert(rng.randint(0, len(worlds)), "unlisted")
    return UpperProbStructure(props=M.props, worlds=tuple(worlds),
                              assignment={**M.assignment, "unlisted": {}}, measures=measures)


def test_values_agree_with_frozenset_sums():
    rng = random.Random(71)
    for _ in range(150):
        M = _with_zeros(rng)
        v = set_function_of(M)
        ground, upper, lower, L = mask_tables(M)
        assert ground == list(M.worlds) and v.ground == M.worlds
        assert len(v.values) == len(upper) == 1 << len(M.worlds)
        for mask in range(len(upper)):
            S = frozenset(w for i, w in enumerate(M.worlds) if mask >> i & 1)
            sums = [sum((m for w, m in mu.items() if w in S), F(0)) for mu in M.measures]
            assert upper_of(M, S) == v(S) == max(sums) == F(upper[mask], L)
            assert lower_of(M, S) == min(sums) == F(lower[mask], L)


class TestSetFunction:
    def test_point_mass(self):
        M = UpperProbStructure(
            props=("p",),
            worlds=("w0", "w1"),
            assignment={"w0": {"p": True}, "w1": {"p": False}},
            measures=({"w0": F(1)},),
        )
        v = set_function_of(M)
        for X in v.subsets():
            assert v(X) == (1 if "w0" in X else 0)

    def test_table_values(self, table):
        v = set_function_of(table)
        assert v({"d"}) == F(1, 2)
        assert v({"a", "b", "c"}) == F(3, 4)

    def test_veps_differs_only_at_abc(self, table, veps):
        v = set_function_of(table)
        for X in v.subsets():
            if X == frozenset({"a", "b", "c"}):
                assert veps(X) == v(X) + F(1, 16)
            else:
                assert veps(X) == v(X)

    def test_world_cap(self, monkeypatch):
        M = random_structure(random.Random(1), max_worlds=5)
        monkeypatch.setattr(structure, "DEFAULT_WORLD_CAP", len(M.worlds) - 1)
        with pytest.raises(ResourceError):
            set_function_of(M)

    def test_file_round_trip(self, veps):
        again = load_set_function(save_set_function(veps))
        assert again.ground == veps.ground
        assert again.values == veps.values

    def test_missing_subset_rejected(self):
        with pytest.raises(ValidationError, match="total"):
            load_set_function('{"omega":["a","b"],"v":{"a":"1/2"}}')

    def test_value_out_of_range(self):
        with pytest.raises(ValidationError):
            load_set_function(
                '{"omega":["a"],"v":{"":"0","a":"3/2"}}'
            )
