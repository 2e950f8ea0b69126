import itertools
import json
import random
import sys
from fractions import Fraction as F
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplogic import cli, errors
from uplogic.errors import InputError, ResourceError, ValidationError
from uplogic.structure import (
    SetFunction,
    UpperProbStructure,
    load_set_function,
    load_structure,
    lower_of,
    save_set_function,
    save_structure,
    set_function_of,
    upper_of,
)

from conftest import random_structure, structure_with_zeros

_table = attrgetter("ground", "upper", "denominator")


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


def test_values_agree_with_frozenset_sums():
    rng = random.Random(71)
    for _ in range(150):
        M = structure_with_zeros(rng)
        v = set_function_of(M)
        assert v.ground == M.worlds
        assert len(v.values) == len(v.upper) == 1 << len(M.worlds)
        for mask in range(len(v.upper)):
            S = frozenset(w for i, w in enumerate(M.worlds) if mask >> i & 1)
            sums = [sum((m for w, m in mu.items() if w in S), F(0)) for mu in M.measures]
            assert upper_of(M, S) == v(S) == max(sums) == F(v.upper[mask], v.denominator)
            # each measure sums to 1, so the lower probability is the dual
            assert lower_of(M, S) == min(sums) == 1 - v(M.world_set - S)


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
        monkeypatch.setattr(errors, "CEILING", len(M.worlds) - 1)
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

    @pytest.mark.parametrize("key, message", [
        ("b,a", r"subset \{a,b\} is given twice, the second time as 'b,a'"),
        ("a,a", "subset key 'a,a' names an element twice"),
    ])
    def test_a_subset_is_given_once(self, key, message):
        # "b,a" used to overwrite "a,b", so v(ground) read 1/2
        doc = {"omega": ["a", "b"], "v": {"": "0", "a": "1/2", "b": "1/2", "a,b": "1"}}
        doc["v"][key] = "1/2"
        with pytest.raises(ValidationError, match=message):
            load_set_function(json.dumps(doc))


_FULL_DOC = {"omega": ["a", "b"], "v": {"": "0", "a": "1/2", "b": "1/2", "a,b": "1"}}
_LONG = "1" * (sys.get_int_max_str_digits() + 1)


def _with(omega=None, drop=(), **values):
    """_FULL_DOC with another omega, the keys in drop left out, and the
    values given as keyword arguments (the key "a_b" stands for "a,b")."""
    doc = {"omega": omega or _FULL_DOC["omega"],
           "v": {k: x for k, x in _FULL_DOC["v"].items() if k not in drop}}
    doc["v"].update({k.replace("_", ","): x for k, x in values.items()})
    return json.dumps(doc)


class TestSetFunctionReader:
    """Each document below has one fault, and the reader names it."""

    @pytest.mark.parametrize("text, message", [
        (_with(drop=("b",), c="1/2"), "subset ['c'] not within the ground set"),
        (_with(drop=("a",), a_a="1/2"), "subset key 'a,a' names an element twice"),
        (_with(b_a="1"), "subset {a,b} is given twice, the second time as 'b,a'"),
        (_with(drop=("b",)), "set function must be total: expected 4 subsets, got 3"),
        (_with(a="3/2"), "value 3/2 at ['a'] outside [0,1]"),
        (_with(a="-2/4"), "value -1/2 at ['a'] outside [0,1]"),
        (_with(a=0.5), "not a rational: 0.5 (floats are not accepted)"),
        (_with(a="0.5"), "not a rational: '0.5'"),
        (_with(a="1/0"), "not a rational: '1/0'"),
        (_with(a=True), "not a rational: True"),
        (_with(a=_LONG), f"not a rational: '{_LONG}'"),
        (_with(omega=["a", ""]), "omega entry '' cannot appear in a subset key"),
        (_with(omega=["a", "b,c"]), "omega entry 'b,c' cannot appear in a subset key"),
        (_with(omega=["a", "b", "a"]), "duplicate ground element"),
    ])
    def test_single_fault_messages(self, text, message):
        with pytest.raises(ValidationError) as err:
            load_set_function(text)
        assert str(err.value) == message

    def test_defaults_and_lowest_terms(self):
        v = load_set_function('{"omega": ["a", "b"], "v": {"a": "2/4", ",b,": 1}}')
        assert (v.upper, v.denominator) == ([0, 1, 2, 2], 2)
        assert v == SetFunction(("a", "b"), {frozenset("a"): F(1, 2), frozenset("b"): F(1)})
        assert load_set_function('{"omega": [], "v": {}}').values == {frozenset(): 0}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_read_back_and_table(self, data):
        n = data.draw(st.integers(0, 5))
        ground = tuple(data.draw(st.permutations("abcde")))[:n]
        subsets = [frozenset(g for i, g in enumerate(ground) if m >> i & 1)
                   for m in range(1 << n)]
        values = {X: F(data.draw(st.integers(0, 6)), 6) for X in subsets}
        v = SetFunction(ground, values)
        again = load_set_function(save_set_function(v))
        assert again == v and hash(again) == hash(v) and again.values == values
        assert _table(again) == _table(v)
        # keys in any order, elements of a key in any order, values not in
        # lowest terms: the same table
        masks = data.draw(st.permutations(range(1 << n)))
        scale = data.draw(st.integers(1, 4))
        doc = {"omega": list(ground), "v": {}}
        for m in masks:
            X = [g for i, g in enumerate(ground) if m >> i & 1]
            x = values[frozenset(X)]
            doc["v"][",".join(data.draw(st.permutations(X)))] = (
                f"{x.numerator * scale}/{x.denominator * scale}")
        assert _table(load_set_function(json.dumps(doc))) == _table(v)

    def test_a_long_omega_is_refused_before_its_table(self, tmp_path, capsys):
        # 2^40 subsets: the count is checked before any table is built
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"omega": [f"e{i}" for i in range(40)],
                                    "v": {"": "0", "e0": "1/2", "e1": "1/2"}}))
        assert cli.main(["envelope", "--function", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: set function must be total: expected 1099511627776 subsets, got 4\n")
