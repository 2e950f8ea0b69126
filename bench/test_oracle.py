"""Each of the benchmark's answer checks rejects a wrong answer.

    python3 -m pytest -q bench/test_oracle.py

Correct answers come from running the CLI on generated queries, and each
test first shows that the check accepts them.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import WrongAnswer  # noqa: E402
from uplogic import cli  # noqa: E402


def ask(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--json", *argv])
    return rc, json.loads(out.getvalue())


def first(verb, truth):
    for block in workloads.generate("solver", 7):
        for q in block:
            if q.verb == verb and q.expect["truth"] == truth:
                return q
    raise AssertionError(f"no {verb} {truth} query")


P = ("var", "p")
HALF = ("land", [("basic", ((Q(1), P),), "=", Q(1, 2))])


def model(p_mass):
    return {"props": ["p"],
            "worlds": [{"id": "w0", "assign": {"p": False}}, {"id": "w1", "assign": {"p": True}}],
            "measures": [{"id": "m0", "dist": {"w0": str(1 - p_mass), "w1": str(p_mass)}}]}


def test_flipped_sat_verdict():
    q = first("sat", "SAT")
    rc, doc = ask(q.argv)
    oracle.check(q, rc, doc)
    with pytest.raises(WrongAnswer):
        oracle.check(q, 1, {"verdict": "UNSAT"})
    q = first("sat", "UNSAT")
    rc, doc = ask(q.argv)
    oracle.check(q, rc, doc)
    with pytest.raises(WrongAnswer):
        oracle.check(q, 0, {"verdict": "SAT", "model": model(Q(1, 2))})


def test_flipped_valid_verdict():
    q = first("valid", "VALID")
    rc, doc = ask(q.argv)
    oracle.check(q, rc, doc)
    with pytest.raises(WrongAnswer):
        oracle.check(q, 1, {"verdict": "INVALID", "countermodel": model(Q(1, 2))})


def test_model_with_one_mass_moved():
    expect = {"formula": HALF, "truth": "SAT"}
    oracle.check_sat(expect, 0, {"verdict": "SAT", "model": model(Q(1, 2))})
    with pytest.raises(WrongAnswer):
        oracle.check_sat(expect, 0, {"verdict": "SAT", "model": model(Q(3, 4))})
    q = first("valid", "INVALID")
    rc, doc = ask(q.argv)
    oracle.check(q, rc, doc)
    with pytest.raises(WrongAnswer):  # a mass moved out of the model: it sums to 1 - 1/100
        dist = doc["countermodel"]["measures"][0]["dist"]
        w = next(iter(dist))
        dist[w] = str(Q(dist[w]) - Q(1, 100))
        oracle.check(q, rc, doc)


def _followups_agree(q, doc):
    for follow in oracle.bounds_followups(q.expect, doc):
        oracle.check(follow, *ask(follow.argv))


@pytest.mark.parametrize("end", ["lower", "upper"])
@pytest.mark.parametrize("shift", [Q(-1, 100), Q(1, 100)])
def test_bound_off_by_one_hundredth(end, shift):
    q = first("bounds", "SAT")
    rc, doc = ask(q.argv)
    oracle.check(q, rc, doc)
    _followups_agree(q, doc)
    wrong = dict(doc)
    wrong[end] = workloads.rat_text(Q(doc[end]) + shift)
    with pytest.raises(WrongAnswer):
        oracle.check(q, rc, wrong)
        _followups_agree(q, wrong)


def test_range_that_misses_the_planted_value():
    q = first("bounds", "SAT")
    v = q.expect["planted_value"]
    with pytest.raises(WrongAnswer):
        oracle.check_bounds(q.expect, 0, {"lower": str(v + Q(1, 100)), "lower_attained": True,
                                          "upper": str(v + 1), "upper_attained": True})
    with pytest.raises(WrongAnswer):  # an open end at the planted value excludes it
        oracle.check_bounds(q.expect, 0, {"lower": str(v), "lower_attained": False,
                                          "upper": str(v + 1), "upper_attained": True})


def _setfn(truth, tmp_path):
    for block in workloads.generate("setfn", 7):
        for q in block:
            if q.verb == "envelope" and q.expect["truth"] == truth:
                for name, text in q.files.items():
                    (tmp_path / name).write_text(text)
                return q, next(iter(q.files))
    raise AssertionError


def test_witness_that_misses_v_at_one_subset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    q, _ = _setfn("YES", tmp_path)
    rc, doc = ask(q.argv)
    witness = json.loads((tmp_path / "witness" / "witness_measures.json").read_text())
    oracle.check(q, rc, doc, witness)
    ground, v = q.expect["ground"], q.expect["v"]
    A = max(v, key=lambda X: (0 < v[X] < 1, len(X)))
    missed = dict(v)
    missed[A] = v[A] - Q(1, 100)
    with pytest.raises(WrongAnswer):
        oracle.check_witness(ground, missed, witness)
    with pytest.raises(WrongAnswer):
        oracle.check(q, 1, {"verdict": "NO"}, None)


def test_cover_certificates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    q, name = _setfn("NO", tmp_path)
    ground, v = q.expect["ground"], q.expect["v"]
    rc, doc = ask(["covers", "search", "--function", name, "--m-max", "2"])
    oracle.check_covers(q.expect, rc, doc)
    cert = doc["certificate"]
    short = dict(cert, k=cert["k"] + 1)  # the sets do not cover the ground set that often
    with pytest.raises(WrongAnswer):
        oracle.check_certificate(ground, v, short)
    with pytest.raises(WrongAnswer):  # the same sets against a function that meets the inequality
        oracle.check_certificate(ground, {X: Q(1) if X else Q(0) for X in v}, cert)
    with pytest.raises(WrongAnswer):
        oracle.check_covers(q.expect, 1, {"certificate": None})
    yes, _ = _setfn("YES", tmp_path)
    with pytest.raises(WrongAnswer):
        oracle.check_covers(yes.expect, 0, {"certificate": cert})


def test_property_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    q, name = _setfn("NO", tmp_path)
    rc, doc = ask(["props", "--function", name])
    oracle.check_props(q.expect, rc, doc)
    passing = {p: {"pass": True} for p in doc}
    with pytest.raises(WrongAnswer):
        oracle.check_props(q.expect, 0, passing)
    ground = q.expect["ground"]
    yes, _ = _setfn("YES", tmp_path)
    bogus = dict(passing, **{"6": {"pass": False, "violation": [[ground[0]], [ground[1]]]}})
    with pytest.raises(WrongAnswer):  # (6) holds on an upper envelope
        oracle.check_props(yes.expect, 1, bogus)


def test_generation_is_seeded():
    a = workloads.generate("solver", 3)
    b = workloads.generate("solver", 3)
    c = workloads.generate("solver", 4)
    assert [q.argv for q in a[0]] == [q.argv for q in b[0]]
    assert [q.argv for q in a[0]] != [q.argv for q in c[0]]


def test_planted_structures_satisfy_their_formulas():
    rng = random.Random(0)
    for q in workloads.sat_conj(rng):
        if q.expect["truth"] == "SAT" and q.verb == "sat":
            assert workloads.like_holds(q.expect["planted"], q.expect["formula"])
