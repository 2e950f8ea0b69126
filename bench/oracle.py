"""Checks of the program's answers, made apart from `uplogic`.

Each check takes the query's expectation (built by `workloads`), the exit
code and the JSON document the CLI printed, and raises `WrongAnswer` when
the answer contradicts the ground truth or a property the method must have.
Models and countermodels are evaluated in the benchmark's own formula
representation; envelope witnesses, cover certificates and property
violations are recomputed here from the set function.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q

from workloads import Query, envelope_of, like_holds, like_text


class WrongAnswer(Exception):
    pass


def _rat(raw) -> Q:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise WrongAnswer(f"not a rational: {raw!r}")
    try:
        return Q(raw)
    except (ValueError, ZeroDivisionError):
        raise WrongAnswer(f"not a rational: {raw!r}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def structure_of(doc) -> tuple:
    """A structure document as (worlds, measures), every measure checked to
    be a probability distribution over the declared worlds."""
    try:
        worlds = [dict(w["assign"]) for w in doc["worlds"]]
        ids = [w["id"] for w in doc["worlds"]]
        dists = [m["dist"] for m in doc["measures"]]
    except (KeyError, TypeError) as e:
        raise WrongAnswer(f"malformed structure: {e}")
    _expect(len(set(ids)) == len(ids), "duplicate world id")
    _expect(bool(dists), "structure without measures")
    index = {w: i for i, w in enumerate(ids)}
    measures = []
    for dist in dists:
        mu = [Q(0)] * len(ids)
        for w, raw in dist.items():
            _expect(w in index, f"mass on unknown world {w!r}")
            mu[index[w]] = _rat(raw)
        _expect(all(x >= 0 for x in mu), "negative mass")
        _expect(sum(mu) == 1, f"masses sum to {sum(mu)}, not 1")
        measures.append(mu)
    return worlds, measures


def _verdict(rc: int, doc: dict, expected: str, affirmative: str) -> None:
    got = doc.get("verdict")
    _expect(got == expected, f"verdict {got}, expected {expected}")
    _expect(rc == (0 if expected == affirmative else 1), f"exit code {rc} for {got}")


def check_sat(expect: dict, rc: int, doc: dict) -> None:
    _verdict(rc, doc, expect["truth"], "SAT")
    if expect["truth"] == "SAT":
        model = structure_of(doc.get("model"))
        _expect(like_holds(model, expect["formula"]), "the returned model falsifies the formula")


def check_valid(expect: dict, rc: int, doc: dict) -> None:
    _verdict(rc, doc, expect["truth"], "VALID")
    if expect["truth"] == "INVALID":
        model = structure_of(doc.get("countermodel"))
        _expect(not like_holds(model, expect["formula"]),
                "the returned countermodel satisfies the formula")


def _ends(doc: dict) -> tuple:
    try:
        return (_rat(doc["lower"]), doc["lower_attained"] is True,
                _rat(doc["upper"]), doc["upper_attained"] is True)
    except KeyError as e:
        raise WrongAnswer(f"bounds answer without {e}")


def check_bounds(expect: dict, rc: int, doc: dict) -> None:
    """The planted model's value of the term lies in the range; an open end
    excludes it."""
    _expect(rc == 0, f"exit code {rc} for satisfiable bounds input")
    lo, lo_closed, hi, hi_closed = _ends(doc)
    v = expect["planted_value"]
    _expect(lo < v or (lo_closed and lo == v), f"planted value {v} below lower end {lo}")
    _expect(v < hi or (hi_closed and hi == v), f"planted value {v} above upper end {hi}")


def bounds_followups(expect: dict, doc: dict) -> list:
    """sat queries that must agree with a bounds answer.

    A closed upper end U makes `f & t >= U` SAT and `f & t > U` UNSAT; an
    open one makes `f & t >= U` UNSAT and `f & t > U - 1/1000` SAT.  The
    lower end is mirrored.
    """
    lo, lo_closed, hi, hi_closed = _ends(doc)
    basics, t = expect["formula"][1], expect["term"]
    eps = Q(1, 1000)
    claims = [(">=", hi, hi_closed), (">", hi if hi_closed else hi - eps, not hi_closed),
              ("<=", lo, lo_closed), ("<", lo if lo_closed else lo + eps, not lo_closed)]
    out = []
    for rel, bound, sat in claims:
        f = ("land", basics + [("basic", t, rel, bound)])
        out.append(Query("sat", ["sat", "--formula=" + like_text(f)],
                         {"formula": f, "truth": "SAT" if sat else "UNSAT", "planted": None}))
    return out


# ---------------------------------------------------------------------------
# Set functions


def check_witness(ground, v: dict, witness_doc) -> None:
    """Each witness measure is a probability distribution over the ground
    set, and their upper envelope reproduces v at every subset."""
    try:
        dists = [m["dist"] for m in witness_doc["measures"]]
    except (KeyError, TypeError) as e:
        raise WrongAnswer(f"malformed witness: {e}")
    _expect(bool(dists), "empty witness")
    measures = []
    for dist in dists:
        _expect(set(dist) <= set(ground), "witness mass outside the ground set")
        mu = {g: _rat(x) for g, x in dist.items()}
        _expect(all(x >= 0 for x in mu.values()), "negative witness mass")
        _expect(sum(mu.values()) == 1, "witness masses do not sum to 1")
        measures.append(mu)
    env = envelope_of(ground, measures)
    for A, x in v.items():
        _expect(env[A] == x, f"witness envelope {env[A]} != v = {x} at {sorted(A)}")


def check_envelope(expect: dict, rc: int, doc: dict, witness_doc) -> None:
    truth = expect["truth"]
    _verdict(rc, doc, truth, "YES")
    if truth == "YES":
        check_witness(expect["ground"], expect["v"], witness_doc)


def check_certificate(ground, v: dict, cert) -> None:
    """A cover certificate that the benchmark's own coverage count and
    inequality confirm: the sets cover the ground set k times and the target
    n+k times, and k + n v(target) > sum of v over the sets."""
    try:
        sets = [frozenset(s) for s in cert["sets"]]
        target, n, k = frozenset(cert["target"]), cert["n"], cert["k"]
    except (KeyError, TypeError) as e:
        raise WrongAnswer(f"malformed certificate: {e}")
    _expect(isinstance(n, int) and isinstance(k, int) and n >= 0 and k >= 0 and n + k >= 1,
            f"bad thresholds n={n} k={k}")
    _expect(bool(sets) and all(s <= set(ground) for s in sets + [target]),
            "certificate sets outside the ground set")
    count = {g: sum(g in s for s in sets) for g in ground}
    _expect(all(count[g] >= k for g in ground), "the sets do not cover the ground set k times")
    _expect(all(count[g] >= n + k for g in target), "the sets do not cover the target n+k times")
    _expect(k + n * v[target] > sum(v[s] for s in sets), "the certificate violates nothing")


def check_covers(expect: dict, rc: int, doc: dict) -> None:
    """On a YES function no cover inequality fails.  Each NO function breaks
    an inequality of a cover with at most two sets, within --m-max, so the
    exhaustive search must return a certificate."""
    cert = doc.get("certificate")
    if expect["truth"] == "YES":
        _expect(rc == 1 and cert is None, "a cover certificate against an upper envelope")
    else:
        _expect(rc == 0 and cert is not None, "no certificate for a function that violates one")
        check_certificate(expect["ground"], expect["v"], cert)


def _alternating(family, upper, lower, upper_on_odd: bool) -> Q:
    total = Q(0)
    for i in range(1, len(family) + 1):
        table = upper if (i % 2 == 1) == upper_on_odd else lower
        sub = sum((table(frozenset.intersection(*I)) for I in itertools.combinations(family, i)),
                  Q(0))
        total += sub if i % 2 == 1 else -sub
    return total


def property_holds(prop: int, sets, ground, v: dict) -> bool:
    """Property (1)-(6) of covers.check_properties at one family or pair,
    with upper = v and lower(X) = 1 - v(complement of X)."""
    full = frozenset(ground)
    up = v.__getitem__

    def lo(X):
        return 1 - v[full - X]

    if prop in (1, 2):
        union = frozenset().union(*sets)
        if prop == 1:
            return up(union) <= _alternating(sets, up, lo, True)
        return lo(union) >= _alternating(sets, up, lo, False)
    A, B = sets
    u, i = A | B, A & B
    if prop == 3:
        return lo(u) + lo(i) <= lo(A) + up(B) <= up(u) + up(i)
    if prop == 4:
        return lo(A) + lo(B) <= lo(u) + up(i) <= up(A) + up(B)
    if prop == 5:
        return lo(A) + lo(B) <= lo(i) + up(u) <= up(A) + up(B)
    return bool(i) or up(A) + lo(B) <= up(u) <= up(A) + up(B)


def check_props(expect: dict, rc: int, doc: dict) -> None:
    """An upper envelope passes all six properties.  Every NO function breaks
    (6) at a disjoint pair: monotonicity at (A, B minus A), the complement
    condition at (A, complement of A), subadditivity at (A, B).  Every
    reported violation must fail the property in the benchmark's own
    computation."""
    ground, v = expect["ground"], expect["v"]
    try:
        report = {int(p): doc[p] for p in doc}
        passes = {p: r["pass"] for p, r in report.items()}
    except (KeyError, TypeError, ValueError) as e:
        raise WrongAnswer(f"malformed property report: {e}")
    _expect(set(report) == set(range(1, 7)), f"properties reported: {sorted(report)}")
    for p, r in report.items():
        if not passes[p]:
            sets = tuple(frozenset(s) for s in r.get("violation", ()))
            _expect(len(sets) >= 1 and all(s <= set(ground) for s in sets),
                    f"malformed violation of ({p})")
            _expect(not property_holds(p, sets, ground, v),
                    f"property ({p}) holds at the reported violation {r['violation']}")
    if expect["truth"] == "YES":
        _expect(rc == 0 and all(passes.values()), "an upper envelope fails a property")
    else:
        _expect(rc == 1 and not passes[6], "property (6) passes on a function that breaks it")


def check(q: Query, rc: int, doc: dict, witness_doc=None) -> None:
    if q.verb == "sat":
        check_sat(q.expect, rc, doc)
    elif q.verb == "valid":
        check_valid(q.expect, rc, doc)
    elif q.verb == "bounds":
        check_bounds(q.expect, rc, doc)
    elif q.verb == "envelope":
        check_envelope(q.expect, rc, doc, witness_doc)
    elif q.verb == "covers":
        check_covers(q.expect, rc, doc)
    else:
        check_props(q.expect, rc, doc)
