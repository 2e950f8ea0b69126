import collections
import random
from fractions import Fraction as F

import pytest

from uplogic import envelope, errors, lp
from uplogic.envelope import EnvelopeResult, dominated_max, is_upper_probability
from uplogic.errors import InputError, ResourceError
from uplogic.structure import SetFunction, UpperProbStructure, set_function_of

from conftest import random_structure
from test_lp import fraction_system, objective


def _subsets(ground):
    subsets = [frozenset()]
    for g in sorted(ground):
        subsets += [s | {g} for s in subsets]
    return subsets


def _envelope_of(measures, ground):
    """Recompute the upper envelope of explicit measures, for cross checks."""
    return {X: max(_measure(mu, X) for mu in measures) for X in _subsets(ground)}


def _measure(measure, X):
    return sum((measure.get(g, F(0)) for g in X), F(0))


class TestDominatedMax:
    def test_table_abc(self, table_upper):
        value, measure = dominated_max(table_upper, {"a", "b", "c"})
        assert value == F(3, 4)
        assert sum(measure.values()) <= 1

    def test_veps_abc_shortfall(self, veps):
        # v_eps({a,b,c}) = 13/16 but no dominated measure exceeds 3/4
        value, _ = dominated_max(veps, {"a", "b", "c"})
        assert value == F(3, 4)
        assert veps({"a", "b", "c"}) == F(13, 16)

    def test_full_set_is_one(self, table_upper):
        value, measure = dominated_max(table_upper, table_upper.ground)
        assert value == 1
        assert sum(measure.values()) == 1

    def test_outside_ground(self, table_upper):
        # v(X) and dominated_max read a subset through one path, with one
        # message; a mask is checked against the table
        for ask in (table_upper, lambda X: dominated_max(table_upper, X)):
            with pytest.raises(InputError,
                               match=r"^subset \['a', 'zzz'\] not within the ground set$"):
                ask(["zzz", "a"])
        for mask in (-1, 16):
            with pytest.raises(InputError, match=f"^subset mask {mask} not within the ground"):
                dominated_max(table_upper, mask)
        assert table_upper.mask(["c", "a"]) == 0b101

    def test_empty_polytope(self):
        v = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 4),
            frozenset({"2"}): F(1, 4), frozenset({"1", "2"}): F(1),
        })
        with pytest.raises(InputError):
            dominated_max(v, {"1"})


class TestIsUpperProbability:
    def test_table_envelope_yes(self, table_upper):
        res = is_upper_probability(table_upper)
        assert res.is_upper_probability
        # the witness family must regenerate v exactly
        values = _envelope_of(res.witness, table_upper.ground)
        for X in table_upper.subsets():
            assert values[X] == table_upper(X)

    def test_veps_no_at_abc(self, veps):
        res = is_upper_probability(veps)
        assert not res.is_upper_probability
        assert res.failing_set == frozenset({"a", "b", "c"})
        assert res.shortfall_value == F(3, 4)

    def test_vacuous_function_yes(self):
        # v(X) = 1 for X != empty is the envelope of all point masses
        ground = ("1", "2", "3")
        res = is_upper_probability(_vacuous_fn(ground))
        assert res.is_upper_probability
        assert len(res.witness) >= len(ground)

    def test_random_envelopes_yes(self):
        rng = random.Random(71)
        for _ in range(20):
            M = random_structure(rng, max_worlds=4)
            res = is_upper_probability(set_function_of(M))
            assert res.is_upper_probability

    def test_normalization_failures(self):
        bad_empty = SetFunction(("1",), {
            frozenset(): F(1, 2), frozenset({"1"}): F(1),
        })
        res = is_upper_probability(bad_empty)
        assert not res.is_upper_probability and res.failing_set == frozenset()

    def test_ground_cap(self, monkeypatch):
        monkeypatch.setattr(errors, "DEFAULT_CAP", 3)
        v = _vacuous_fn(tuple(str(i) for i in range(4)))
        with pytest.raises(ResourceError):
            is_upper_probability(v)

    def test_witnesses_are_dominated(self, table_upper):
        res = is_upper_probability(table_upper)
        for mu in res.witness:
            assert sum(mu.values()) == 1
            for X in table_upper.subsets():
                assert _measure(mu, X) <= table_upper(X)


def _vacuous(ground):
    return {X: (F(1) if X else F(0)) for X in _subsets(ground)}


def _vacuous_fn(ground):
    return SetFunction(ground, _vacuous(ground))


# ---------------------------------------------------------------------------
# Differential test of witness reuse.  reference_is_upper_probability is the
# recognition loop as it was, one LP per nonempty subset; the loop that skips
# subsets an earlier witness reaches must give the same verdict and failure,
# and on YES a witness family no larger than the reference's that reproduces v.


def reference_is_upper_probability(v: SetFunction):
    """One dominated_max LP per nonempty subset, witnesses deduplicated."""
    empty, full = frozenset(), frozenset(v.ground)
    if v(empty) != 0:
        return EnvelopeResult(False, failing_set=empty,
                              failing_reason="v(empty) != 0")
    if v(full) != 1:
        return EnvelopeResult(False, failing_set=full,
                              failing_reason="v(ground) != 1")
    witnesses: list[dict] = []
    seen: set[tuple] = set()
    for A in v.subsets():
        if not A:
            continue
        try:
            best, measure = dominated_max(v, A)
        except InputError:
            return EnvelopeResult(
                False, failing_set=full,
                failing_reason="no probability measure is dominated by v",
            )
        if best < v(A):
            return EnvelopeResult(
                False,
                failing_set=A,
                failing_reason=f"dominated max {best} < v(A) = {v(A)}",
                shortfall_value=best,
            )
        key = tuple(sorted(measure.items()))
        if key not in seen:
            seen.add(key)
            witnesses.append(measure)
    return EnvelopeResult(True, witness=tuple(witnesses))


def _random_envelope(rng, ground):
    measures = []
    for _ in range(rng.randint(1, 4)):
        weights = [rng.randint(0, rng.choice((3, 7, 20))) for _ in ground]
        if not any(weights):
            weights[rng.randrange(len(ground))] = 1
        measures.append({g: F(w, sum(weights)) for g, w in zip(ground, weights)})
    return _envelope_of(measures, ground)


def _point_masses(rng, ground):
    support = [g for g in ground if rng.random() < 0.5] or [rng.choice(ground)]
    return _envelope_of([{g: F(1)} for g in support], ground)


def _proper(ground):
    return [X for X in _subsets(ground) if X and X != frozenset(ground)]


def _broken(rng, ground, kind):
    """An envelope changed at one proper subset so that it is no longer
    monotone, no longer has v(A) + v(complement) >= 1, or no longer
    subadditive on a split of that subset; None when the draw allows none."""
    values = _random_envelope(rng, ground)
    full = frozenset(ground)
    choices = []
    for A in _proper(ground):
        if kind == "monotonicity":
            choices += [(A, values[B]) for B in _proper(ground)
                        if B < A and values[B] > 0]
        elif kind == "complement" and values[full - A] < 1:
            choices.append((A, 1 - values[full - A]))
        elif kind == "subadditivity":
            choices += [(A, values[B] + values[A - B]) for B in _proper(ground)
                        if B < A and values[B] + values[A - B] < 1]
    if not choices:
        return None
    A, limit = rng.choice(choices)
    if kind == "subadditivity":  # v(A) above v(B) + v(A - B)
        values[A] = limit + (1 - limit) * F(rng.randint(1, 5), 5)
    else:  # v(A) below v(B), or below 1 - v(complement of A)
        values[A] = limit * F(rng.randint(0, 4), 5)
    return values


def _empty_polytope(rng, ground):
    """Singletons summing below 1 leave no dominated probability measure."""
    values = {X: F(rng.randint(0, 12), 12) for X in _proper(ground)}
    for g in ground:
        values[frozenset({g})] = F(rng.randint(0, 5), 6 * len(ground))
    values[frozenset()], values[frozenset(ground)] = F(0), F(1)
    return values


def _moved(rng, ground):
    """An envelope with one proper subset moved by 1/13 or 7/13, kept in [0, 1]."""
    values = _random_envelope(rng, ground)
    A = rng.choice(_proper(ground))
    values[A] = min(F(1), max(F(0), values[A] + rng.choice((-1, 1)) * F(rng.choice((1, 7)), 13)))
    return values


def _differential_cases():
    rng = random.Random(20261018)
    kinds = ["envelope", "envelope", "vacuous", "points", "monotonicity",
             "complement", "subadditivity", "empty", "moved"]
    cases = []
    while len(cases) < 330:
        n = rng.choice((1, 2, 3, 3, 4, 4, 5, 5, 6))
        ground = tuple("abcdef"[:n])
        kind = kinds[len(cases) % len(kinds)]
        if n == 1 and kind in ("monotonicity", "complement", "subadditivity",
                               "empty", "moved"):
            continue  # one element has no proper nonempty subset
        values = {
            "envelope": lambda: _random_envelope(rng, ground),
            "vacuous": lambda: _vacuous(ground),
            "points": lambda: _point_masses(rng, ground),
            "monotonicity": lambda: _broken(rng, ground, "monotonicity"),
            "complement": lambda: _broken(rng, ground, "complement"),
            "subadditivity": lambda: _broken(rng, ground, "subadditivity"),
            "empty": lambda: _empty_polytope(rng, ground),
            "moved": lambda: _moved(rng, ground),
        }[kind]()
        if values is not None:
            cases.append((kind, SetFunction(ground, values)))
    return cases


def test_witness_reuse_matches_per_subset_reference(monkeypatch):
    calls = []
    monkeypatch.setattr(envelope, "dominated_max",
                        lambda v, A: calls.append(A) or dominated_max(v, A))
    verdicts = collections.Counter()
    for kind, v in _differential_cases():
        calls.clear()
        got, want = is_upper_probability(v), reference_is_upper_probability(v)
        assert got.is_upper_probability == want.is_upper_probability
        verdicts[kind, got.is_upper_probability] += 1
        if not want.is_upper_probability:
            assert kind not in ("envelope", "vacuous", "points")
            assert got == want  # failing set, reason and shortfall included
            continue
        assert kind not in ("monotonicity", "complement", "subadditivity", "empty")
        assert len(got.witness) == len(calls) <= len(want.witness)
        reference = {tuple(sorted(mu.items())) for mu in want.witness}
        assert {tuple(sorted(mu.items())) for mu in got.witness} <= reference
        for mu in got.witness:
            assert all(m > 0 for m in mu.values()) and sum(mu.values()) == 1
            assert all(_measure(mu, X) <= v(X) for X in v.subsets())
        ground = v.ground
        M = UpperProbStructure(
            props=(), worlds=ground, assignment={g: {} for g in ground},
            measures=got.witness,
        )
        assert set_function_of(M).values == v.values
    # every family appears, and the perturbed ones on both sides
    assert {kind for kind, _ in verdicts} == {
        "envelope", "vacuous", "points", "monotonicity", "complement",
        "subadditivity", "empty", "moved"}
    assert verdicts["moved", True] and verdicts["moved", False]


def test_each_lp_reaches_a_new_subset(monkeypatch):
    """The vacuous function runs one LP per singleton, whose point mass
    reaches every subset containing that element, and no other LP."""
    calls = []
    monkeypatch.setattr(envelope, "dominated_max",
                        lambda v, A: calls.append(A) or dominated_max(v, A))
    ground = tuple("abcde")
    res = is_upper_probability(_vacuous_fn(ground))
    assert res.is_upper_probability
    assert calls == [1 << i for i in range(len(ground))]  # each singleton, by its mask
    assert sorted(tuple(mu) for mu in res.witness) == [(g,) for g in ground]


def test_no_tableau_for_a_set_function(monkeypatch):
    """The envelope LPs run on the dual: no linear system and no system LP
    is built for a set function, and the vacuous one on five elements still
    runs five LPs."""
    built, calls = [], []

    def counting(cls):
        class Counting(cls):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)
        return Counting

    monkeypatch.setattr(lp, "LinearSystem", counting(lp.LinearSystem))
    monkeypatch.setattr(lp, "_SystemLP", counting(lp._SystemLP))
    monkeypatch.setattr(envelope, "dominated_max",
                        lambda v, A: calls.append(A) or dominated_max(v, A))
    v = _vacuous_fn(tuple("abcde"))
    assert is_upper_probability(v).is_upper_probability
    assert dominated_max(v, {"a", "b"})[0] == 1
    assert (len(built), len(calls)) == (0, 5)
    # the counts see a system and its LP when there is one
    assert lp.feasible(reference_system(v)).verdict is lp.Verdict.FEASIBLE
    assert len(built) == 2


# ---------------------------------------------------------------------------
# The primal LP as a 2^n-row system, the reference for the dual simplex.


def reference_system(v: SetFunction) -> lp.LinearSystem:
    """The probability measures dominated by v, as a linear system over the
    ground elements: sum mu = 1, and mu(X) <= v(X) for every proper
    nonempty X."""
    ground = list(v.ground)
    full = frozenset(ground)
    constraints = [(dict.fromkeys(ground, 1), lp.Relation.EQ, 1)]
    for X, bound in v.values.items():
        if X and X != full:
            constraints.append((dict.fromkeys(X, -1), lp.Relation.GE, -bound))
    return fraction_system(ground, constraints)


def reference_dominated_max(v: SetFunction, system: lp.LinearSystem, A) -> F:
    outcome = lp.optimize(system, objective(v.ground, dict.fromkeys(A, 1)), lp.Direction.MAX)
    if outcome.verdict is not lp.Verdict.OPTIMAL:
        raise InputError("empty polytope")
    return outcome.value


def _outcome(f, *args):
    try:
        return f(*args)
    except InputError:
        return InputError


def test_dual_matches_the_tableau_at_every_subset():
    empty = set()  # the functions whose polytope is empty
    for i, (_, v) in enumerate(_differential_cases()):
        system = reference_system(v)
        for A in v.subsets():
            want = _outcome(reference_dominated_max, v, system, A)
            got = _outcome(dominated_max, v, A)
            if want is InputError or got is InputError:
                assert want is got
                empty.add(i)
                continue
            value, measure = got
            assert value == want == _measure(measure, A)
            assert all(m > 0 for m in measure.values()) and sum(measure.values()) == 1
    assert len(empty) > 100


def test_empty_subset():
    v = _vacuous_fn(tuple("abc"))
    value, measure = dominated_max(v, set())
    assert value == 0 and sum(measure.values()) == 1
    empty = SetFunction(("a", "b"), {frozenset({"a"}): F(1, 4), frozenset({"b"}): F(1, 4)})
    with pytest.raises(InputError):
        dominated_max(empty, set())
    with pytest.raises(InputError):  # no measure on an empty ground set
        dominated_max(SetFunction((), {}), set())
