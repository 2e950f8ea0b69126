import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest

from uplogic import covers, errors, lp
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
from uplogic.structure import SetFunction, set_function_of, subset_masks

from conftest import random_structure, structure_with_zeros

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

    def test_closed_form_matches_the_chain(self):
        # every prefix the search reaches up to m = 3 sets on 1-4 elements,
        # and every next set s: the chain _extend_runs builds is the one the
        # coverage counts give, and its k and last run are those read off
        # the prefix's runs (full, k0), (M_1, t_1), ..., (M_r, t_r)
        checked = 0
        for n in range(1, 5):
            full = (1 << n) - 1
            pool = [t for t in subset_masks(n) if t and t != full]
            for size in range(3):
                for prefix in itertools.combinations_with_replacement(pool, size):
                    runs = chain_of(prefix, n)
                    k0, (Mr, tr) = runs[0][1], runs[-1]
                    M1 = runs[1][0] if len(runs) > 1 else 0
                    for s in pool:
                        chain = covers._extend_runs(runs, s, full)
                        assert chain == chain_of(prefix + (s,), n)
                        k = k0 + 1 if M1 | s == full else k0
                        if Mr & s:
                            last = (Mr & s, tr + 1)
                        elif len(runs) > 1 and runs[-2][1] == tr - 1:  # a single level
                            last = (Mr | runs[-2][0] & s, tr)
                        else:
                            last = (Mr, tr)
                        assert (chain[0][1], chain[-1]) == (k, last)
                        checked += 1
        assert checked == 2 * 6 + 6 * 28 + 14 * 120


def chain_of(sets, n):
    """The runs (set, top level) of the nonempty coverage chain of a
    multiset of masks over n elements, from each element's count."""
    counts = [sum(s >> x & 1 for s in sets) for x in range(n)]
    runs = []
    for c in range(len(sets) + 1):
        S = sum(1 << x for x in range(n) if counts[x] >= c)
        if not S:
            break
        if runs and runs[-1][0] == S:
            runs[-1] = (S, c)
        else:
            runs.append((S, c))
    return runs


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
        report = check_properties(veps)
        assert report[6] is None  # the headline: (6) holds despite no envelope
        assert all(v is None for v in report.values())

    def test_random_envelope_passes(self):
        rng = random.Random(19)
        for _ in range(5):
            M = random_structure(rng)
            assert all(v is None for v in check_properties(M).values())

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
        report = check_properties(w)
        assert report[6] is not None

    def test_violation_witnesses_check_out(self):
        # a reported pair for (6) must actually break the inequality
        w = SetFunction(("1", "2"), {
            frozenset(): F(0), frozenset({"1"}): F(1, 4),
            frozenset({"2"}): F(1, 4), frozenset({"1", "2"}): F(1),
        })
        A, B = check_properties(w)[6]
        assert not (A & B)
        lower = lambda X: 1 - w(frozenset(w.ground) - X)
        assert not (w(A) + lower(B) <= w(A | B) <= w(A) + w(B))

    def test_first_ordered_pair_violator_may_come_second(self):
        # (3) at ({b}, {a}): l(ab) + l() = 1/2 <= l(b) + v(a) = 3/2, which
        # exceeds v(ab) + v() = 1; the swapped pair ({a}, {b}) passes, and
        # {b} comes after {a} in mask order
        v = SetFunction(("a", "b", "c"), {
            frozenset(): F(0), frozenset("a"): F(1), frozenset("b"): F(1),
            frozenset("c"): F(1, 2), frozenset("ab"): F(1), frozenset("ac"): F(1, 2),
            frozenset("bc"): F(1), frozenset("abc"): F(1),
        })
        report = check_properties(v)
        assert report[3] == (frozenset("b"), frozenset("a"))
        assert report == reference_check_properties(v, 2)

    def test_first_disjoint_pair_violator_may_come_second(self):
        # (6) at ({b}, {a}): v(b) + l(a) = 1 + 1/3 exceeds v(ab) = 2/3; the
        # swapped pair has v(a) + l(b) = 2/3 + 0 and passes
        v = SetFunction(("a", "b", "c"), {
            frozenset(): F(0), frozenset("a"): F(2, 3), frozenset("b"): F(1),
            frozenset("c"): F(1, 3), frozenset("ab"): F(2, 3), frozenset("ac"): F(1),
            frozenset("bc"): F(2, 3), frozenset("abc"): F(1),
        })
        report = check_properties(v)
        assert report[6] == (frozenset("b"), frozenset("a"))
        assert report == reference_check_properties(v, 2)

    def test_pairs_decide_properties_one_and_two(self):
        # README, "Properties": if every pair passes (1) and (2), so does
        # every family, by induction on its size; and where a pair fails
        # only one of them, the other still holds on every family (the
        # exact test below).  So families of up to four sets report the
        # pairs' first violators, or None.
        rng = random.Random(41)
        sources = [random_set_function(rng, 1 + t % 4) for t in range(300)]
        sources += [random_structure(rng, max_worlds=4) for _ in range(40)]
        seen = {"pairs pass": 0, "one fails": 0, "both fail": 0, "another fails": 0}
        for source in sources:
            report = check_properties(source)
            failing = (report[1] is not None) + (report[2] is not None)
            if failing < 2:
                families = reference_check_properties(source, 4)
                assert (report[1], report[2]) == (families[1], families[2])
            seen[("pairs pass", "one fails", "both fail")[failing]] += 1
            seen["another fails"] += not failing and any(report.values())
        assert min(seen.values()) >= 15, seen

    def test_pairs_decide_families_exactly(self):
        # (1) alone on pairs decides (1) on families of three and four
        # sets, and so does (2) alone, for every set function with values
        # in [0, 1] on up to three elements: column X is u(X), and l(X) is
        # 1 - u(complement).  One system per property holds its row on
        # every pair; over it, no family's violation exceeds 0.
        for n in (1, 2, 3):
            N = 1 << n
            bounds = [lp.Constraint({X: -1}, lp.Relation.GE, -1, 1) for X in range(N)]
            for prop in (1, 2):
                rows = [margin(n, prop, pair) for pair in
                        itertools.combinations_with_replacement(range(N), 2)]
                system = lp.make_system(N, bounds + [
                    lp.Constraint(dict(coeffs), lp.Relation.GE, -constant, 1)
                    for coeffs, constant in rows])
                objectives = {margin(n, prop, family) for size in (3, 4) for family
                              in itertools.combinations_with_replacement(range(N), size)}
                for coeffs, constant in objectives:
                    worst = lp.optimize(system, ({X: -c for X, c in coeffs}, 1),
                                        lp.Direction.MAX)
                    assert worst.value - constant <= 0, (n, prop, coeffs, constant)

    def test_budget_counts_pairs(self, monkeypatch):
        # 4 elements, 16 sets: 136 unordered pairs, 256 ordered and 81
        # disjoint, 473 in all
        v = SetFunction(tuple("abcd"), {frozenset(X): F(r, 4) for r in range(5)
                                        for X in itertools.combinations("abcd", r)})
        monkeypatch.setattr(errors, "SEARCH_BUDGET", 472)
        with pytest.raises(ResourceError, match="^props needs 473 pairs, "
                                                "over the budget of 472$"):
            check_properties(v)
        monkeypatch.setattr(errors, "SEARCH_BUDGET", 473)
        assert check_properties(v) == reference_check_properties(v, 3)


def margin(n, prop, family):
    """The margin by which property prop (1 or 2) holds on a family of
    masks over n elements, linear in the columns u(X): (1) is
    U(F) - u(union of F) >= 0 and (2) is l(union of F) - L(F) >= 0, with
    l(X) = 1 - u(complement of X).  Returns (sorted (column, coefficient)
    pairs, constant)."""
    full, union = (1 << n) - 1, 0
    for A in family:
        union |= A
    coeffs, constant = {}, 0

    def add(sign, upper, X):
        nonlocal constant
        if not upper:  # l(X) = 1 - u(full ^ X)
            constant += sign
            sign, X = -sign, full ^ X
        coeffs[X] = coeffs.get(X, 0) + sign

    outer = 1 if prop == 1 else -1
    add(-outer, prop == 1, union)
    for r in range(1, len(family) + 1):
        for I in itertools.combinations(family, r):
            inter = full
            for A in I:
                inter &= A
            add(outer if r % 2 else -outer, (r % 2 == 1) == (prop == 1), inter)
    return tuple(sorted((X, c) for X, c in coeffs.items() if c)), constant


# ---------------------------------------------------------------------------
# Differential tests of the integer tables.  The two functions below are the
# cover search and the property checker as they were before the bitmask
# tables: every target tested for every multiset, in Fraction arithmetic.
# The library must return the same certificate, report or exception.


def reference_search_violation(v, m_max, budget=errors.SEARCH_BUDGET):
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    ground = list(v.ground)
    pool = [frozenset(c) for r in range(1, len(ground))
            for c in itertools.combinations(ground, r)]
    targets = v.subsets()
    spent = 0
    for m in range(1, m_max + 1):
        for sets in itertools.combinations_with_replacement(pool, m):
            counts = {x: sum(1 for s in sets if x in s) for x in ground}
            cov_omega = min(counts.values()) if ground else 0
            total = sum((v(s) for s in sets), F(0))
            for target in targets:
                spent += 1
                if spent > budget:
                    raise ResourceError(
                        f"cover search budget of {budget} instances exceeded"
                    )
                cov_target = min((counts[x] for x in target), default=m)
                k = min(min(cov_omega, m), min(cov_target, m))
                n = min(cov_target, m) - k
                if n + k < 1:
                    continue
                if k + n * v(target) > total:
                    return CoverInstance(sets=sets, target=target, n=n, k=k)
    return None


def reference_check_properties(source, max_sets=3):
    if max_sets < 2:
        raise InputError("max_sets must be >= 2")
    if isinstance(source, SetFunction):
        ground = list(source.ground)
        size = 1 << len(ground)
        upper = [F(0)] * size
        for X, val in source.values.items():
            upper[sum(1 << i for i, g in enumerate(ground) if g in X)] = val
        lower = [1 - upper[(size - 1) ^ m] for m in range(size)]
    else:
        ground = list(source.worlds)
        size = 1 << len(ground)
        totals = [[sum((source.mass(idx, g) for i, g in enumerate(ground)
                        if m >> i & 1), F(0)) for m in range(size)]
                  for idx in range(len(source.measures))]
        upper = [max(t[m] for t in totals) for m in range(size)]
        lower = [min(t[m] for t in totals) for m in range(size)]
    # every comparison is between sums of two or more values, so the
    # tables can be ints over one denominator
    L = lcm(*[x.denominator for x in upper + lower])
    upper, lower = ([x.numerator * (L // x.denominator) for x in table]
                    for table in (upper, lower))
    masks = range(size)
    report = {i: None for i in range(1, 7)}

    def unmask(m):
        return frozenset(g for i, g in enumerate(ground) if m >> i & 1)

    def alternating(family, use_upper_on_odd):
        total = 0
        for i in range(1, len(family) + 1):
            odd = i % 2 == 1
            table = upper if (odd == use_upper_on_odd) else lower
            sub = 0
            for I in itertools.combinations(range(len(family)), i):
                inter = family[I[0]]
                for j in I[1:]:
                    inter &= family[j]
                sub += table[inter]
            total += sub if odd else -sub
        return total

    for n in range(1, max_sets + 1):
        if report[1] is not None and report[2] is not None:
            break
        for family in itertools.combinations_with_replacement(masks, n):
            union = 0
            for m in family:
                union |= m
            if report[1] is None and not upper[union] <= alternating(family, True):
                report[1] = tuple(unmask(m) for m in family)
            if report[2] is None and not lower[union] >= alternating(family, False):
                report[2] = tuple(unmask(m) for m in family)
            if report[1] is not None and report[2] is not None:
                break
    for A, B in itertools.product(masks, repeat=2):
        u, i = A | B, A & B
        if report[3] is None and not (
            lower[u] + lower[i] <= lower[A] + upper[B] <= upper[u] + upper[i]
        ):
            report[3] = (unmask(A), unmask(B))
        if report[4] is None and not (
            lower[A] + lower[B] <= lower[u] + upper[i] <= upper[A] + upper[B]
        ):
            report[4] = (unmask(A), unmask(B))
        if report[5] is None and not (
            lower[A] + lower[B] <= lower[i] + upper[u] <= upper[A] + upper[B]
        ):
            report[5] = (unmask(A), unmask(B))
        if report[6] is None and i == 0 and not (
            upper[A] + lower[B] <= upper[u] <= upper[A] + upper[B]
        ):
            report[6] = (unmask(A), unmask(B))
    return report


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (InputError, ResourceError) as e:
        return type(e), str(e)


def set_function(ground, value):
    """The set function on the letters of ground with value(X) at each
    subset X, given as the string of its letters in ground's order."""
    return SetFunction(tuple(ground), {
        frozenset(X): value("".join(X))
        for r in range(len(ground) + 1) for X in itertools.combinations(ground, r)})


def random_envelope(rng, n):
    """The upper envelope of two or three random measures on n elements,
    as a map from each subset to its value."""
    ground = tuple("abcdef"[:n])
    measures = []
    for _ in range(rng.randint(2, 3)):
        weights = [rng.randint(0, 5) for _ in ground]
        weights[rng.randrange(n)] += 1
        measures.append({g: F(w, sum(weights)) for g, w in zip(ground, weights)})
    return {frozenset(X): max(sum((mu[g] for g in X), F(0)) for mu in measures)
            for r in range(n + 1) for X in itertools.combinations(ground, r)}


def random_set_function(rng, n):
    """A total set function on n elements with values in [0,1].

    Half are drawn value by value over a random denominator, with v(empty)
    and v(ground) random in half of those, so they may be non-monotone and
    have v(empty) > 0.  The other half are envelopes of two or three random
    measures with one value moved by 1/13 or 7/13, which tend to violate
    only at larger covers, or not at all."""
    ground = tuple("abcdef"[:n])
    subsets = [frozenset(c) for r in range(n + 1)
               for c in itertools.combinations(ground, r)]
    if rng.random() < 0.5:
        den = rng.choice([1, 2, 6, 7, 12, 13, 91])
        values = {X: F(rng.randint(0, den), den) for X in subsets}
        if rng.random() < 0.5:
            values[frozenset()] = F(0)
            values[frozenset(ground)] = F(1)
        return SetFunction(ground, values)
    values = random_envelope(rng, n)
    X = rng.choice(subsets)
    values[X] = min(F(1), max(F(0), values[X] + rng.choice([-1, 1]) * rng.choice([F(1, 13), F(7, 13)])))
    return SetFunction(ground, values)


def heavy_element_function(rng, n):
    """A set function on n elements: each set's value is the sum of its
    elements' weights, one element heavy, plus a bonus by its size, at most
    1; 0 on the empty set and 1 on the ground.  At n = 4 about one in eight
    has a first cover certificate of three sets."""
    ground = "abcdef"[:n]
    den = rng.choice([10, 12, 15, 20])
    weight = {x: rng.randint(1, den // 4) for x in ground}
    weight[rng.choice(ground)] += rng.randint(den // 2, den)
    bonus = [rng.randint(0, den // 10) for _ in range(n + 1)]
    return set_function(ground, lambda X: F(0) if not X else F(1) if len(X) == n
                        else F(min(den, sum(weight[x] for x in X) + bonus[len(X)]), den))


class TestMatchesFractionReference:
    BUDGETS = (1, 5, 50, 500, errors.SEARCH_BUDGET)

    def test_search_random_functions(self):
        rng = random.Random(23)
        found = 0
        for trial in range(300):
            n = 1 + trial % 6
            v = random_set_function(rng, n)
            m_max = rng.randint(1, 4 if n <= 3 else 3 if n == 4 else 2)
            for budget in self.BUDGETS:
                want = outcome(reference_search_violation, v, m_max, budget)
                assert outcome(search_violation, v, m_max, budget) == want
                found += isinstance(want, CoverInstance)
        assert found > 100  # the differential test sees certificates

    def test_search_budget_boundary(self):
        # the budget the reference spends up to its certificate finds it,
        # one less is exceeded, both with the reference's outcome: at
        # m_max = 2 on random functions, and at m_max = 3 on functions whose
        # first certificate has three sets, so that both fall at the last size
        def boundary(v, m_max, cert):
            ground = list(v.ground)
            pool = [frozenset(c) for r in range(1, len(ground))
                    for c in itertools.combinations(ground, r)]
            m = len(cert.sets)
            before = sum(len(list(itertools.combinations_with_replacement(pool, j)))
                         for j in range(1, m))
            before += list(itertools.combinations_with_replacement(pool, m)).index(cert.sets)
            spent = before * len(v.subsets()) + v.subsets().index(cert.target) + 1
            over = outcome(reference_search_violation, v, m_max, spent - 1)
            assert over[0] is ResourceError
            assert outcome(search_violation, v, m_max, spent - 1) == over
            assert outcome(search_violation, v, m_max, spent) == cert
            return spent

        rng = random.Random(41)
        checked = 0
        for trial in range(120):
            v = random_set_function(rng, 2 + trial % 4)
            cert = reference_search_violation(v, 2)
            if isinstance(cert, CoverInstance):
                checked += boundary(v, 2, cert) > 1
        assert checked > 50
        rng = random.Random(43)
        checked = 0
        for _ in range(120):
            v = heavy_element_function(rng, 4)
            cert = reference_search_violation(v, 3)
            if isinstance(cert, CoverInstance) and len(cert.sets) == 3:
                boundary(v, 3, cert)
                checked += 1
        assert checked > 10

    def test_search_envelopes(self):
        rng = random.Random(29)
        for _ in range(20):
            v = set_function_of(random_structure(rng, max_worlds=4))
            for m_max in (1, 2, 3):
                for budget in (50, 500, errors.SEARCH_BUDGET):
                    assert (outcome(search_violation, v, m_max, budget)
                            == outcome(reference_search_violation, v, m_max, budget))
        # five and six elements, where an envelope's search visits every
        # multiset of two sets
        for n in (5, 5, 5, 6, 6):
            v = SetFunction(tuple("abcdef"[:n]), random_envelope(rng, n))
            for budget in (50, 500, errors.SEARCH_BUDGET):
                assert (outcome(search_violation, v, 2, budget)
                        == outcome(reference_search_violation, v, 2, budget))

    def test_empty_target_certificate(self):
        v = SetFunction(("a", "b"), {
            frozenset(): F(2, 3), frozenset({"a"}): F(11, 12),
            frozenset({"b"}): F(2, 3), frozenset({"a", "b"}): F(5, 6),
        })
        cert = search_violation(v, 3)
        assert cert == reference_search_violation(v, 3)
        assert cert.target == frozenset() and cert.n >= 1
        assert not up3_check(v, cert)

    def test_empty_target_of_three_sets(self):
        # {a}, {b}, {c} cover the ground once and the empty target three
        # times: 1 + 2*v() = 2 exceeds 3/2.  No run of the chain lies above
        # k = 1, so only the empty target's term in the bound sees it.
        v = set_function("abc", lambda X: F(1, 2) if len(X) < 2 else F(1))
        assert search_violation(v, 2) is None
        cert = search_violation(v, 3)
        assert cert == ci(["a", "b", "c"], "", 2, 1) == reference_search_violation(v, 3)

    def test_ground_covered_by_a_merge(self):
        # {ab, ac, ad}: the third set makes S_2 and S_1 equal to the ground,
        # so the ground's run grows to k = 1 by a merge, and a run of {a}
        # covered three times gives 1 + 2*v(a) = 7/5 > 6/5.  v is 4/5 on the
        # sets with b and 1/5 on the others, 1/5 more on three elements.
        v = set_function("abcd", lambda X: F(0) if not X else F(1) if len(X) == 4
                         else F(4 if "b" in X else 1, 5) + F(len(X) == 3, 5))
        assert search_violation(v, 2) is None
        cert = search_violation(v, 3)
        assert cert == ci(["ab", "ac", "ad"], "a", 2, 1) == reference_search_violation(v, 3)

    def test_certificate_repeating_a_set(self):
        # {a, a, bc, bd, cd} covers every element exactly twice (k = 2) and
        # the empty target five times: 2 + 3/5 exceeds 2*(3/5) + 3*(2/5).
        # The second {a} leaves the chain's runs alone except the ground's,
        # which absorbs S_2 by a merge.  No smaller cover violates.
        v = set_function("abcd", lambda X: F(1, 5) if not X else F(1) if "a" in X and len(X) > 1
                         else F(3, 5) if X in ("a", "bcd") else F(2, 5))
        assert search_violation(v, 4) is None
        cert = search_violation(v, 5)
        assert cert == ci(["a", "a", "bc", "bd", "cd"], "", 3, 2)
        assert cert == reference_search_violation(v, 5)

    def test_veps_and_fixtures(self, veps, table_upper):
        for v in (veps, table_upper):
            for m_max in (1, 2, 3):
                assert search_violation(v, m_max) == reference_search_violation(v, m_max)

    def test_properties_of_set_functions(self):
        rng = random.Random(31)
        for trial in range(60):
            v = random_set_function(rng, 1 + trial % 4)
            for max_sets in (2, 3):
                assert check_properties(v) == reference_check_properties(v, max_sets)
        # five and six elements; and four sets, which orders families across sizes
        for trial in range(16):
            v = random_set_function(rng, 5 + trial % 2)
            assert check_properties(v) == reference_check_properties(v, 2)
        for trial in range(24):
            v = random_set_function(rng, 1 + trial % 4)
            assert check_properties(v) == reference_check_properties(v, 4)

    def test_properties_of_structures(self):
        rng = random.Random(37)
        for _ in range(30):
            M = random_structure(rng, max_worlds=4)
            for max_sets in (2, 3):
                assert check_properties(M) == reference_check_properties(M, max_sets)
        for _ in range(16):
            M = random_structure(rng, max_worlds=6)
            assert check_properties(M) == reference_check_properties(M, 2)
        for _ in range(6):
            M = random_structure(rng, max_worlds=3)
            assert check_properties(M) == reference_check_properties(M, 4)
        # explicit zero masses, and a world that no measure lists
        for _ in range(12):
            M = structure_with_zeros(rng, max_worlds=3)
            for max_sets in (2, 3, 4):
                assert check_properties(M) == reference_check_properties(M, max_sets)

    def test_properties_of_fixtures(self, veps, table, marble):
        for source in (veps, table, marble):
            assert check_properties(source) == reference_check_properties(source, 2)
