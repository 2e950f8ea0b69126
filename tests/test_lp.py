import collections
import itertools
import math
import random
import re
from fractions import Fraction as F
from typing import Optional

import pytest

from uplogic import envelope, lp, solver
from uplogic.envelope import dominated_max
from uplogic.errors import InputError, InternalCheckError
from uplogic.lp import (
    Constraint,
    Direction,
    Relation,
    Verdict,
    feasible,
    make_system,
    optimize,
)
from uplogic.parser import parse_likelihood, parse_term
from uplogic.structure import SetFunction

EQ, GE, GT = Relation.EQ, Relation.GE, Relation.GT
MAX, MIN = Direction.MAX, Direction.MIN


def integer_row(names, coeffs, bound=0):
    """(row, bound, den): a row given as Fractions over variable names, and
    its bound, as lp states them: the nonzero entries as ints over the
    columns of names in order, over den, the lcm of the denominators of
    those entries and the bound."""
    column = {v: j for j, v in enumerate(names)}
    entries = {column[v]: F(x) for v, x in coeffs.items() if x}
    bound = F(bound)
    den = math.lcm(bound.denominator, *[x.denominator for x in entries.values()])
    row = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    return row, bound.numerator * (den // bound.denominator), den


def fraction_system(names, rows):
    """The system of rows (coeffs, rel, bound) given as Fractions, coeffs a
    map from variable name to coefficient."""
    constraints = []
    for coeffs, rel, b in rows:
        row, bound, den = integer_row(names, coeffs, b)
        constraints.append(Constraint(row, rel, bound, den))
    return make_system(len(names), constraints)


def objective(names, coeffs):
    """An objective given as Fractions over variable names, as optimize
    takes it: (row, den)."""
    row, _, den = integer_row(names, coeffs)
    return row, den


def fraction_rows(sys):
    """The rows of sys read back as ({column: Fraction}, rel, Fraction)."""
    return [({j: F(a, c.den) for j, a in c.coeffs.items()}, c.rel, F(c.bound, c.den))
            for c in sys.constraints]


def dense(names, constraints):
    """A system from rows written as dense vectors over names."""
    return fraction_system(names, [(dict(zip(names, co)), rel, b) for co, rel, b in constraints])


def sys1(constraints):
    return dense(["x0"], constraints)


X = ({0: 1}, 1)  # the objective x0 of a one-variable system


class TestFeasible:
    def test_unit_interval(self):
        out = feasible(sys1([([F(1)], GE, F(0)), ([F(-1)], GE, F(-1))]))
        assert out.verdict is Verdict.FEASIBLE
        assert 0 <= out.point.get(0, 0) <= 1

    def test_contradiction(self):
        out = feasible(sys1([([F(1)], GE, F(1)), ([F(-1)], GE, F(0))]))
        assert out.verdict is Verdict.INFEASIBLE

    def test_open_interval_witness_interior(self):
        out = feasible(sys1([([F(1)], GT, F(0)), ([F(-1)], GT, F(-1))]))
        assert out.verdict is Verdict.FEASIBLE
        assert 0 < out.point[0] < 1

    def test_strict_point_infeasible(self):
        # x > 0 and x <= 0
        out = feasible(sys1([([F(1)], GT, F(0)), ([F(-1)], GE, F(0))]))
        assert out.verdict is Verdict.INFEASIBLE


class TestOptimize:
    def test_closed_max(self):
        out = optimize(sys1([([F(1)], GE, F(0)), ([F(-1)], GE, F(-1))]), X, MAX)
        assert out.verdict is Verdict.OPTIMAL
        assert out.value == 1 and out.attained
        assert out.point[0] == 1

    def test_open_max_not_attained(self):
        out = optimize(sys1([([F(1)], GT, F(0)), ([F(-1)], GT, F(-1))]), X, MAX)
        assert out.verdict is Verdict.OPTIMAL
        assert out.value == 1 and not out.attained

    def test_unbounded(self):
        # every system the package builds is bounded: an unbounded objective
        # is a failed self-check
        sys = dense(["x", "y"], [([F(1), F(0)], GE, F(0)), ([F(0), F(1)], GE, F(0))])
        with pytest.raises(InternalCheckError, match="unbounded"):
            optimize(sys, objective(["x", "y"], {"x": F(1), "y": F(1)}), MAX)
        # the bounded direction still answers on the same phase-1 basis
        out = optimize(sys, objective(["x", "y"], {"x": F(1), "y": F(1)}), MIN)
        assert (out.verdict, out.value, out.point) == (Verdict.OPTIMAL, 0, {})

    def test_minimize(self):
        out = optimize(
            dense(["x", "y"], [([F(1), F(1)], GE, F(2))]),
            objective(["x", "y"], {"x": F(1), "y": F(1)}), MIN
        )
        assert out.value == 2 and out.attained

    def test_strictly_infeasible_reported(self):
        out = optimize(sys1([([F(1)], GT, F(0)), ([F(-1)], GE, F(0))]), X, MAX)
        assert out.verdict is Verdict.INFEASIBLE

    def test_no_column_may_enter(self):
        # no columns, and no rows or one row 0 = 0 whose artificial stays
        # basic: the list of reduced costs to price is empty
        for rows in ([], [Constraint({}, EQ, 0, 1)]):
            out = optimize(make_system(0, rows), ({}, 1), MAX)
            assert (out.verdict, out.value, out.point, out.attained) == (
                Verdict.OPTIMAL, 0, {}, True)


class TestEquality:
    """An = row is one row of the system, beside weak and strict rows."""

    def test_strict_row_beside_equality(self):
        out = feasible(sys1([([F(1)], EQ, F(1, 2)), ([F(1)], GT, F(0))]))
        assert out.verdict is Verdict.FEASIBLE and out.point == {0: F(1, 2)}
        out = feasible(sys1([([F(1)], EQ, F(0)), ([F(1)], GT, F(0))]))
        assert out.verdict is Verdict.INFEASIBLE

    def test_open_max_on_an_equality(self):
        # y >= 0, x + y = 1, y > 0: x approaches 1 and never reaches it
        sys = dense(["x", "y"], [([F(1), F(1)], EQ, F(1)), ([F(0), F(1)], GT, F(0))])
        out = optimize(sys, ({0: 1}, 1), MAX)
        assert out.verdict is Verdict.OPTIMAL
        assert out.value == 1 and not out.attained and out.point is None

    def test_equality_is_one_row(self):
        sys = dense(["x", "y"], [([F(1), F(1)], EQ, F(1))])
        assert len(sys.constraints) == 1
        out = optimize(sys, ({0: 2, 1: 1}, 1), MAX)
        assert (out.value, out.point) == (2, {0: F(1)})


class TestInputChecks:
    """Variables are the columns 0..n-1; every row and objective is over
    them, each over a positive denominator."""

    def test_row_names_unknown_variable(self):
        with pytest.raises(InputError, match=r"constraint names unknown columns: \[-1, 2\]"):
            make_system(2, [Constraint({0: 1, 2: 2}, GE, 0, 1),
                            Constraint({-1: 1}, GE, 0, 1)])

    def test_objective_names_unknown_variable(self):
        sys = make_system(1, [Constraint({0: 1}, GE, 0, 1)])
        with pytest.raises(InputError, match=r"objective names unknown columns: \[1\]"):
            optimize(sys, ({1: 1}, 1), MAX)
        with pytest.raises(InputError, match="objective denominator 0 is not positive"):
            optimize(sys, ({0: 1}, 0), MAX)

    def test_row_denominator_must_be_positive(self):
        with pytest.raises(InputError, match="row denominator -2 is not positive"):
            make_system(1, [Constraint({0: 1}, GE, 1, -2)])

    def test_zero_entries_are_dropped(self):
        sys = make_system(2, [Constraint({0: 0, 1: -1}, GE, 0, 2)])
        assert sys.constraints[0] == Constraint({1: -1}, GE, 0, 2)
        assert type(sys.constraints[0].coeffs[1]) is int


# ---------------------------------------------------------------------------
# Brute-force vertex oracle.  Random systems include box rows, so the
# feasible region is bounded and any nonempty region has a vertex optimum.
# lp's variables are >= 0, so a system drawn around the origin is given
# translated by y = x + 4: its box becomes 0 <= y <= 8.


def _gauss_solve(rows, rhs):
    """Exact solve of a square system; None when singular."""
    n = len(rows)
    A = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if A[i][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        inv = F(1) / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for i in range(n):
            if i != col and A[i][col] != 0:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    return [A[i][n] for i in range(n)]


def vertex_oracle(nvars, constraints, objective, direction):
    """Best objective value over feasible vertices; None when infeasible."""
    best = None
    for combo in itertools.combinations(range(len(constraints)), nvars):
        point = _gauss_solve(
            [constraints[i][0] for i in combo],
            [constraints[i][2] for i in combo],
        )
        if point is None:
            continue
        ok = all(
            sum(c * x for c, x in zip(coeffs, point)) >= b
            for coeffs, _, b in constraints
        )
        if not ok:
            continue
        val = sum(c * x for c, x in zip(objective, point))
        if best is None:
            best = val
        elif direction is Direction.MAX:
            best = max(best, val)
        else:
            best = min(best, val)
    return best


def random_bounded_system(rng, nvars):
    """Rows drawn over -4 <= x_i <= 4, given over y = x + 4."""
    constraints = []
    for i in range(nvars):  # box: -4 <= x_i <= 4
        lo = [F(0)] * nvars
        hi = [F(0)] * nvars
        lo[i], hi[i] = F(1), F(-1)
        constraints.append((lo, GE, F(-4)))
        constraints.append((hi, GE, F(-4)))
    extra = rng.randint(0, 8 - min(8, nvars))
    for _ in range(extra):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
        constraints.append((coeffs, GE, F(rng.randint(-6, 4))))
    objective = [F(rng.randint(-3, 3)) for _ in range(nvars)]
    direction = rng.choice([Direction.MAX, Direction.MIN])
    # c.x >= b is c.y >= b + 4 * sum(c)
    constraints = [(co, rel, b + 4 * sum(co)) for co, rel, b in constraints]
    return constraints, objective, direction


def test_oracle_agreement_200_random_systems():
    _oracle_agreement_200_random_systems()


def test_oracle_agreement_on_blands_rule_alone(monkeypatch):
    # Bland's rule from the first pivot; it otherwise takes over only after
    # 20 (m + n + 10) pivots, which no system here reaches
    monkeypatch.setattr(lp, "bland_after", lambda rows, columns: 0)
    _oracle_agreement_200_random_systems()


def _oracle_systems():
    """The 200 random systems of the oracle tests, as (nvars, constraints,
    obj, direction, system, objective)."""
    rng = random.Random(2025)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        constraints, obj, direction = random_bounded_system(rng, nvars)
        names = [f"x{i}" for i in range(nvars)]
        yield (nvars, constraints, obj, direction, dense(names, constraints),
               objective(names, dict(zip(names, obj))))


def _oracle_agreement_200_random_systems():
    for nvars, constraints, obj, direction, sys, target in _oracle_systems():
        out = optimize(sys, target, direction)
        expected = vertex_oracle(nvars, constraints, obj, direction)
        if expected is None:
            assert out.verdict is Verdict.INFEASIBLE
        else:
            assert out.verdict is Verdict.OPTIMAL
            assert out.value == expected


def test_points_have_at_most_one_entry_per_row():
    # a basic point: at most as many nonzero columns as the LP has rows,
    # each of them a column of the system, with no zero entries listed
    seen = collections.Counter()
    for _, _, _, direction, sys, target in _oracle_systems():
        for out in (feasible(sys), optimize(sys, target, direction)):
            if out.point is None:
                continue
            assert len(out.point) <= len(sys.constraints)
            assert all(j in sys.variables and x for j, x in out.point.items())
            seen[out.verdict] += 1
            seen["nonzero"] += bool(out.point)
    assert min(seen.values()) >= 100, seen


def test_optimum_dominates_sampled_feasible_points():
    rng = random.Random(77)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        constraints, obj, _ = random_bounded_system(rng, nvars)
        names = [f"x{i}" for i in range(nvars)]
        out = optimize(dense(names, constraints), objective(names, dict(zip(names, obj))), MAX)
        if out.verdict is not Verdict.OPTIMAL:
            continue
        for _ in range(20):
            point = [F(rng.randint(0, 8)) for _ in range(nvars)]
            if all(
                sum(c * x for c, x in zip(coeffs, point)) >= b
                for coeffs, _, b in constraints
            ):
                assert sum(c * x for c, x in zip(obj, point)) <= out.value


# ---------------------------------------------------------------------------
# The entering column.  The pricer lists c_j yden - Y a_j for each column j
# that may enter; Dantzig's rule enters the largest, the lowest column among
# tied maxima, and Bland's rule the lowest column > 0.


def _entering(dantzig):
    """The columns Basis.run asks for when the pricer lists [0, 3, 5, 5, 1],
    after dantzig pivots on Dantzig's rule; the column it is given is
    bounded by no row, so the run stops, unbounded, after one choice."""
    basis = lp.Basis([0], [({0: 1}, 1, 0, 0)], 5)
    basis.dantzig = dantzig
    asked = []

    def column(j):
        asked.append(j)
        return {}

    assert basis.run({}, lambda Y, den: [0, 3, 5, 5, 1], column) is None
    return asked


def test_dantzig_enters_the_lowest_of_the_tied_maxima():
    assert _entering(1) == [2]


def test_bland_enters_the_lowest_improving_column():
    assert _entering(0) == [1]


# ---------------------------------------------------------------------------
# Starting basis.  A homogeneous row a.x >= 0 is feasible at the origin,
# so it must start on its own slack; giving it an artificial makes phase 1
# pivot through long degenerate runs on the solver's dominance rows.  A
# strict row a.x > 0 is a.x >= 0 + delta, which the origin misses by delta,
# so it starts on an artificial; a strict row with a negative bound holds at
# the origin and starts on its slack.


def test_zero_rhs_rows_start_on_slack(monkeypatch):
    built = []

    class Recording(lp._SystemLP):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(lp, "_SystemLP", Recording)
    names = ["x", "y", "z"]
    weak = [([F(1), F(-1), F(0)], GE, F(0)), ([F(0), F(1), F(-1)], GE, F(0))]
    low = optimize(dense(names, weak), ({0: 1}, 1), MIN)
    assert low.verdict is Verdict.OPTIMAL and low.value == 0
    assert [len(s.art_cols) for s in built] == [0]
    built.clear()
    zero = [([F(-1), F(2), F(0)], GT, F(0))]
    negative = [([F(0), F(0), F(-1)], GT, F(-1))]
    assert feasible(dense(names, weak + zero + negative)).verdict is Verdict.FEASIBLE
    assert [len(s.art_cols) for s in built] == [1]
    built.clear()
    assert feasible(dense(names, weak + negative)).verdict is Verdict.FEASIBLE
    assert [len(s.art_cols) for s in built] == [0]
    # a weak row with a positive bound needs an artificial too
    built.clear()
    out = feasible(dense(names, weak + negative + [([F(1), F(1), F(1)], GE, F(3))]))
    assert out.verdict is Verdict.FEASIBLE
    assert [len(s.art_cols) for s in built] == [1]


# ---------------------------------------------------------------------------
# Delta-rationals.  A strict row's right-hand side is a pair b + k*delta,
# and the ratio test looks at the delta parts when the real parts tie; a
# point is read at a concrete eps that keeps every basic column >= 0.


def test_a_tie_on_the_real_part_goes_to_the_lower_delta_part():
    # x <= 1 and x < 1: x enters at ratio 1 in both rows, and only the delta
    # parts, 0 and -1, make the strict row leave.  The weak row's slack is
    # the lower basic column, so a ratio test blind to delta would pick it
    # and leave the strict row's slack at -delta.
    sys = sys1([([F(-1)], GE, F(-1)), ([F(-1)], GT, F(-1))])
    hi = optimize(sys, X, MAX)
    assert (hi.verdict, hi.value, hi.attained, hi.point) == (Verdict.OPTIMAL, 1, False, None)
    lo = optimize(sys, X, MIN)
    assert (lo.verdict, lo.value, lo.attained, lo.point) == (Verdict.OPTIMAL, 0, True, {})


def test_a_point_is_read_at_an_eps_that_keeps_every_row():
    # x > 0 and x <= 1/1000: phase 1 leaves x = delta basic and the slack of
    # the second row at 1/1000 - delta, so delta = 1 would break that row
    sys = sys1([([F(1)], GT, F(0)), ([F(-1)], GE, F(-1, 1000))])
    out = feasible(sys)
    assert out.verdict is Verdict.FEASIBLE and out.point == {0: F(1, 1000)}
    hi = optimize(sys, X, MAX)
    assert (hi.value, hi.attained, hi.point) == (F(1, 1000), True, {0: F(1, 1000)})
    lo = optimize(sys, X, MIN)
    assert (lo.value, lo.attained, lo.point) == (0, False, None)


def test_a_basic_column_negative_at_every_eps_is_caught():
    # the slack of x <= 1/1000 is basic at 1/1000 - delta; drop its real part
    basis = sys1([([F(1)], GT, F(0)), ([F(-1)], GE, F(-1, 1000))])._phase_one.basis
    [i] = [i for i, row in enumerate(basis.rows) if row.get(lp.DLT, 0) < 0]
    basis.rows[i] = {j: x for j, x in basis.rows[i].items() if j != lp.RHS}
    with pytest.raises(InternalCheckError, match="negative at every delta"):
        basis.values(1)


def test_an_optimum_off_the_point_is_caught(monkeypatch):
    run = lp.Basis.run

    def off_by_one(self, *args):
        Y, den = run(self, *args)
        return {**Y, lp.RHS: Y.get(lp.RHS, 0) + den}, den

    monkeypatch.setattr(lp.Basis, "run", off_by_one)
    sys = sys1([([F(1)], GE, F(0)), ([F(-1)], GE, F(-1))])
    with pytest.raises(InternalCheckError, match="is not the objective at the point"):
        optimize(sys, X, MAX)


# ---------------------------------------------------------------------------
# The point re-check is exact: a point one unit of its denominator off a
# row, or below zero, is rejected however large that denominator is.


def _violating(names, coeffs, rel, bound):
    """The message naming the row coeffs.x rel bound, as lp states it."""
    row, b, den = integer_row(names, dict(zip(names, coeffs)), bound)
    return re.escape(f"solver returned a point violating {row} {rel.value} {b} over {den}")


def check_point(sys, point):
    """lp._check_point on the Fraction list point, given as Basis.values
    gives a point: its nonzero entries as numerators over one denominator."""
    den = math.lcm(*[x.denominator for x in point])
    lp._check_point(sys, den, {j: x.numerator * (den // x.denominator)
                               for j, x in enumerate(point) if x})


def test_check_point_rejects_a_point_one_unit_off():
    D = 10**30 + 57
    names = ["x", "y", "z"]
    point = [F(5 * 10**29, D), F(0), F(1, 3)]
    coeffs = [F(1, 3), F(-2, 7), F(5, 11)]
    at = sum(c * x for c, x in zip(coeffs, point))
    one_off = [point[0] - F(1, D)] + point[1:]
    # every row is checked: the row the moved point breaks comes last
    loose = [([F(1), F(0), F(0)], GE, F(0)), ([F(0), F(0), F(-1)], GE, F(-1))]
    weak = dense(names, loose + [(coeffs, GE, at)])
    check_point(weak, point)
    with pytest.raises(InternalCheckError, match=_violating(names, coeffs, GE, at)):
        check_point(weak, one_off)
    below = at - F(1, 3 * D)
    strict = dense(names, loose + [(coeffs, GT, below)])
    check_point(strict, point)
    with pytest.raises(InternalCheckError, match=_violating(names, coeffs, GT, below)):
        check_point(strict, one_off)
    # every variable is >= 0
    with pytest.raises(InternalCheckError, match="solver returned negative column 1"):
        check_point(weak, [point[0], F(-1, D), point[2]])
    with pytest.raises(InternalCheckError, match="solver returned negative column 2"):
        check_point(weak, point[:2] + [F(-1, D)])


def test_check_point_rejects_a_column_outside_the_system():
    # x + y >= 0 over the columns 0 and 1: any further column, or one below
    # 0, is not the system's, whatever its value and however the rows read it
    sys = make_system(2, [Constraint({0: 1, 1: 1}, GE, 0, 1)])
    lp._check_point(sys, 3, {0: 1, 1: 2})
    for j in (2, 7, -1):
        with pytest.raises(InternalCheckError, match=f"column {j} outside the system"):
            lp._check_point(sys, 3, {0: 1, j: 1})


def test_oracle_agreement_mixed_sign_bounds():
    rng = random.Random(4242)
    seen = {"zero": 0, "positive": 0, "infeasible": 0}
    for _ in range(150):
        nvars = rng.randint(1, 4)
        constraints, obj, direction = random_bounded_system(rng, nvars)
        for _ in range(rng.randint(1, 3)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
            bound = F(rng.choice([0, 0, rng.randint(1, 4), rng.randint(-4, -1)]))
            constraints.append((coeffs, GE, bound))
        seen["zero"] += any(b == 0 and any(co) for co, _, b in constraints)
        seen["positive"] += any(b > 0 for _, _, b in constraints)
        names = [f"x{i}" for i in range(nvars)]
        out = optimize(dense(names, constraints), objective(names, dict(zip(names, obj))),
                       direction)
        expected = vertex_oracle(nvars, constraints, obj, direction)
        if expected is None:
            seen["infeasible"] += 1
            assert out.verdict is Verdict.INFEASIBLE
        else:
            assert out.verdict is Verdict.OPTIMAL
            assert out.value == expected
    assert all(seen.values()), seen


def test_check_point_rejects_a_point_one_unit_off_an_equality():
    D = 10**30 + 57
    names = ["x", "y"]
    point = [F(5 * 10**29, D), F(1, 3)]
    coeffs = [F(1, 3), F(-2, 7)]
    at = sum(c * x for c, x in zip(coeffs, point))
    sys = dense(names, [([F(0), F(1)], GE, F(0)), (coeffs, EQ, at)])
    check_point(sys, point)
    for off in (F(1, D), F(-1, D)):  # either side of the row
        with pytest.raises(InternalCheckError, match=_violating(names, coeffs, EQ, at)):
            check_point(sys, [point[0] + off, point[1]])


def test_oracle_agreement_with_equality_rows():
    """One = row to lp, its two >= halves to the oracle."""
    rng = random.Random(6061)
    seen = {"feasible": 0, "infeasible": 0, "two_eq": 0}
    for _ in range(160):
        nvars = rng.randint(1, 4)
        names = [f"x{i}" for i in range(nvars)]
        constraints, obj, direction = random_bounded_system(rng, nvars)
        constraints = constraints[: 2 * nvars + rng.randint(0, 1)]
        # a point inside the box, so that most equalities are satisfiable
        plant = [4 + F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in names]
        equalities = []
        for _ in range(rng.randint(1, 2)):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(nvars)]
            bound = sum(c * x for c, x in zip(coeffs, plant))
            if rng.random() < 0.25:
                bound += rng.choice([-1, 1])
            equalities.append((coeffs, bound))
        sys = dense(names, constraints + [(co, EQ, b) for co, b in equalities])
        assert sum(c.rel is EQ for c in sys.constraints) == len(equalities)
        halves = [(co, GE, b) for co, b in equalities]
        halves += [([-x for x in co], GE, -b) for co, b in equalities]
        out = optimize(sys, objective(names, dict(zip(names, obj))), direction)
        expected = vertex_oracle(nvars, constraints + halves, obj, direction)
        if expected is None:
            seen["infeasible"] += 1
            assert out.verdict is Verdict.INFEASIBLE
        else:
            seen["feasible"] += 1
            assert out.verdict is Verdict.OPTIMAL
            assert out.value == expected
            for co, b in equalities:
                assert sum(co[j] * x for j, x in out.point.items()) == b
        seen["two_eq"] += len(equalities) == 2
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# Differential test of the revised simplex.  FractionSimplex is the simplex
# as it was over a tableau of Fractions; the revised simplex must make the
# same pivots, as (leaving column, entering column) pairs, and return the
# same status, point and value, and raise InternalCheckError where the
# reference finds the objective unbounded.  The pairs, not the row
# positions, are compared: the reference deletes a redundant row, while the
# revised simplex keeps its artificial basic at zero.

ZERO, ONE = F(0), F(1)


class FractionSimplex:
    """The simplex over a tableau of Fractions, kept as the reference for
    the revised simplex in `lp`, whose B^-1 A is this tableau."""

    def __init__(self, n: int, rows: list[tuple[list, str, object]], c: list):
        # Normalize rows to rhs >= 0, assign slack/surplus/artificial columns.
        # A ">=" row with rhs 0 is flipped too: as "<=" its slack is a
        # feasible starting basic variable, so it needs no artificial.
        self.n_struct = n
        body: list[list] = []
        rhs: list = []
        kinds: list[str] = []
        for a, rel, b in rows:
            a = list(a)
            if b < 0 or (b == 0 and rel == ">="):
                a = [-x for x in a]
                b = -b
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            body.append(a)
            rhs.append(b)
            kinds.append(rel)
        m = len(body)
        self.m = m
        n_slack = sum(1 for k in kinds if k != "=")
        self.ncols = n + n_slack
        art_cols: list[int] = []
        basis: list[int] = []
        T: list[list] = []
        slack_at = n
        art_at = self.ncols
        n_art = sum(1 for k in kinds if k != "<=")
        total = self.ncols + n_art
        for i in range(m):
            row = [ZERO] * (total + 1)
            for j, x in enumerate(body[i]):
                row[j] = F(x)
            if kinds[i] == "<=":
                row[slack_at] = ONE
                basis.append(slack_at)
                slack_at += 1
            elif kinds[i] == ">=":
                row[slack_at] = -ONE
                slack_at += 1
                row[art_at] = ONE
                basis.append(art_at)
                art_cols.append(art_at)
                art_at += 1
            else:
                row[art_at] = ONE
                basis.append(art_at)
                art_cols.append(art_at)
                art_at += 1
            row[-1] = F(rhs[i])
            T.append(row)
        self.T = T
        self.basis = basis
        self.art_cols = set(art_cols)
        self.total = total
        self.c = [F(x) for x in c] + [ZERO] * (total - n)

    def _reduced_costs(self, c: list) -> list:
        # z_j - c_j style: cost row = c_j - sum over basic rows
        T, basis = self.T, self.basis
        costs = list(c) + [ZERO]
        for i, b in enumerate(basis):
            cb = c[b]
            if cb != 0:
                row = T[i]
                for j in range(self.total + 1):
                    if row[j] != 0:
                        costs[j] -= cb * row[j]
        return costs

    def _pivot(self, r: int, e: int) -> list[tuple[int, object]]:
        """Pivot on (r, e); returns the nonzero entries of the new pivot row.

        Other rows are updated in place, only in those columns."""
        T = self.T
        prow = T[r]
        piv = prow[e]
        if piv != 1:
            inv = ONE / piv
            T[r] = prow = [x * inv if x else x for x in prow]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(self.m):
            if i == r:
                continue
            row = T[i]
            f = row[e]
            if f:
                for j, y in nz:
                    row[j] -= f * y
        self.basis[r] = e
        return nz

    def _run(self, c: list, banned: set) -> str:
        """Maximize c over current tableau.  Returns 'optimal' or 'unbounded'."""
        costs = self._reduced_costs(c)
        iters = 0
        bland_after = 20 * (self.m + self.total + 10)
        while True:
            iters += 1
            bland = iters > bland_after
            e = -1
            best = ZERO
            for j in range(self.total):
                if j in banned:
                    continue
                cj = costs[j]
                if cj > 0:
                    if bland:
                        e = j
                        break
                    if cj > best:
                        best = cj
                        e = j
            if e < 0:
                return "optimal"
            # ratio test
            r = -1
            best_ratio = None
            for i in range(self.m):
                a = self.T[i][e]
                if a > 0:
                    ratio = self.T[i][-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[r])
                    ):
                        best_ratio = ratio
                        r = i
            if r < 0:
                return "unbounded"
            # incremental cost-row update, over the pivot row's nonzeros
            ce = costs[e]
            for j, y in self._pivot(r, e):
                costs[j] -= ce * y
            costs[e] = ZERO

    def solve(self) -> tuple[str, Optional[object], Optional[list]]:
        """Two phases.  Returns (status, value, point) with point the
        nonzero structural columns, column -> value; status in {'optimal',
        'unbounded', 'infeasible'}."""
        if self.art_cols:
            phase1 = [ZERO] * self.total
            for j in self.art_cols:
                phase1[j] = -ONE
            status = self._run(phase1, banned=set())
            if status != "optimal":
                raise InternalCheckError("phase 1 cannot be unbounded")
            resid = sum(
                (self.T[i][-1] for i in range(self.m) if self.basis[i] in self.art_cols),
                ZERO,
            )
            if resid != 0:
                return ("infeasible", None, None)
            self._evict_artificials()
        status = self._run(self.c, banned=self.art_cols)
        point = self._point()
        if status == "unbounded":
            return ("unbounded", None, point)
        value = sum((self.c[j] * x for j, x in point.items()), ZERO)
        return ("optimal", value, point)

    def _evict_artificials(self) -> None:
        drop: list[int] = []
        for i in range(self.m):
            if self.basis[i] in self.art_cols:
                row = self.T[i]
                e = next(
                    (j for j in range(self.total) if j not in self.art_cols and row[j] != 0),
                    -1,
                )
                if e >= 0:
                    self._pivot(i, e)
                else:
                    drop.append(i)  # redundant row
        for i in reversed(drop):
            del self.T[i]
            del self.basis[i]
            self.m -= 1

    def _point(self) -> dict:
        return {b: self.T[i][-1] for i, b in enumerate(self.basis)
                if b < self.n_struct and self.T[i][-1]}


class RecordingFractionSimplex(FractionSimplex):
    def __init__(self, *args):
        self.pivots = []
        super().__init__(*args)

    def _pivot(self, r, e):
        self.pivots.append((self.basis[r], e))
        return super()._pivot(r, e)


SMALL = [0, 0, 0, 1, -1, 2, -3, F(7, 13), F(-5, 6), F(1, 10**12)]
HUGE = [F(10**30, 7), F(-(10**30), 7)]
BOUNDS = [0, 0, 1, 4, 9, 2, -1, -6, F(7, 13), F(-7, 13)]


def random_internal_system(rng):
    """Rows over 1-6 columns with the relations <=, >= and =, entries ints
    and Fractions; a third of the systems also draw coefficients and bounds
    around 10**30/7, half of them get a box row."""
    n = rng.randint(1, 6)
    entries, bounds = SMALL, BOUNDS
    if rng.random() < 1 / 3:
        entries, bounds = SMALL + HUGE, BOUNDS + HUGE
    rows = []
    for _ in range(rng.randint(1, 8)):
        a = [rng.choice(entries) for _ in range(n)]
        rel = rng.choice(["<=", "<=", "<=", ">=", ">=", "="])
        rows.append((a, rel, rng.choice(bounds)))
    if rng.random() < 1 / 2:  # a box, so that more systems have an optimum
        rows.append(([1] * n, "<=", 9))
    c = [rng.choice(entries) for _ in range(n)]
    return n, rows, c


def internal_system(n, rows):
    """The rows (a, rel, b) over n columns as a system: a.x <= b is
    -a.x >= -b."""
    names = range(n)
    return fraction_system(names, [
        (dict(enumerate(a)), EQ if rel == "=" else GE, b) if rel != "<="
        else ({j: -x for j, x in enumerate(a)}, GE, -b) for a, rel, b in rows])


def integer_solve(sx, c):
    """FractionSimplex.solve on lp._SystemLP: phase_one, then a run of the
    dense objective c.  Returns (status, value, point), point as
    FractionSimplex gives it, from Basis.values."""
    if not sx.phase_one():
        return ("infeasible", None, None)
    c, cden = objective(range(len(c)), dict(enumerate(c)))
    sx.maximize(sx.basis, c)
    den, nums = sx.basis.values(sx.n)
    point = {j: F(x, den) for j, x in nums.items()}
    return ("optimal", sum((x * point.get(j, 0) for j, x in c.items()), F(0)) / cden, point)


def test_integer_tableau_matches_fraction_tableau(monkeypatch):
    rng = random.Random(31337)
    pivots = []
    pivot = lp.Basis.pivot

    def recording(self, r, e, u):
        pivots.append((self.cols[r], e))
        return pivot(self, r, e, u)

    monkeypatch.setattr(lp.Basis, "pivot", recording)
    seen = {"optimal": 0, "unbounded": 0, "infeasible": 0, "eq_negative_rhs": 0,
            "huge": 0, "pivots": 0, "redundant": 0}
    for _ in range(400):
        n, rows, c = random_internal_system(rng)
        ref = RecordingFractionSimplex(n, rows, c)
        pivots.clear()
        new = lp._SystemLP(internal_system(n, rows))
        assert new.art_cols == ref.art_cols
        want = ref.solve()
        if want[0] == "unbounded":
            with pytest.raises(InternalCheckError, match="unbounded"):
                integer_solve(new, c)
        else:
            assert integer_solve(new, c) == want
        assert pivots == ref.pivots
        for row, den in zip(new.basis.rows, new.basis.dens):
            assert den > 0 and math.gcd(den, *row.values()) == 1 and all(row.values())
        seen[want[0]] += 1
        seen["eq_negative_rhs"] += any(rel == "=" and b < 0 for _, rel, b in rows)
        seen["huge"] += any(abs(x) > 10**20 for a, _, _ in rows for x in a)
        seen["pivots"] += len(pivots)
        # a redundant row: its artificial stays basic, where the reference
        # deletes the row
        seen["redundant"] += want[0] != "infeasible" and any(
            b in new.art_cols for b in new.basis.cols)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# One phase 1 per system.  reference_optimize is optimize as it was: a cold
# two-phase solve of the weak relaxation and, over strict rows, a strict
# feasibility check with the objective pinned to its optimum by one = row,
# all on FractionSimplex.  optimize re-optimizes a copy of the system's one
# phase-1 basis and reads attainment off the delta part of the optimum; the
# verdict, value and attainment must be the reference's.

_REF_REL = {EQ: "=", GE: ">=", GT: ">="}
UNBOUNDED = "unbounded"  # the reference's verdict where optimize raises


def _reference_strict_feasible(n, rows):
    """Whether the Fraction rows ({column: x}, rel, b) over n columns hold
    with every strict row strict: delta, column n, maximized."""
    dense = [([co.get(j, ZERO) for j in range(n)] + [F(-1 if rel is GT else 0)],
              _REF_REL[rel], b) for co, rel, b in rows]
    dense.append(([ZERO] * n + [F(-1)], ">=", F(-1)))
    status, value, _ = FractionSimplex(n + 1, dense, [ZERO] * n + [ONE]).solve()
    strict = any(rel is GT for _, rel, _ in rows)
    return status == "optimal" and (value > 0 or not strict)


def reference_optimize(sys, objective, direction):
    """(verdict, value, attained) of optimize as it was, on the rows of sys
    read back as Fractions."""
    n, rows = len(sys.variables), fraction_rows(sys)
    strict = any(rel is GT for _, rel, _ in rows)
    if strict and not _reference_strict_feasible(n, rows):
        return Verdict.INFEASIBLE, None, True
    sign = 1 if direction is MAX else -1
    coeffs, den = objective
    obj = {j: F(x, den) for j, x in coeffs.items()}
    status, value, _ = FractionSimplex(
        n, [([co.get(j, ZERO) for j in range(n)], _REF_REL[rel], b) for co, rel, b in rows],
        [sign * obj.get(j, ZERO) for j in range(n)]).solve()
    if status == "infeasible":
        return Verdict.INFEASIBLE, None, True
    if status == "unbounded":
        return UNBOUNDED, None, True
    value = sign * value
    if not strict:
        return Verdict.OPTIMAL, value, True
    return Verdict.OPTIMAL, value, _reference_strict_feasible(n, rows + [(obj, EQ, value)])


def random_strict_system(rng):
    """A system with strict rows over 1-4 variables; most have a box, two
    thirds bound the objective by a weak or a strict row (so that the
    optimal face is often a facet, and the optimum often not attained),
    some carry an = row."""
    nvars = rng.randint(1, 4)
    names = [f"x{i}" for i in range(nvars)]
    constraints, obj, direction = random_bounded_system(rng, nvars)
    if rng.random() < 0.4:
        constraints = constraints[2 * nvars:]  # no box: unbounded ones too
    rels = [GE, GT, GT]
    constraints = [(co, rng.choice(rels), b) for co, _, b in constraints]
    if rng.random() < 2 / 3:  # the optimal face is often a whole facet
        sign = 1 if direction is MAX else -1
        constraints.append(([-sign * x for x in obj], rng.choice([GE, GT]),
                            F(rng.randint(-3, 2))))
    if rng.random() < 0.2:
        constraints.append(([F(rng.randint(-2, 2)) for _ in names], EQ,
                            F(rng.randint(-1, 1))))
    if not any(rel is GT for _, rel, _ in constraints):
        constraints.append(([F(1)] + [F(0)] * (nvars - 1), GT, F(-3)))
    return dense(names, constraints), objective(names, dict(zip(names, obj))), direction


def _answer(sys, objective, direction):
    """optimize's outcome, or UNBOUNDED where it raises InternalCheckError
    for an unbounded objective."""
    try:
        return optimize(sys, objective, direction)
    except InternalCheckError as e:
        assert "unbounded" in str(e)
        return UNBOUNDED


def test_face_step_matches_pinned_reference():
    rng = random.Random(9091)
    seen = collections.Counter()
    for _ in range(400):
        sys, objective, direction = random_strict_system(rng)
        out = _answer(sys, objective, direction)
        verdict, value, attained = reference_optimize(sys, objective, direction)
        if verdict == UNBOUNDED:
            assert out == UNBOUNDED
        else:
            assert (out.verdict, out.value) == (verdict, value)
        if verdict is Verdict.OPTIMAL:
            assert out.attained == attained
            if attained:  # a strictly feasible point at the optimum
                coeffs, den = objective
                assert sum(F(x, den) * out.point.get(j, 0) for j, x in coeffs.items()) == value
            else:
                assert out.point is None
        seen[verdict, attained] += 1
    assert set(seen) == {(Verdict.OPTIMAL, True), (Verdict.OPTIMAL, False),
                         (Verdict.INFEASIBLE, True), (UNBOUNDED, True)}, seen
    assert min(seen.values()) >= 10, seen


def _fresh(sys):
    """An equal system with no LP built yet."""
    return lp.LinearSystem(sys.variables, sys.constraints)


def test_interleaved_objectives_answer_as_on_a_fresh_system(monkeypatch):
    rng = random.Random(5150)
    built = []

    class Counting(lp._SystemLP):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(lp, "_SystemLP", Counting)
    strict = 0
    for _ in range(60):
        sys, first, _ = random_strict_system(rng)
        if rng.random() < 0.5:  # the weak relaxation, rows as they were
            sys = make_system(len(sys.variables), [
                c._replace(rel=GE) if c.rel is GT else c for c in sys.constraints])
        strict += any(c.rel is GT for c in sys.constraints)
        second = objective(sys.variables, {j: F(rng.randint(-3, 3)) for j in sys.variables})
        calls = [(first, MAX), (second, MIN), (first, MIN), (second, MAX), (first, MAX)]
        built.clear()
        got = [_answer(sys, o, d) for o, d in calls] + [feasible(sys)]
        assert len(built) == 1  # one LP, built once
        want = [_answer(_fresh(sys), o, d) for o, d in calls] + [feasible(_fresh(sys))]
        assert got == want
    assert 10 < strict < 50


def _rows(sys):
    """The rows of sys, copied."""
    return [(dict(c.coeffs), c.rel, c.bound, c.den) for c in sys.constraints]


def test_stored_rows_survive_feasible_and_two_optimizes():
    # the simplex reads its columns and right-hand sides off the stored
    # rows and must leave them as they are: a second optimize, or the point
    # check, reads them again
    rng = random.Random(1414)
    seen = collections.Counter()
    for _ in range(80):
        sys, first, direction = random_strict_system(rng)
        before = _rows(sys)
        out = feasible(sys)
        answers = [_answer(sys, first, d) for d in (MIN, MAX)]
        assert _rows(sys) == before
        assert answers == [_answer(_fresh(sys), first, d) for d in (MIN, MAX)]
        seen[out.verdict] += 1
    # and the solver's witness LP of a bounds query
    f = parse_likelihood("l(p) > 1/3 & l(q) - l(p | q) >= -1/2 & l(!q) < 3/4")
    t = parse_term("l(p & q) - 2 l(q)")
    worlds, g = solver._prepare(f, t.args())
    dlp = solver._DisjunctLP(worlds, solver.dnf(g)[0], extra_args=t.parts)
    before = _rows(dlp.system)
    assert feasible(dlp.system).verdict is Verdict.FEASIBLE
    obj, _ = dlp.term_row(t)
    ends = [optimize(dlp.system, obj, d) for d in (MIN, MAX)]
    assert _rows(dlp.system) == before
    assert ends == [optimize(_fresh(dlp.system), obj, d) for d in (MIN, MAX)]
    assert seen[Verdict.FEASIBLE] >= 20 and seen[Verdict.INFEASIBLE] >= 10, seen


def test_one_tableau_per_bounds_disjunct_and_none_per_set_function(monkeypatch):
    built, calls = [], []

    class Counting(lp._SystemLP):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(lp, "_SystemLP", Counting)
    monkeypatch.setattr(lp, "optimize",
                        lambda *args: calls.append(args) or optimize(*args))
    # two disjuncts reach an LP: one phase 1 and two optimize calls each
    res = solver.bounds(parse_likelihood("l(p) = 1/4 | l(p) < 3/4 & l(q) > 1/2"),
                        parse_term("l(p)"))
    assert (res.lower, res.lower_attained) == (F(0), True)
    assert (res.upper, res.upper_attained) == (F(3, 4), False)
    assert (len(built), len(calls)) == (2, 4)
    # the vacuous set function on five elements: five LPs, all on the dual
    built.clear()
    calls.clear()
    lps = []
    monkeypatch.setattr(envelope, "dominated_max",
                        lambda *args: lps.append(args) or dominated_max(*args))
    ground = tuple("abcde")
    subsets = [frozenset(c) for r in range(6) for c in itertools.combinations(ground, r)]
    v = SetFunction(ground, {X: F(1) if X else F(0) for X in subsets})
    assert envelope.is_upper_probability(v).is_upper_probability
    assert (len(built), len(calls), len(lps)) == (0, 0, 5)


# ---------------------------------------------------------------------------
# The revised simplex's basis, and the certificate of each dual optimum.


def _inverse(B):
    """The inverse of a square Fraction matrix, by Gauss-Jordan
    elimination."""
    m = len(B)
    rows = [list(map(F, r)) + [F(i == j) for j in range(m)] for i, r in enumerate(B)]
    for c in range(m):
        p = next(i for i in range(c, m) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(m):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [r[m:] for r in rows]


def test_basis_inverse_after_random_pivots():
    rng = random.Random(1990)
    pivots = negative = big = 0
    for _ in range(100):
        m, k = rng.randint(1, 5), rng.randint(1, 6)
        # columns 0..k-1 random, then the m columns the basis starts on, each
        # one nonzero entry in its row, and a right-hand side b + k*delta
        scales = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)]
        columns = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        columns += [[s * (i == j) for i in range(m)] for j, s in enumerate(scales)]
        rhs = [(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(m)]
        signs = [1 if s > 0 else -1 for s in scales]
        basis = lp.Basis(list(range(k, k + m)), [
            ({i: sign}, abs(s), sign * b, sign * d)
            for i, (s, sign, (b, d)) in enumerate(zip(scales, signs, rhs))], k + m)
        for _ in range(rng.randint(1, 16)):
            e = rng.randrange(len(columns))
            if e in basis.cols:
                continue
            u = basis.solve({g: x for g, x in enumerate(columns[e]) if x})
            if not u:
                continue
            # any nonzero entry, as artificial eviction pivots on negative ones
            r = rng.choice(sorted(u))
            basis.pivot(r, e, u)
            pivots += 1
            negative += u[r] < 0
            inverse = _inverse([[columns[j][g] for j in basis.cols] for g in range(m)])
            for i, (row, den) in enumerate(zip(basis.rows, basis.dens)):
                big = max(big, den)
                assert den > 0 and math.gcd(den, *row.values()) == 1 and all(row.values())
                assert [F(row.get(g, 0), den) for g in range(m)] == inverse[i]
                for key, part in (lp.RHS, 0), (lp.DLT, 1):
                    assert F(row.get(key, 0), den) == sum(
                        x * b[part] for x, b in zip(inverse[i], rhs))
            costs = {j: rng.randint(-4, 4) for j in range(len(columns))}
            Y, yden = basis.duals(costs)
            duals = [sum(costs[j] * inverse[i][g] for i, j in enumerate(basis.cols))
                     for g in range(m)]
            assert [F(Y.get(g, 0), yden) for g in range(m)] == duals
            assert F(Y.get(lp.RHS, 0), yden) == sum(y * b for y, (b, _) in zip(duals, rhs))
    assert pivots > 200 and negative > 20 and big > 20


def _certify_with(monkeypatch, perturb):
    """Run envelope._certify on arguments changed by perturb."""
    certify = envelope._certify
    monkeypatch.setattr(envelope, "_certify", lambda *args: certify(*perturb(*args)))


def _moved(P, g, h):
    """P with one unit moved from element g to element h."""
    return [p + (i == h) - (i == g) for i, p in enumerate(P)]


# table_upper at {a,b,c}: the optimum 3/4, with the uniform measure on a..d
@pytest.mark.parametrize("dual, message", [
    # one unit more on a: the total is off
    (lambda P: [P[0] + 1] + P[1:], "not a measure dominated"),
    # a unit from d to a: mu({a,b,c}) passes v there
    (lambda P: _moved(P, 3, 0), "not a measure dominated"),
    # a unit from a to d: still dominated, but mu(A) falls below the objective
    (lambda P: _moved(P, 0, 3), r"dual objective 3/4 != mu\(A\)"),
])
def test_a_perturbed_dual_is_caught(monkeypatch, table_upper, dual, message):
    _certify_with(monkeypatch, lambda C, full, a, point, D, P: (C, full, a, point, D, dual(P)))
    with pytest.raises(InternalCheckError, match=message):
        dominated_max(table_upper, "abc")


def _step(full, X, t):
    """t more on y_X and on s_g for each g in X: the rows do not change."""
    return [(X, t)] + [(full + 1 + g, t) for g in range(full.bit_length()) if X >> g & 1]


@pytest.mark.parametrize("point, message", [
    # y_{a,b} and s_a, s_b one up: the rows hold, the objective rises by v({a,b})
    (lambda full, point: point + _step(full, 0b11, 1), r"dual objective [0-9/]+ != mu\(A\) = 3/4"),
    # lam one up (lam is left out of the point where it is 0): every row is off
    (lambda full, point: point + [(full, 1)], "violates its rows"),
    # y_{a,b} and s_a, s_b one down
    (lambda full, point: point + _step(full, 0b11, -1), "negative column"),
])
def test_a_perturbed_objective_is_caught(monkeypatch, table_upper, point, message):
    _certify_with(monkeypatch, lambda C, full, a, pt, D, P: (C, full, a, point(full, pt), D, P))
    with pytest.raises(InternalCheckError, match=message):
        dominated_max(table_upper, "abc")


def test_unperturbed_certificates_pass(monkeypatch, table_upper):
    _certify_with(monkeypatch, lambda *args: args)
    assert dominated_max(table_upper, "abc")[0] == F(3, 4)
