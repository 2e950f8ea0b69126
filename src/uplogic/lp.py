"""Exact rational linear constraint solving.

A system is nothing but its rows over the columns 0..n-1, one per
variable, every one of them >= 0 (the probability masses and dominated
measures this package solves for): equalities (=), weak (>=) and strict
(>) inequalities.  Each row is stated once, in integers (Constraint): a
sparse map from column to nonzero int, an int bound and one positive
denominator, the lcm of the row's denominators.  The objective is not
part of the system but an argument of optimize(system, objective,
direction), a sparse int row over its own denominator, so one system
serves both a minimum and a maximum.  Feasibility and optimization are
decided exactly.  A point leaves the simplex only through Basis.values:
its nonzero basic columns, at most one per row, as numerators over one
denominator, checked against the system's rows in integers (_check_point)
before any Fraction is made.

Every LP here, the solver's and envelope.dominated_max's, runs on one
revised simplex (Chvatal, Linear Programming, 1983), Basis, which keeps
only B^-1, the inverse of the basic columns: row i is a sparse map from
row index to nonzero Python int over one positive denominator, in lowest
terms, and carries row i of B^-1 b, the i-th basic column's value, at the
keys RHS and DLT (below).  The caller prices its own columns from the
duals y = c_B B^-1, built once per run and then updated with the new
pivot row at each pivot: it lists c_j - y a_j, times y's denominator,
at the index j of each column that may enter, and Basis.run enters the
largest.  A pivot on u = B^-1 a, a the entering column, divides row r by
u_r, which only sets its denominator to u_r's numerator, and every other
row with u_i != 0 becomes num*P - F*p over den*P (P the new row r's
denominator, p its entries, F u_i's numerator), divided by the gcd of
its entries and denominator, in the style of Bareiss elimination; the
rows with u_i = 0 are not touched.  Dantzig's rule leaves for Bland's,
the lowest improving column, after bland_after pivots; ties go to the
lowest column and, in the ratio test, to the lower delta part and then
the lowest basic column.  Every comparison is exact, so the pivots and
points are those of the dense tableau B^-1 A of Fractions.

A system's LP (_SystemLP) reads its columns off the system's rows and
copies none.  Column j is the system's; each row but an equality has a
slack column, the single entry -den, and starts on it iff its
right-hand side (below) is <= 0: its starting row of B^-1 is then {i: -1}
over den, the row negated to -a.x <= -b, so a homogeneous row a.x >= 0
costs no phase-1 work.  Every other row starts on an artificial column
that phase 1 drives to zero, the single entry den, or -den for an
equality with b < 0.  One product y A, row by row over the rows where
y is nonzero, serves pricing (y the duals) and, after phase 1, the
eviction of each basic artificial (y its row of B^-1): it is pivoted out
on the lowest non-artificial column nonzero in its row of B^-1 A, a
structural one, else the slack of the lowest row in it; a row with none is
redundant, and its artificial stays basic at zero, since its u_i is 0
for every entering column.  A system's basis after phase 1 is built once
and cached on it: feasible reads its point off it, and each optimize
runs on a copy, so a minimum and a maximum, or the many objectives of one
polytope, share one phase 1.  Rows of B^-1 are never changed in place,
only replaced, so a copy shares them.  Every system this package builds
is bounded, so a run that finds no optimum raises InternalCheckError.

Strict rows are held as delta-rationals (Dutertre and de Moura, CAV
2006): a right-hand side is a pair b + k*delta for an infinitesimal
delta > 0, its real part at RHS and its delta part at DLT, and a strict
row c.x > b over den is c.x >= b + den*delta, weak with no extra column.
The ratio test compares pairs lexicographically, real parts first, so
the simplex runs on the system with every strict row tightened by one
small eps > 0, for all small enough eps at once.  The strict system is
feasible iff some such tightening is, so phase 1 alone decides it: it
is infeasible iff a basic artificial keeps a nonzero pair.  The optimum
of an objective over the tightened system is v + k*eps, read off the
duals, which carry c_B B^-1 b at RHS and DLT: v is the optimum over the
closure, and it is attained with every strict row strict iff k = 0, since
an attaining point satisfies some tightening, on which the optimum is
then v.  A point is read at the largest eps <= 1 that keeps every basic
column >= 0, which is > 0.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InputError, InternalCheckError
from .record import Record

class Relation(Enum):
    EQ = "="
    GE = ">="
    GT = ">"


class Direction(Enum):
    MIN = "min"
    MAX = "max"


class Constraint(NamedTuple):
    """The row coeffs.x / den rel bound / den: coeffs maps a column to its
    nonzero int numerator, and den > 0 is the lcm of the row's
    denominators."""

    coeffs: Mapping[int, int]
    rel: Relation
    bound: int
    den: int


class LinearSystem(Record):
    """Rows c.x = b, c.x >= b or c.x > b over the columns 0..n-1 (variables
    is range(n)), each of them >= 0.  A free quantity would be the
    difference of two columns.  With no columns, every row is a constant
    comparison 0 rel b.  make_system checks the rows.
    """

    __slots__ = ("variables", "constraints", "__dict__")

    def __init__(self, variables: range, constraints: tuple[Constraint, ...]):
        super().__init__(variables, constraints)

    @cached_property
    def _phase_one(self) -> Optional[_SystemLP]:
        """The LP after phase 1, built once, or None when the system has no
        solution: feasible reads its basis, optimize copies it."""
        sx = _SystemLP(self)
        return sx if sx.phase_one() else None


def _check_columns(n: int, rows: Iterable[Mapping], what: str) -> None:
    columns = set().union(*rows)
    if columns and (min(columns) < 0 or max(columns) >= n):
        unknown = sorted(j for j in columns if not 0 <= j < n)
        raise InputError(f"{what} names unknown columns: {unknown}")


class Verdict(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    OPTIMAL = "optimal"


class LPOutcome(Record):
    """point: column -> value, the nonzero columns only (Basis.values)."""

    __slots__ = ("verdict", "point", "value", "attained")

    def __init__(self, verdict: Verdict, point: Optional[dict[int, Fraction]] = None,
                 value: Optional[Fraction] = None, attained: bool = True):
        super().__init__(verdict, point, value, attained)


def make_system(n: int, constraints: Iterable[Constraint]) -> LinearSystem:
    """The system of the rows over the columns 0..n-1; zero entries are
    dropped."""
    rows = []
    for c in constraints:
        if 0 in c.coeffs.values():
            c = c._replace(coeffs={j: x for j, x in c.coeffs.items() if x})
        if c.den <= 0:
            raise InputError(f"row denominator {c.den} is not positive")
        rows.append(c)
    _check_columns(n, [c.coeffs for c in rows], "constraint")
    return LinearSystem(range(n), tuple(rows))


# ---------------------------------------------------------------------------
# The revised simplex: maximize c.x subject to A x = b, x >= 0.

RHS = -1  # the key of a right-hand side's real part
DLT = -2  # and of its delta part, the coefficient of an infinitesimal delta > 0


def _reduce(row: dict, den: int) -> tuple[dict, int]:
    """row / den in lowest terms: divide numerators and den by their gcd."""
    if den == 1:
        return row, den
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: x // g for j, x in row.items()}, den // g


def _axpy(row: dict, s: int, f: int, other) -> dict:
    """A new row s*row - f*other, other given as (column, entry) pairs and
    f nonzero; zero entries are dropped."""
    out = {j: x * s for j, x in row.items()} if s != 1 else dict(row)
    for j, y in other:
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]  # f*y != 0, so the entry was there
    return out


def bland_after(rows: int, columns: int) -> int:
    """The pivots after which a run leaves Dantzig's rule for Bland's,
    which cannot cycle."""
    return 20 * (rows + columns + 10)


class Basis:
    """A basis of the revised simplex: cols[i] is the column basic at
    position i, and rows[i] / dens[i] is row i of B^-1, with row i of
    B^-1 b at RHS and DLT.  A column is a sparse map from row to int entry;
    what the columns stand for, and their costs, are the caller's."""

    def __init__(self, cols: list[int], start: Sequence[tuple[dict, int, int, int]],
                 columns: int):
        """The basis of cols among `columns` columns: start[i] = (row, den,
        b, k) is row i of B^-1, row / den with row a sparse int map whose
        entries have no common factor with den, and the value
        (b + k*delta) / den of cols[i]."""
        self.cols, self.rows, self.dens = cols, [], []
        for row, den, b, k in start:
            row = dict(row)
            if b:
                row[RHS] = b
            if k:
                row[DLT] = k
            self.rows.append(row)
            self.dens.append(den)
        self.dantzig = bland_after(len(cols), columns)

    def copy(self) -> Basis:
        """A basis to pivot on that leaves this one as it is."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.rows, other.dens, other.cols = list(self.rows), list(self.dens), list(self.cols)
        return other

    def solve(self, column: Mapping[int, int]) -> dict[int, int]:
        """u = B^-1 a for the column a, as {position: numerator over that
        position's denominator}, nonzero entries only."""
        u = {}
        get = column.get
        for i, row in enumerate(self.rows):
            x = 0
            for g, y in row.items():  # RHS and DLT are no row of a column
                a = get(g)
                if a:
                    x += a * y
            if x:
                u[i] = x
        return u

    def pivot(self, r: int, e: int, u: Mapping[int, int]) -> tuple[list, int]:
        """Make column e basic at position r, for u = solve(column e) and
        u[r] != 0; returns the new row r's nonzero entries and denominator."""
        rows, dens = self.rows, self.dens
        prow, piv = rows[r], u[r]
        if piv < 0:
            prow, piv = {j: -x for j, x in prow.items()}, -piv
        prow, piv = _reduce(prow, piv)
        rows[r], dens[r] = prow, piv
        nz = list(prow.items())
        for i, f in u.items():
            if i != r:
                rows[i], dens[i] = _reduce(_axpy(rows[i], piv, f, nz), dens[i] * piv)
        self.cols[r] = e
        return nz, piv

    def duals(self, cost: Mapping[int, int]) -> tuple[dict, int]:
        """c_B B^-1 for the int costs of the columns, as a sparse row over
        one denominator, with c_B B^-1 b at RHS and DLT."""
        Y, den = {}, 1
        for i, j in enumerate(self.cols):
            c = cost.get(j)
            if c:
                d = self.dens[i]
                Y, den = _reduce(_axpy(Y, d, -c * den, self.rows[i].items()), den * d)
        return Y, den

    def _leaving(self, u: Mapping[int, int], free: int) -> int:
        """The ratio test: the position of the least ratio (b, k) / u_i over
        u_i > 0, pairs compared lexicographically, ties to the lowest basic
        column; -1 when no row bounds the entering column."""
        rows, cols = self.rows, self.cols
        r = -1
        for i, a in u.items():
            if a > 0 and cols[i] != free:
                b = rows[i].get(RHS, 0)  # the denominators cancel
                if r < 0:
                    r, rb, ra = i, b, a
                    continue
                lhs, rhs = b * ra, rb * a
                if lhs == rhs:
                    lhs, rhs = rows[i].get(DLT, 0) * ra, rows[r].get(DLT, 0) * a
                if lhs < rhs or (lhs == rhs and cols[i] < cols[r]):
                    r, rb, ra = i, b, a
        return r

    def run(self, cost: Mapping[int, int], price: Callable[[dict, int], list],
            column: Callable[[int], Mapping[int, int]], free: int = -1
            ) -> Optional[tuple[dict, int]]:
        """Maximize an objective; returns its duals (duals()) at the
        optimum, or None when it is unbounded.

        cost holds the int cost of every column basic at the start, from
        which the duals are built once.  price(Y, yden) lists c_j yden -
        Y a_j, the reduced cost times yden, at the index j of each column
        that may enter; column(j) gives column j.  The column free is
        unbounded below, so it never leaves the basis."""
        Y, den = self.duals(cost)
        pivots = 0
        while True:
            N = price(Y, den)
            best = max(N, default=0)
            if best <= 0:
                return Y, den
            if pivots >= self.dantzig:  # Bland's rule: the lowest improving column
                e = next(j for j, d in enumerate(N) if d > 0)
            else:  # Dantzig's: the largest reduced cost, then the lowest column
                e = N.index(best)
            u = self.solve(column(e))
            r = self._leaving(u, free)
            if r < 0:
                return None
            nz, piv = self.pivot(r, e, u)
            # y gains the reduced cost of e times the new row r of B^-1
            Y, den = _reduce(_axpy(Y, piv, -N[e], nz), den * piv)
            pivots += 1

    def values(self, n: int) -> tuple[int, dict[int, int]]:
        """The point (den, nums): basic column j below n is nums[j] / den at
        delta = eps = en / ed, the largest eps <= 1 that keeps every basic
        column >= 0; zero values are left out, and den > 0 is one common
        denominator, in lowest terms."""
        en, ed = 1, 1
        for row in self.rows:
            k = row.get(DLT, 0)
            if k < 0 and row.get(RHS, 0) * ed < en * -k:
                en, ed = row.get(RHS, 0), -k
        if en <= 0:
            raise InternalCheckError(f"a basic column is negative at every delta > 0: {en}/{ed}")
        # each value (b ed + en k) / (den ed), over the lcm of the dens
        point = [(j, row.get(RHS, 0) * ed + en * row.get(DLT, 0), den)
                 for j, row, den in zip(self.cols, self.rows, self.dens) if j < n]
        L = lcm(*[den for _, x, den in point if x])
        nums, den = _reduce({j: x * (L // den) for j, x, den in point if x}, L * ed)
        return den, nums


class _SystemLP:
    """The LP of a system, and its basis after phase 1: columns 0..n-1 are
    the system's, then come the slack columns and then the artificial
    ones, each in row order.  units[t] is (row, entry) of column n + t."""

    def __init__(self, sys: LinearSystem):
        n, rows = len(sys.variables), sys.constraints
        self.n, self.rows = n, rows
        self.first_art = art_at = n + sum(c.rel is not Relation.EQ for c in rows)
        self.units: list[tuple[int, int]] = []
        arts, starts, inverse = [], [], []
        for g, c in enumerate(rows):
            # the right-hand side (b, den) of a strict row, (b, 0) else; the
            # starting column's entry is -den iff that pair is < (0, 0) or
            # the row starts on its slack, so that its value is >= (0, 0)
            eq, k = c.rel is Relation.EQ, c.den if c.rel is Relation.GT else 0
            flip = c.bound < 0 or (c.bound == 0 and not eq and not k)
            s = -1 if flip else 1
            inverse.append(({g: s}, c.den, s * c.bound, s * k))
            if not eq:
                self.units.append((g, -c.den))
            if flip and not eq:
                starts.append(n + len(self.units) - 1)
            else:
                starts.append(art_at + len(arts))
                arts.append((g, s * c.den))
        self.units += arts
        self.total = n + len(self.units)
        self.art_cols = set(range(art_at, self.total))
        self.basis = Basis(starts, inverse, self.total)

    def column(self, j: int) -> dict[int, int]:
        if j < self.n:
            return {g: c.coeffs[j] for g, c in enumerate(self.rows) if j in c.coeffs}
        return dict([self.units[j - self.n]])

    def minus_yA(self, Y: Mapping[int, int], out: list) -> list:
        """out, less yA in place over its columns 0..len(out)-1: y is Y
        but for RHS and DLT, read row by row over the rows where it is nonzero."""
        for g, y in Y.items():
            if g >= 0:
                for j, a in self.rows[g].coeffs.items():
                    out[j] -= y * a
        for j, (g, a) in enumerate(self.units[:len(out) - self.n], self.n):
            y = Y.get(g)
            if y:
                out[j] -= y * a
        return out

    def maximize(self, basis: Basis, cost: dict[int, int],
                 artificial: bool = False) -> tuple[dict, int]:
        """basis.run on the int costs cost, pricing the columns below
        first_art, and in phase 1 (artificial) the artificial ones too;
        raises InternalCheckError when the objective is unbounded."""
        m = self.total if artificial else self.first_art

        def price(Y: dict, den: int) -> list:
            N = [0] * m
            for j, c in cost.items():
                N[j] = c * den
            return self.minus_yA(Y, N)

        out = basis.run(cost, price, self.column)
        if out is None:
            raise InternalCheckError("the objective is unbounded")
        return out

    def phase_one(self) -> bool:
        """Drive the artificial columns out of the basis; False when the
        rows, strict ones strictly, have no solution."""
        if self.art_cols:
            Y, _ = self.maximize(self.basis, dict.fromkeys(self.art_cols, -1), True)
            # minus the sum of the artificials' pairs, each >= (0, 0): zero
            # iff each of them is
            if RHS in Y or DLT in Y:
                return False
            self._evict_artificials()
        return True

    def _evict_artificials(self) -> None:
        basis = self.basis
        redundant = 0
        for i, b in enumerate(basis.cols):
            if b >= self.first_art:
                # the lowest non-artificial column nonzero in row i of B^-1 A:
                # a structural one, else the slack of the lowest row in it
                T = self.minus_yA(basis.rows[i], [0] * self.first_art)
                e = next((j for j, x in enumerate(T) if x), -1)
                if e >= 0:
                    basis.pivot(i, e, basis.solve(self.column(e)))
                else:
                    redundant += 1
        if redundant:
            basis.dantzig = bland_after(len(self.rows) - redundant, self.total)


_HOLDS = {Relation.EQ: operator.eq, Relation.GE: operator.ge, Relation.GT: operator.gt}


def _check_point(sys: LinearSystem, den: int, nums: Mapping[int, int]) -> None:
    """Raise InternalCheckError unless the point nums / den (Basis.values:
    column -> numerator over den > 0, a column not named is 0) names only
    columns of sys, is >= 0 and satisfies every row of sys.  Exact in
    integers: a row coeffs.x rel bound, over its own denominator, holds
    iff coeffs.nums rel bound * den."""
    for j, x in nums.items():
        if j not in sys.variables:
            raise InternalCheckError(f"solver returned column {j} outside the system")
        if x < 0:
            raise InternalCheckError(f"solver returned negative column {j}")
    for c in sys.constraints:  # over the point's columns, at most one per row
        co = c.coeffs
        lhs = sum([co[j] * x for j, x in nums.items() if j in co])
        if not _HOLDS[c.rel](lhs, c.bound * den):
            raise InternalCheckError(
                f"solver returned a point violating {c.coeffs} {c.rel.value} {c.bound}"
                f" over {c.den}")


def feasible(sys: LinearSystem) -> LPOutcome:
    """Exact feasibility of sys, strict rows honored strictly."""
    sx = sys._phase_one
    if sx is None:
        return LPOutcome(Verdict.INFEASIBLE)
    den, nums = sx.basis.values(sx.n)
    _check_point(sys, den, nums)
    return LPOutcome(Verdict.FEASIBLE, point={j: Fraction(x, den) for j, x in nums.items()})


def optimize(
    sys: LinearSystem,
    objective: tuple[Mapping[int, int], int],
    direction: Direction,
) -> LPOutcome:
    """Exact optimum of the objective (coeffs, den), the sparse int row
    coeffs over den > 0, over the closure of the feasible set of sys.

    attained=False marks an optimum approached only in the limit of the
    strict constraints (the point is then omitted).  INFEASIBLE when the
    system, with strictness honored, has no solution.
    """
    coeffs, den = objective
    _check_columns(len(sys.variables), [coeffs], "objective")
    if den <= 0:
        raise InputError(f"objective denominator {den} is not positive")
    sx = sys._phase_one
    if sx is None:
        return LPOutcome(Verdict.INFEASIBLE)
    sign = 1 if direction is Direction.MAX else -1
    basis = sx.basis.copy()
    Y, yden = sx.maximize(basis, {j: sign * x for j, x in coeffs.items() if x})
    # the optimum of sign * objective is v + k*delta: c_B B^-1 b over den
    value = Fraction(sign * Y.get(RHS, 0), yden * den)
    if DLT in Y:
        return LPOutcome(Verdict.OPTIMAL, point=None, value=value, attained=False)
    pden, nums = basis.values(sx.n)
    _check_point(sys, pden, nums)
    at = sum([x * nums.get(j, 0) for j, x in coeffs.items()])  # over den * pden
    if at * yden != sign * Y.get(RHS, 0) * pden:
        raise InternalCheckError(f"optimum {value} is not the objective at the point returned")
    return LPOutcome(Verdict.OPTIMAL, point={j: Fraction(x, pden) for j, x in nums.items()},
                     value=value, attained=True)
