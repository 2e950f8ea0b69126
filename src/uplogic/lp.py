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
decided exactly: a tableau simplex, Dantzig pivoting with a switch to
Bland's rule to guarantee termination.  Each point it returns is checked
against the system's rows, in integers too.

Each system has one tableau, built the first time feasible or optimize
needs it and cached on the system: phase_one drives the artificial columns
out of the basis, and that alone decides the system, strict rows
included (below).  feasible reads its point off that tableau.  Each
optimize runs the same _run on a copy of it, so its answer does not
depend on the calls made before; a minimum and a maximum, or the many
objectives of one polytope, share one phase 1.  Tableau rows are never
changed in place, only replaced, so a copy shares them; the tableau's
first rows are copies of the system's, which stay as they are.

Column j of the tableau is column j of the system.  The tableau is
fraction-free and sparse: each row is a map from column to nonzero Python
int over one positive denominator, at first the system row's own (its
slack entry); the right-hand side is the entries at RHS and DLT (below).
A pivot divides the pivot row by the pivot entry, which only sets the row's
denominator to the pivot numerator; every other row with a nonzero entry
in the entering column becomes num*P - F*p over den*P (P the pivot row's
denominator, F the row's entry, p the pivot row), and each changed row is
divided by the gcd of its entries and denominator, in the style of
Bareiss elimination.  The cost row is held the same way, so
Dantzig's choice compares numerators and the ratio test cross-multiplies;
ties go to the lowest column and, in the ratio test, to the lower delta
part and then the lowest basic column.  Every comparison is exact, so the pivots and points are those of
a dense tableau of Fractions; points and values leave as Fractions.

The simplex starts from a basis of one column per row.  A row a.x <= b
with b >= 0, and a row a.x >= b with b <= 0 (negated to -a.x <= -b),
starts on its own slack, so every homogeneous row a.x >= 0 costs no
phase-1 work.  Only a row a.x >= b with b > 0, a strict row a.x > b with
b >= 0, or an equality, starts on an artificial column that phase 1 must
drive to zero; an equality has no slack, so a = row is one tableau row
where a pair of >= rows would be two.  Pivots touch only the nonzero
columns of the pivot row.  Every system this package builds is bounded,
so a _run that finds no optimum raises InternalCheckError.

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
cost row: v is the optimum over the closure, and it is attained with
every strict row strict iff k = 0, since an attaining point satisfies
some tightening, on which the optimum is then v.  A point is read at
the largest eps <= 1 that keeps every basic column >= 0, which is > 0.

Basis is the other simplex here, for a revised simplex whose caller
prices its own columns (envelope.dominated_max): only the m basic columns
are kept, as an exact integer inverse M / D, and a pivot is one Bareiss
step on M.  Both loops leave Dantzig's rule for Bland's after the same
number of pivots (bland_after).
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
    def _tableau(self) -> Optional[_Simplex]:
        """The tableau after phase 1, built once, or None when the system has
        no solution: feasible reads it, optimize copies it."""
        sx = _Simplex(self)
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
    """point: the value of each column."""

    __slots__ = ("verdict", "point", "value", "attained")

    def __init__(self, verdict: Verdict, point: Optional[list[Fraction]] = None,
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
# Core simplex: maximize c.x subject to rows a.x rel b with
# rel in {"<=", ">=", "="}, x >= 0.

RHS = -1  # the column of a tableau row's right-hand side: its real part
DLT = -2  # and its delta part, the coefficient of an infinitesimal delta > 0


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


def _eliminate(row: dict, den: int, e: int, nz: list, piv_den: int):
    """Subtract row[e]/den times the pivot row from row/den.

    The pivot row is given by its nonzero entries nz over piv_den; its entry
    in column e is piv_den, so column e of the result is zero.  Returns the
    new (row, den) in lowest terms."""
    return _reduce(_axpy(row, piv_den, row[e], nz), den * piv_den)


def bland_after(rows: int, columns: int) -> int:
    """The pivots after which a simplex loop leaves Dantzig's rule for
    Bland's, which cannot cycle."""
    return 20 * (rows + columns + 10)


class Basis:
    """The basis of a revised simplex over m rows, as an exact integer
    inverse B^-1 = M / D.

    cols[i] is the column basic at position i, and M[i], a list of m ints,
    is position i's row of the inverse.  D > 0 is det B up to a sign fixed
    at the start, so M is B's adjugate up to that sign: both stay integral
    while B's columns are.  Columns and costs are given as ints; what the
    columns stand for is the caller's.
    """

    def __init__(self, M: list[list[int]], D: int, cols: list[int]):
        self.M, self.D, self.cols = M, D, cols

    def solve(self, column: Mapping[int, int]) -> list[int]:
        """u with B^-1 a = u / D, for a sparse column a (row -> entry)."""
        items = column.items()
        return [sum([row[g] * x for g, x in items]) for row in self.M]

    def duals(self, costs: Sequence[int]) -> list[int]:
        """P with c_B B^-1 = P / D, for the basic columns' costs c_B in
        position order."""
        P = [0] * len(self.M)
        for c, row in zip(costs, self.M):
            if c:
                P = [p + c * x for p, x in zip(P, row)]
        return P

    def pivot(self, r: int, col: int, u: Sequence[int]) -> None:
        """Make col basic at position r, where u = solve(col's column) and
        u[r] > 0.

        Row r of the inverse is divided by u[r] / D and every other row i
        loses u[i] / u[r] times the result, so with the new D = u[r] each
        new row is (M[i] u[r] - u[i] M[r]) / D, a Bareiss step: the
        division is exact because the new M is again an adjugate."""
        M, D, ur = self.M, self.D, u[r]
        Mr = M[r]
        for i, ui in enumerate(u):
            if i != r:
                M[i] = [(x * ur - ui * y) // D for x, y in zip(M[i], Mr)]
        self.D = ur
        self.cols[r] = col


class _Simplex:
    """Tableau simplex in exact rational arithmetic: phase_one, then _run
    for each objective.

    Row i of the tableau is T[i][j] / D[i]: a sparse map from column to
    nonzero int over one positive denominator, kept in lowest terms
    (gcd(D[i], *T[i].values()) == 1), with the right-hand side at the
    columns RHS and DLT.  The cost row is held the same way.  Comparisons on
    these rows are exact, so the pivot sequence is that of a tableau of
    Fractions.
    Rows are replaced, never changed in place, so copy() shares them.
    """

    def __init__(self, sys: LinearSystem):
        # Each row of sys, copied over its own denominator: the slack and
        # artificial entries go into the copy.  A strict row c.x > b is
        # c.x >= b + den*delta, its right-hand side the pair (b, den).  A row
        # is negated to a pair >= (0, 0); a >= or > row with a pair <= (0, 0)
        # is negated too, since as "<=" its slack is a feasible starting
        # basic variable and it needs no artificial.  Slack columns follow
        # the structural ones, and artificial columns the slacks, each in
        # row order.
        n, rows = len(sys.variables), sys.constraints
        self.n, self.m = n, len(rows)
        slack_at = n
        art_at = n + self.m - sum(c.rel is Relation.EQ for c in rows)
        self.T, self.D, self.basis, art_cols = [], [], [], []
        for c in rows:
            b, den, eq, strict = c.bound, c.den, c.rel is Relation.EQ, c.rel is Relation.GT
            flip = b < 0 or (b == 0 and not eq and not strict)
            row = {j: -x for j, x in c.coeffs.items()} if flip else dict(c.coeffs)
            if b:
                row[RHS] = -b if flip else b
            if strict:
                row[DLT] = -den if flip else den
            if not eq:
                row[slack_at] = den if flip else -den
                slack_at += 1
            if flip and not eq:  # a "<=" row starts on its slack
                self.basis.append(slack_at - 1)
            else:
                row[art_at] = den
                self.basis.append(art_at)
                art_cols.append(art_at)
                art_at += 1
            self.T.append(row)
            self.D.append(den)
        self.total = art_at
        self.art_cols = set(art_cols)

    def copy(self) -> _Simplex:
        """A tableau to pivot on that leaves this one as it is."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.T, other.D, other.basis = list(self.T), list(self.D), list(self.basis)
        return other

    def _reduced_costs(self, c: dict, cden: int) -> tuple[dict, int]:
        # cost row = c_j - sum over basic rows of c_basis * row, over one den
        costs, den = dict(c), cden
        for i, b in enumerate(self.basis):
            cb = c.get(b)
            if cb:
                s = cden * self.D[i]
                costs, den = _reduce(_axpy(costs, s, cb * den, self.T[i].items()), den * s)
        return costs, den

    def _pivot(self, r: int, e: int) -> tuple[list, int]:
        """Pivot on (r, e); returns the nonzero entries of the new pivot row
        and its denominator, for the caller's cost row."""
        T, D = self.T, self.D
        prow, piv = T[r], T[r][e]
        if piv < 0:
            prow, piv = {j: -x for j, x in prow.items()}, -piv
        prow, piv = _reduce(prow, piv)
        T[r], D[r] = prow, piv
        nz = list(prow.items())
        for i in range(self.m):
            if i != r and e in T[i]:
                T[i], D[i] = _eliminate(T[i], D[i], e, nz, piv)
        self.basis[r] = e
        return nz, piv

    def _run(self, c: dict, cden: int, banned: set) -> tuple[dict, int]:
        """Maximize c / cden over the current tableau, never entering a
        banned column; returns the final cost row and its denominator, with
        minus the optimum at RHS and DLT.  Raises InternalCheckError if c is
        unbounded: no system this package builds has an unbounded
        objective."""
        T, basis = self.T, self.basis
        costs, den = self._reduced_costs(c, cden)
        iters = 0
        dantzig = bland_after(self.m, self.total)
        while True:
            iters += 1
            bland = iters > dantzig
            e = -1
            best = 0
            for j, cj in costs.items():
                if cj > 0 and j >= 0 and j not in banned:
                    if bland:
                        if e < 0 or j < e:
                            e = j
                    elif cj > best or (cj == best and j < e):
                        best = cj
                        e = j
            if e < 0:
                return costs, den
            # ratio test: rhs_i / a_i, the row denominators cancel, delta on a tie
            r = -1
            for i in range(self.m):
                a = T[i].get(e, 0)
                if a > 0:
                    b = T[i].get(RHS, 0)
                    if r < 0:
                        r, rb, ra = i, b, a
                        continue
                    lhs, rhs = b * ra, rb * a
                    if lhs == rhs:
                        lhs, rhs = T[i].get(DLT, 0) * ra, T[r].get(DLT, 0) * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r, rb, ra = i, b, a
            if r < 0:
                raise InternalCheckError(f"column {e} enters with no leaving row: unbounded")
            costs, den = _eliminate(costs, den, e, *self._pivot(r, e))

    def phase_one(self) -> bool:
        """Drive the artificial columns out of the basis; False when the
        rows, strict ones strictly, have no solution."""
        if self.art_cols:
            self._run(dict.fromkeys(self.art_cols, -1), 1, banned=set())
            # each pair is >= (0, 0), so the residual is zero iff each term is
            if any(RHS in self.T[i] or DLT in self.T[i] for i in range(self.m)
                   if self.basis[i] in self.art_cols):
                return False
            self._evict_artificials()
        return True

    def _evict_artificials(self) -> None:
        drop: list[int] = []
        for i in range(self.m):
            if self.basis[i] in self.art_cols:
                e = min((j for j in self.T[i] if j != RHS and j not in self.art_cols),
                        default=-1)
                if e >= 0:
                    self._pivot(i, e)
                else:
                    drop.append(i)  # redundant row
        for i in reversed(drop):
            del self.T[i]
            del self.D[i]
            del self.basis[i]
            self.m -= 1

    def _point(self) -> list[Fraction]:
        """The structural columns at delta = eps = en / ed, the largest
        eps <= 1 that keeps every basic column >= 0."""
        en, ed = 1, 1
        for row in self.T:
            k = row.get(DLT, 0)
            if k < 0 and row.get(RHS, 0) * ed < en * -k:
                en, ed = row.get(RHS, 0), -k
        if en <= 0:
            raise InternalCheckError(f"a basic column is negative at every delta > 0: {en}/{ed}")
        x = [Fraction(0)] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                row = self.T[i]
                x[b] = Fraction(row.get(RHS, 0) * ed + en * row.get(DLT, 0), self.D[i] * ed)
        return x


_HOLDS = {Relation.EQ: operator.eq, Relation.GE: operator.ge, Relation.GT: operator.gt}


def _check_point(sys: LinearSystem, point: Sequence[Fraction]) -> None:
    """Raise InternalCheckError unless point (the value of each column) is
    >= 0 and satisfies every row of sys.  Exact in integers: the point is
    put over its common denominator den once, and a row coeffs.x rel bound,
    over its own denominator, holds iff coeffs.nums rel bound * den."""
    den = lcm(*[x.denominator for x in point])
    nums = [x.numerator * (den // x.denominator) for x in point]
    for j, x in enumerate(nums):
        if x < 0:
            raise InternalCheckError(f"solver returned negative column {j}")
    for c in sys.constraints:
        lhs = sum([a * nums[j] for j, a in c.coeffs.items()])
        if not _HOLDS[c.rel](lhs, c.bound * den):
            raise InternalCheckError(
                f"solver returned a point violating {c.coeffs} {c.rel.value} {c.bound}"
                f" over {c.den}")


def feasible(sys: LinearSystem) -> LPOutcome:
    """Exact feasibility of sys, strict rows honored strictly."""
    sx = sys._tableau
    if sx is None:
        return LPOutcome(Verdict.INFEASIBLE)
    point = sx._point()
    _check_point(sys, point)
    return LPOutcome(Verdict.FEASIBLE, point=point)


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
    built = sys._tableau
    if built is None:
        return LPOutcome(Verdict.INFEASIBLE)
    sign = 1 if direction is Direction.MAX else -1
    sx = built.copy()
    costs, cden = sx._run({j: sign * x for j, x in coeffs.items() if x}, den,
                          banned=sx.art_cols)
    # the optimum of sign * objective is v + k*delta with -v, -k on the cost row
    value = Fraction(-sign * costs.get(RHS, 0), cden)
    if DLT in costs:
        return LPOutcome(Verdict.OPTIMAL, point=None, value=value, attained=False)
    point = sx._point()
    _check_point(sys, point)
    if sum((x * point[j] for j, x in coeffs.items()), Fraction(0)) / den != value:
        raise InternalCheckError(f"optimum {value} is not the objective at the point returned")
    return LPOutcome(Verdict.OPTIMAL, point=point, value=value, attained=True)
