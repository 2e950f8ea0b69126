"""Exact rational linear constraint solving.

A system is nothing but its rows: equalities (=), weak (>=) and strict (>)
inequalities over named variables, every one of them >= 0 (the probability
masses and dominated measures this package solves for).  Each row is
sparse, a map from variable name to nonzero coefficient; a variable the
row leaves out has coefficient 0.  The objective is not part of the
system but an argument of optimize(system, objective, direction), so one
system serves both a minimum and a maximum.  Feasibility and optimization
are decided exactly: a tableau simplex, Dantzig pivoting with a switch to
Bland's rule to guarantee termination.

Each system has one tableau, built the first time feasible or optimize
needs it and cached on the system: phase_one drives the artificial columns
out of the basis and, when the system has strict rows, _run maximizes
delta (below).  feasible reads its point off that tableau.  Each optimize
runs the same _run on a copy of it, so its answer does not depend on the
calls made before; a minimum and a maximum, or the many objectives of one
polytope, share one phase 1.  Tableau rows are never changed in place,
only replaced, so a copy shares them.

Column j of the tableau is variable j of the system, and delta, when there
is one, is the column after the last variable.  The tableau is
fraction-free and sparse: each row is a map from column to nonzero Python
int over one positive denominator, built straight from its constraint's
map as its numerators over the lcm of its denominators; the right-hand
side is the entry at column RHS.  A pivot divides the pivot row by the
pivot entry, which only sets the row's denominator to the pivot
numerator; every other row with a nonzero entry in the entering column
becomes num*P - F*p over den*P (P the pivot row's denominator, F the row's
entry, p the pivot row), and each changed row is divided by the gcd of its
entries and denominator, in the style of Bareiss elimination.  The cost
row is held the same way, so Dantzig's choice compares numerators and the
ratio test cross-multiplies; ties go to the lowest column and, in the
ratio test, to the lowest basic column.  Every comparison is exact, so the
pivots, points and rays are those of a dense tableau of Fractions; points,
rays and values leave as Fractions.

The simplex starts from a basis of one column per row.  A row a.x <= b
with b >= 0, and a row a.x >= b with b <= 0 (negated to -a.x <= -b),
starts on its own slack, so every homogeneous row a.x >= 0 or
a.x - delta >= 0 costs no phase-1 work.  Only a row a.x >= b with b > 0,
or an equality, starts on an artificial column that phase 1 must drive
to zero; an equality has no slack, so a = row is one tableau row where a
pair of >= rows would be two.  Pivots touch only the nonzero columns of
the pivot row.

Strict inequalities are honored by the slack method: each row c.x > b is
rewritten as c.x - delta >= b for a single fresh delta >= 0, delta <= 1,
and delta is maximized; the original system is strictly feasible iff the
optimum has delta > 0.  The optimum of an objective over the closure is
attained iff delta > 0 somewhere on the optimal face.  At an optimal
tableau the face is the set of feasible points with every column of
negative reduced cost at zero, so optimize, on the same copy, maximizes
delta with those columns banned from entering.

Basis is the other simplex here, for a revised simplex whose caller
prices its own columns (envelope.dominated_max): only the m basic columns
are kept, as an exact integer inverse M / D, and a pivot is one Bareiss
step on M.  Both loops leave Dantzig's rule for Bland's after the same
number of pivots (bland_after).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .errors import InputError, InternalCheckError

class Relation(Enum):
    EQ = "="
    GE = ">="
    GT = ">"


class Direction(Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Constraint:
    coeffs: Mapping[str, Fraction]  # variable -> nonzero coefficient
    rel: Relation
    bound: Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Rows c.x = b, c.x >= b or c.x > b over the named variables, each of
    them >= 0.  A free quantity would be the difference of two variables.
    With no variables, every row is a constant comparison 0 rel b.
    """

    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if len(self._columns) != len(self.variables):
            raise InputError("duplicate variable name")
        for c in self.constraints:
            _check_names(self._columns, c.coeffs, "constraint")

    @cached_property
    def _columns(self) -> dict[str, int]:
        """The tableau column of each variable: its place in `variables`."""
        return {v: j for j, v in enumerate(self.variables)}

    @cached_property
    def _tableau(self) -> Optional[_Simplex]:
        """_phase_one(self), built once: feasible reads it, optimize copies it."""
        return _phase_one(self)


def _check_names(columns: Mapping, names: Mapping, what: str) -> None:
    if not columns.keys() >= names.keys():
        unknown = sorted(names.keys() - columns.keys())
        raise InputError(f"{what} names unknown variables: {unknown}")


class Verdict(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPOutcome:
    verdict: Verdict
    point: Optional[dict] = None
    value: Optional[Fraction] = None
    attained: bool = True
    direction: Optional[dict] = None  # improving ray, when UNBOUNDED


def make_system(
    variables: Sequence[str],
    constraints: Sequence[tuple[Mapping[str, Fraction], Relation, Fraction]],
) -> LinearSystem:
    return LinearSystem(
        variables=tuple(variables),
        constraints=tuple(
            Constraint(_fractions(co), rel, Fraction(b)) for co, rel, b in constraints
        ),
    )


def _fractions(coeffs: Mapping) -> dict[str, Fraction]:
    """The nonzero entries of coeffs, as Fractions."""
    # Fraction(x) of a Fraction builds a new one; most entries already are
    return {v: x if type(x) is Fraction else Fraction(x)
            for v, x in coeffs.items() if x}


# ---------------------------------------------------------------------------
# Core simplex: maximize c.x subject to rows a.x rel b with
# rel in {"<=", ">=", "="}, x >= 0.

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}

RHS = -1  # the column of a tableau row's right-hand side


def _integers(row: Mapping) -> tuple[dict, int]:
    """The nonzero entries of a sparse {column: int or Fraction} row, as
    {column: int} over the lcm of their denominators."""
    ratios = [x.as_integer_ratio() for x in row.values()]
    den = lcm(*[d for n, d in ratios if n])
    return {j: n * (den // d) for j, (n, d) in zip(row, ratios) if n}, den


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
    (gcd(D[i], *T[i].values()) == 1), with the right-hand side at column
    RHS.  The cost row is held the same way.  Comparisons on these rows
    are exact, so the pivot sequence is that of a tableau of Fractions.
    Rows are replaced, never changed in place, so copy() shares them.
    """

    def __init__(self, n: int, rows: list[tuple[Mapping, str]]):
        # Rows are (a, rel) over columns 0..n-1, with b at column RHS.
        # Normalize rows to rhs >= 0, assign slack/surplus/artificial columns.
        # A ">=" row with rhs 0 is flipped too: as "<=" its slack is a
        # feasible starting basic variable, so it needs no artificial.
        # Entries are ints or Fractions; each row is scaled to integers by
        # the lcm of its denominators, which is already in lowest terms.
        self.n_struct = n
        body: list[dict] = []
        dens: list[int] = []
        kinds: list[str] = []
        for a, rel in rows:
            nums, den = _integers(a)
            rhs = nums.get(RHS, 0)
            if rhs < 0 or (rhs == 0 and rel == ">="):
                nums = {j: -x for j, x in nums.items()}
                rel = _FLIP[rel]
            body.append(nums)
            dens.append(den)
            kinds.append(rel)
        self.m = len(body)
        self.ncols = n + sum(1 for k in kinds if k != "=")
        self.total = self.ncols + sum(1 for k in kinds if k != "<=")
        basis: list[int] = []
        art_cols: list[int] = []
        slack_at, art_at = n, self.ncols
        for row, den, kind in zip(body, dens, kinds):
            if kind == "<=":
                row[slack_at] = den
                basis.append(slack_at)
                slack_at += 1
                continue
            if kind == ">=":
                row[slack_at] = -den
                slack_at += 1
            row[art_at] = den
            basis.append(art_at)
            art_cols.append(art_at)
            art_at += 1
        self.T = body
        self.D = dens
        self.basis = basis
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

    def _run(self, c: dict, cden: int, banned: set) -> str:
        """Maximize c / cden over the current tableau, never entering a
        banned column.  Returns 'optimal' (the final cost row is left in
        self.costs) or 'unbounded'."""
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
                if cj > 0 and j != RHS and j not in banned:
                    if bland:
                        if e < 0 or j < e:
                            e = j
                    elif cj > best or (cj == best and j < e):
                        best = cj
                        e = j
            if e < 0:
                self.costs = costs
                return "optimal"
            # ratio test: rhs_i / a_i, the row denominators cancel
            r = -1
            for i in range(self.m):
                a = T[i].get(e, 0)
                if a > 0:
                    b = T[i].get(RHS, 0)
                    if r < 0:
                        r, rb, ra = i, b, a
                        continue
                    lhs, rhs = b * ra, rb * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                        r, rb, ra = i, b, a
            if r < 0:
                self._unbounded_col = e
                return "unbounded"
            costs, den = _eliminate(costs, den, e, *self._pivot(r, e))

    def phase_one(self) -> bool:
        """Drive the artificial columns out of the basis; False when the
        rows have no solution."""
        if self.art_cols:
            status = self._run(dict.fromkeys(self.art_cols, -1), 1, banned=set())
            if status != "optimal":
                raise InternalCheckError("phase 1 cannot be unbounded")
            # every rhs is >= 0, so the residual is 0 iff each term is
            if any(self.T[i].get(RHS) for i in range(self.m)
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
        x = [Fraction(0)] * self.total
        for i, b in enumerate(self.basis):
            x[b] = Fraction(self.T[i].get(RHS, 0), self.D[i])
        return x[: self.n_struct]

    def ray(self) -> list[Fraction]:
        """Improving direction over structural columns after 'unbounded'."""
        e = self._unbounded_col
        d = [Fraction(0)] * self.total
        d[e] = Fraction(1)
        for i, b in enumerate(self.basis):
            d[b] = Fraction(-self.T[i].get(e, 0), self.D[i])
        return d[: self.n_struct]


_HOLDS = {Relation.EQ: operator.eq, Relation.GE: operator.ge, Relation.GT: operator.gt}


def _check_point(sys: LinearSystem, point: dict) -> None:
    """Raise InternalCheckError unless point is >= 0 and satisfies every row
    of sys.  Exact in integers: the point is put over its common
    denominator once, each row over the lcm of its coefficients' and
    bound's denominators."""
    den = lcm(*[x.denominator for x in point.values()])
    nums = {v: x.numerator * (den // x.denominator) for v, x in point.items()}
    for v, x in nums.items():
        if x < 0:
            raise InternalCheckError(f"solver returned negative {v}")
    for c in sys.constraints:
        b = c.bound
        row_den = lcm(b.denominator, *[a.denominator for a in c.coeffs.values()])
        lhs = sum(a.numerator * (row_den // a.denominator) * nums[v]
                  for v, a in c.coeffs.items())
        rhs = b.numerator * (row_den // b.denominator) * den
        if not _HOLDS[c.rel](lhs, rhs):
            raise InternalCheckError(
                f"solver returned a point violating {c.coeffs} {c.rel.value} {c.bound}"
            )


# the simplex's relation for each row of the weak relaxation
_WEAK = {Relation.EQ: "=", Relation.GE: ">=", Relation.GT: ">="}


def _phase_one(sys: LinearSystem) -> Optional[_Simplex]:
    """sys's tableau after phase 1 and, with strict rows, the delta
    maximization; None when sys, strictness honored, is infeasible."""
    delta = len(sys.variables)  # delta's column, when sys has strict rows
    cols = sys._columns
    rows = []
    for c in sys.constraints:
        row = {cols[v]: x for v, x in c.coeffs.items()}
        if c.rel is Relation.GT:
            row[delta] = -1
        row[RHS] = c.bound
        rows.append((row, _WEAK[c.rel]))
    strict = any(c.rel is Relation.GT for c in sys.constraints)
    if strict:  # 0 <= delta <= 1
        rows.append(({delta: -1, RHS: -1}, ">="))
    sx = _Simplex(delta + strict, rows)
    if not sx.phase_one():
        return None
    if strict:
        if sx._run({delta: 1}, 1, banned=sx.art_cols) == "unbounded":
            raise InternalCheckError("delta objective is bounded by construction")
        if sx._point()[delta] == 0:
            return None
    return sx


def feasible(sys: LinearSystem) -> LPOutcome:
    """Exact feasibility of sys, strict rows honored strictly."""
    sx = sys._tableau
    if sx is None:
        return LPOutcome(Verdict.INFEASIBLE)
    point = dict(zip(sys.variables, sx._point()))
    _check_point(sys, point)
    return LPOutcome(Verdict.FEASIBLE, point=point)


def optimize(
    sys: LinearSystem,
    objective: Mapping[str, Fraction],
    direction: Direction,
) -> LPOutcome:
    """Exact optimum of the objective (a sparse row, like a constraint's
    coefficients) over the closure of the feasible set of sys.

    attained=False marks an optimum approached only in the limit of the
    strict constraints (the point is then omitted).  INFEASIBLE when the
    system, with strictness honored, has no solution.
    """
    objective = _fractions(objective)
    cols = sys._columns
    _check_names(cols, objective, "objective")
    built = sys._tableau
    if built is None:
        return LPOutcome(Verdict.INFEASIBLE)
    sign = 1 if direction is Direction.MAX else -1
    c, cden = _integers({cols[v]: sign * x for v, x in objective.items()})
    sx = built.copy()
    if sx._run(c, cden, banned=sx.art_cols) == "unbounded":
        return LPOutcome(Verdict.UNBOUNDED, direction=dict(zip(sys.variables, sx.ray())))
    internal = sx._point()
    value = sign * sum((x * internal[j] for j, x in c.items()), Fraction(0)) / cden
    delta = len(sys.variables)
    if sx.n_struct > delta:  # sys has strict rows, and delta a column
        # attained iff delta > 0 on the optimal face: the columns of
        # negative reduced cost stay at zero
        face = sx.art_cols | {j for j, d in sx.costs.items() if d < 0}
        sx._run({delta: 1}, 1, banned=face)
        internal = sx._point()
        if internal[delta] == 0:
            return LPOutcome(Verdict.OPTIMAL, point=None, value=value, attained=False)
    point = dict(zip(sys.variables, internal))
    _check_point(sys, point)
    return LPOutcome(Verdict.OPTIMAL, point=point, value=value, attained=True)
