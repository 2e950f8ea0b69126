"""Exact rational linear constraint solving.

A system is nothing but its rows: equalities (=), weak (>=) and strict (>)
inequalities over named real variables.  Each row is sparse, a map from
variable name to nonzero coefficient; a variable the row leaves out has
coefficient 0.  The objective is not part of the system but an argument
of optimize(system, objective, direction), so one system serves both a
minimum and a maximum.  Feasibility and optimization are decided exactly:
a two-phase tableau simplex, Dantzig pivoting with a switch to Bland's
rule to guarantee termination.

The tableau is fraction-free: each row is a list of Python ints over one
positive denominator, built from its constraint's numerators and the lcm of
its denominators.  A pivot divides the pivot row by the pivot entry, which
only sets the row's denominator to the pivot numerator; every other row
with a nonzero entry in the entering column becomes num*P - F*p over den*P
(P the pivot row's denominator, F the row's entry, p the pivot row), and
each changed row is divided by the gcd of its entries and denominator, in
the style of Bareiss elimination.  The cost row is held the same way, so
Dantzig's choice compares numerators and the ratio test cross-multiplies.
Every comparison is exact, so the pivots, points and rays are those of a
tableau of Fractions; points, rays and values leave as Fractions.

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
optimum has delta > 0.  An optimum over a system with strict rows is
attained iff the system stays strictly feasible with the objective pinned
to its value by one = row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
    """Rows c.x = b, c.x >= b or c.x > b over the named variables.

    Variables listed in `nonneg` carry an implicit x >= 0 and are handled
    natively by the simplex (no free-variable split); all others are free.
    """

    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    nonneg: frozenset = frozenset()

    def __post_init__(self):
        if not self.variables:
            raise InputError("system must have at least one variable")
        known = frozenset(self.variables)
        if len(known) != len(self.variables):
            raise InputError("duplicate variable name")
        _check_names(known, self.nonneg, "nonneg")
        for c in self.constraints:
            _check_names(known, c.coeffs, "constraint")


def _check_names(known: frozenset, names, what: str) -> None:
    if not known.issuperset(names):
        unknown = sorted(set(names) - known)
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
    nonneg: Sequence[str] = (),
) -> LinearSystem:
    return LinearSystem(
        variables=tuple(variables),
        constraints=tuple(
            Constraint(_fractions(co), rel, Fraction(b)) for co, rel, b in constraints
        ),
        nonneg=frozenset(nonneg),
    )


def _fractions(coeffs: Mapping) -> dict[str, Fraction]:
    """The nonzero entries of coeffs, as Fractions."""
    # Fraction(x) of a Fraction builds a new one; most entries already are
    return {v: x if type(x) is Fraction else Fraction(x)
            for v, x in coeffs.items() if x}


# ---------------------------------------------------------------------------
# Core simplex on internal nonnegative variables.
#
# Internal problem: maximize c.x subject to rows (a, rel, b) with
# rel in {"<=", ">=", "="}, x >= 0.

_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def _reduce(row: list, den: int) -> tuple[list, int]:
    """row / den in lowest terms: divide numerators and den by their gcd."""
    if den == 1:
        return row, den
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _eliminate(row: list, den: int, e: int, nz: list, piv_den: int):
    """Subtract row[e]/den times the pivot row from row/den.

    The pivot row is given by its nonzero entries nz over piv_den; its entry
    in column e is piv_den, so column e of the result is zero.  Returns the
    new (row, den) in lowest terms; row is updated in place when piv_den
    is 1."""
    f = row[e]
    if piv_den != 1:
        row = [x * piv_den for x in row]
        den *= piv_den
    for j, y in nz:
        row[j] -= f * y
    return _reduce(row, den)


class _Simplex:
    """Two-phase tableau simplex in exact rational arithmetic.

    Row i of the tableau is T[i][j] / D[i]: Python ints over one positive
    denominator, kept in lowest terms (gcd(D[i], *T[i]) == 1).  The cost
    row is held the same way.  Comparisons on these rows are exact, so
    the pivot sequence is that of a tableau of Fractions.
    """

    def __init__(self, n: int, rows: list[tuple[list, str, object]], c: list):
        # Normalize rows to rhs >= 0, assign slack/surplus/artificial columns.
        # A ">=" row with rhs 0 is flipped too: as "<=" its slack is a
        # feasible starting basic variable, so it needs no artificial.
        # Entries are ints or Fractions; each row is scaled to integers by
        # the lcm of its denominators, which is already in lowest terms.
        self.n_struct = n
        body: list[list[int]] = []
        dens: list[int] = []
        kinds: list[str] = []
        for a, rel, b in rows:
            den = lcm(b.denominator, *[x.denominator for x in a if x])
            nums = [x.numerator * (den // x.denominator) if x else 0 for x in a]
            nums.append(b.numerator * (den // b.denominator))
            if nums[-1] < 0 or (nums[-1] == 0 and rel == ">="):
                nums = [-x for x in nums]
                rel = _FLIP[rel]
            body.append(nums)
            dens.append(den)
            kinds.append(rel)
        m = len(body)
        self.m = m
        n_slack = sum(1 for k in kinds if k != "=")
        self.ncols = n + n_slack
        art_cols: list[int] = []
        basis: list[int] = []
        T: list[list[int]] = []
        slack_at = n
        art_at = self.ncols
        n_art = sum(1 for k in kinds if k != "<=")
        total = self.ncols + n_art
        for i in range(m):
            den = dens[i]
            row = body[i][:n] + [0] * (total - n) + body[i][n:]
            if kinds[i] == "<=":
                row[slack_at] = den
                basis.append(slack_at)
                slack_at += 1
            elif kinds[i] == ">=":
                row[slack_at] = -den
                slack_at += 1
                row[art_at] = den
                basis.append(art_at)
                art_cols.append(art_at)
                art_at += 1
            else:
                row[art_at] = den
                basis.append(art_at)
                art_cols.append(art_at)
                art_at += 1
            T.append(row)
        self.T = T
        self.D = dens
        self.basis = basis
        self.art_cols = set(art_cols)
        self.total = total
        self.cden = lcm(*[x.denominator for x in c if x])
        self.c = [x.numerator * (self.cden // x.denominator) if x else 0 for x in c]
        self.c += [0] * (total - n)

    def _reduced_costs(self, c: list[int], cden: int) -> tuple[list[int], int]:
        # cost row = c_j - sum over basic rows of c_basis * row, over one den
        costs, den = c + [0], cden
        for i, b in enumerate(self.basis):
            cb = c[b]
            if cb:
                s, f = cden * self.D[i], cb * den
                costs = [x * s - f * y for x, y in zip(costs, self.T[i])]
                costs, den = _reduce(costs, den * s)
        return costs, den

    def _pivot(self, r: int, e: int) -> tuple[list, int]:
        """Pivot on (r, e); returns the nonzero entries of the new pivot row
        and its denominator, for the caller's cost row."""
        T, D = self.T, self.D
        prow, piv = T[r], T[r][e]
        if piv < 0:
            prow, piv = [-x for x in prow], -piv
        prow, piv = _reduce(prow, piv)
        T[r], D[r] = prow, piv
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(self.m):
            if i != r and T[i][e]:
                T[i], D[i] = _eliminate(T[i], D[i], e, nz, piv)
        self.basis[r] = e
        return nz, piv

    def _run(self, c: list[int], cden: int, banned: set) -> str:
        """Maximize c / cden over current tableau.  Returns 'optimal' or
        'unbounded'."""
        T, basis = self.T, self.basis
        costs, den = self._reduced_costs(c, cden)
        iters = 0
        bland_after = 20 * (self.m + self.total + 10)
        while True:
            iters += 1
            bland = iters > bland_after
            e = -1
            best = 0
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
            # ratio test: rhs_i / a_i, the row denominators cancel
            r = -1
            for i in range(self.m):
                a = T[i][e]
                if a > 0:
                    b = T[i][-1]
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

    def solve(self) -> tuple[str, Optional[Fraction], Optional[list]]:
        """Two phases.  Returns (status, value, point) with point over
        structural columns; status in {'optimal', 'unbounded', 'infeasible'}."""
        if self.art_cols:
            phase1 = [0] * self.total
            for j in self.art_cols:
                phase1[j] = -1
            status = self._run(phase1, 1, banned=set())
            if status != "optimal":
                raise InternalCheckError("phase 1 cannot be unbounded")
            # every rhs is >= 0, so the residual is 0 iff each term is
            if any(self.T[i][-1] for i in range(self.m) if self.basis[i] in self.art_cols):
                return ("infeasible", None, None)
            self._evict_artificials()
        status = self._run(self.c, self.cden, banned=self.art_cols)
        point = self._point()
        if status == "unbounded":
            return ("unbounded", None, point)
        value = sum(
            (self.c[j] * x for j, x in enumerate(point) if x != 0), Fraction(0)
        ) / self.cden
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
            del self.D[i]
            del self.basis[i]
            self.m -= 1

    def _point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.total
        for i, b in enumerate(self.basis):
            x[b] = Fraction(self.T[i][-1], self.D[i])
        return x[: self.n_struct]

    def ray(self) -> list[Fraction]:
        """Improving direction over structural columns after 'unbounded'."""
        e = self._unbounded_col
        d = [Fraction(0)] * self.total
        d[e] = Fraction(1)
        for i, b in enumerate(self.basis):
            d[b] = Fraction(-self.T[i][e], self.D[i])
        return d[: self.n_struct]


# ---------------------------------------------------------------------------
# Translation between LinearSystem and the internal nonnegative form.


class _Encoding:
    """Maps named (possibly free) variables to internal nonnegative columns."""

    def __init__(self, sys: LinearSystem, extra_delta: bool):
        self.sys = sys
        self.cols: dict[str, tuple[int, Optional[int]]] = {}
        n = 0
        for v in sys.variables:
            if v in sys.nonneg:
                self.cols[v] = (n, None)
                n += 1
            else:
                self.cols[v] = (n, n + 1)
                n += 2
        self.delta_col = None
        if extra_delta:
            self.delta_col = n
            n += 1
        self.n = n

    def row(self, coeffs: Mapping[str, Fraction], delta_coeff: Fraction = 0) -> list:
        out = [0] * self.n
        for v, x in coeffs.items():
            pos, neg = self.cols[v]
            out[pos] = x
            if neg is not None:
                out[neg] = -x
        if self.delta_col is not None:
            out[self.delta_col] = delta_coeff
        return out

    def decode(self, internal: list) -> dict:
        point = {}
        for v in self.sys.variables:
            pos, neg = self.cols[v]
            val = internal[pos]
            if neg is not None:
                val -= internal[neg]
            point[v] = val
        return point


_HOLDS = {Relation.EQ: operator.eq, Relation.GE: operator.ge, Relation.GT: operator.gt}


def _check_point(sys: LinearSystem, point: dict) -> None:
    """Raise InternalCheckError unless point satisfies every row and every
    non-negativity of sys.  Exact in integers: the point is put over its
    common denominator once, each row over the lcm of its coefficients'
    and bound's denominators."""
    den = lcm(*[x.denominator for x in point.values()])
    nums = {v: x.numerator * (den // x.denominator) for v, x in point.items()}
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
    for v in sys.nonneg:
        if point[v] < 0:
            raise InternalCheckError(f"solver returned negative {v}")


# the simplex's relation for each row of the weak relaxation
_WEAK = {Relation.EQ: "=", Relation.GE: ">=", Relation.GT: ">="}


def _solve_weak_max(
    sys: LinearSystem,
    objective: Mapping[str, Fraction],
) -> tuple[str, Optional[Fraction], Optional[dict], Optional[dict]]:
    """Maximize objective over the weak relaxation of sys.

    Returns (status, value, point, ray)."""
    enc = _Encoding(sys, extra_delta=False)
    rows = [(enc.row(c.coeffs), _WEAK[c.rel], c.bound) for c in sys.constraints]
    sx = _Simplex(enc.n, rows, enc.row(objective))
    status, value, point = sx.solve()
    if status == "infeasible":
        return ("infeasible", None, None, None)
    if status == "unbounded":
        return ("unbounded", None, None, enc.decode(sx.ray()))
    return ("optimal", value, enc.decode(point), None)


def _strict_feasible(sys: LinearSystem) -> tuple[str, Optional[dict]]:
    """Decide feasibility of sys honoring strictness.

    Returns ('feasible', point) or ('infeasible', None)."""
    enc = _Encoding(sys, extra_delta=True)
    rows = []
    for c in sys.constraints:
        delta = Fraction(-1) if c.rel is Relation.GT else Fraction(0)
        rows.append((enc.row(c.coeffs, delta), _WEAK[c.rel], c.bound))
    # 0 <= delta <= 1; maximize delta
    rows.append((enc.row({}, Fraction(-1)), ">=", Fraction(-1)))
    sx = _Simplex(enc.n, rows, enc.row({}, Fraction(1)))
    status, value, internal = sx.solve()
    if status == "infeasible":
        return ("infeasible", None)
    if status == "unbounded":
        raise InternalCheckError("delta objective is bounded by construction")
    has_strict = any(c.rel is Relation.GT for c in sys.constraints)
    if has_strict and value == 0:
        return ("infeasible", None)
    point = enc.decode(internal)
    _check_point(sys, point)
    return ("feasible", point)


def feasible(sys: LinearSystem) -> LPOutcome:
    """Exact feasibility of sys, strict rows honored strictly."""
    status, point = _strict_feasible(sys)
    if status == "infeasible":
        return LPOutcome(Verdict.INFEASIBLE)
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
    _check_names(frozenset(sys.variables), objective, "objective")
    has_strict = any(c.rel is Relation.GT for c in sys.constraints)
    if has_strict:
        status, _ = _strict_feasible(sys)
        if status == "infeasible":
            return LPOutcome(Verdict.INFEASIBLE)
    sign = 1 if direction is Direction.MAX else -1
    status, value, point, ray = _solve_weak_max(
        sys, {v: sign * x for v, x in objective.items()}
    )
    if status == "infeasible":
        return LPOutcome(Verdict.INFEASIBLE)
    if status == "unbounded":
        return LPOutcome(Verdict.UNBOUNDED, direction=ray)
    value = sign * value
    if not has_strict:
        _check_point(sys, point)
        return LPOutcome(Verdict.OPTIMAL, point=point, value=value, attained=True)
    # Does some strictly feasible point attain the closure optimum?
    pinned = LinearSystem(
        variables=sys.variables,
        constraints=sys.constraints + (Constraint(objective, Relation.EQ, value),),
        nonneg=sys.nonneg,
    )
    status, witness = _strict_feasible(pinned)
    if status == "feasible":
        return LPOutcome(Verdict.OPTIMAL, point=witness, value=value, attained=True)
    return LPOutcome(Verdict.OPTIMAL, point=None, value=value, attained=False)
