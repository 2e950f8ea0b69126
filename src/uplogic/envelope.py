"""Recognition of upper probability measures.

A total set function v over a finite ground set equals the upper envelope
of some set of probability measures iff v(empty) = 0, v(ground) = 1, and
for every nonempty subset A the maximum of mu(A) over the polytope of
probability measures dominated by v (mu(X) <= v(X) for all X) reaches
v(A) (Anger and Lembcke).  Each such maximum is one exact LP, but an LP
runs only for a subset that no earlier witness reaches: the subsets are
visited in v.subsets() order (structure.subset_masks), and A is skipped
when a measure found so far has mass exactly v(A) on A.  That proves the
maximum at A is v(A), because every witness is certified dominated by v
(below) and has total mass 1 = v(ground).  Each LP that runs therefore
returns a measure reaching a subset no earlier one reached, and on
success these measures are the witness family: one per distinct LP
optimum needed, realizing v exactly.  NO answers are those of one LP per
subset: the first LP detects an empty polytope, and the first subset
whose maximum falls short of v fails.  This finite decision replaces
quantification over arbitrarily large set covers.

Each maximum is solved as its dual, which has one row per ground element
g and one column y_X per proper nonempty subset X:

    minimize    lam + sum_X y_X v(X)
    subject to  lam + sum_{X containing g} y_X - s_g = [g in A]  for each g,

with lam free and y, s >= 0.  It runs on lp's revised simplex (lp.Basis,
the solve, ratio test, pivot and switch to Bland's rule of every LP in
this package), which keeps only the inverse of the n basic columns; this
module only prices, every y_X in one pass over v's integer table
(V = v.upper, over L = v.denominator), and hands Basis.run
the list of every column's reduced cost, of which it enters the best.
With the duals P / (L D), y_X's reduced cost is (V[X] D - P(X)) / (L D),
where P(X) is a subset sum of P (structure.subset_sums), and s_g's is
P[g] / (L D).  lam has the column of the ground set and is free, so it
never leaves the basis.  The start basis, lam at the row of the first
element of A and s_g at every other row, is feasible, so there is no
phase 1.  An entering column that no row bounds makes the dual
unbounded: the polytope is empty.

The optimal duals are the witness measure mu.  Two exact checks in
integers certify the optimum: mu is nonnegative, has total 1 and is at
most v on every other subset; and the dual point, which must satisfy its
n rows with y, s >= 0, has objective mu(A).  By weak duality, mu(A) is
then the maximum.  The decision runs on masks and ints: v(empty),
v(ground), the shortfall test and the reuse test read v's table (and
each witness's subset sums over its own denominator), each LP is asked
for by its subset's mask, and Fractions are made only for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from . import errors, lp
from .errors import InputError, InternalCheckError
from .record import Record
from .structure import (
    SetFunction,
    _unmask,
    subset_masks,
    subset_sums,
)


class EnvelopeResult(Record):
    """witness: measures, element -> mass; shortfall_value: the dominated max at failing_set."""

    __slots__ = ("is_upper_probability", "witness", "failing_set", "failing_reason",
                 "shortfall_value")

    def __init__(self, is_upper_probability: bool, witness: Optional[tuple[dict, ...]] = None,
                 failing_set: Optional[frozenset] = None, failing_reason: Optional[str] = None,
                 shortfall_value: Optional[Fraction] = None):
        super().__init__(is_upper_probability, witness, failing_set, failing_reason,
                         shortfall_value)


def dominated_max(v: SetFunction, A) -> tuple[Fraction, dict]:
    """max mu(A) over probability measures dominated by v, with an
    optimal measure.  A is a subset of v's ground set: its elements, or
    its mask (bit i for v.ground[i])."""
    ground, V, L = v.ground, v.upper, v.denominator
    n, full = len(ground), len(V) - 1
    a = A if isinstance(A, int) else v.mask(A)
    if not 0 <= a <= full:  # only a mask can be out of range
        raise InputError(f"subset mask {A} not within the ground set")
    if not n:
        raise InputError(_EMPTY)
    # column j is y_X for j = X < full, lam for j = full, s_g for
    # j = full + 1 + g; C[j] is its cost over L
    C = V[:full] + [L] + [0] * n
    # lam at the row g0 of A's first element and s_g at every other: B^-1
    # has row e_g0 at g0's position and e_g0 - e_g at g's, so lam is
    # [g0 in A] and s_g is [g0 in A] - [g in A]; the dual minimizes, so the
    # simplex maximizes -C, whose only nonzero cost in that basis is lam's
    g0 = (a & -a).bit_length() - 1 if a else 0
    b0 = a >> g0 & 1
    basis = lp.Basis([full if g == g0 else full + 1 + g for g in range(n)],
                     [({g0: 1}, 1, b0, 0) if g == g0 else
                      ({g0: 1, g: -1}, 1, b0 - (a >> g & 1), 0) for g in range(n)], len(C))

    def price(Y: dict, D: int) -> list:
        # each reduced cost over L D is C[j] D minus P on column j, which is
        # P(X) for y_X and lam, and -P[g] for s_g, with the duals P = -Y;
        # negated, as the simplex maximizes the objective -C
        P = [-Y.get(g, 0) for g in range(n)]
        return [p - c * D for c, p in zip(C, subset_sums(P) + [-p for p in P])]

    out = basis.run({full: -L}, price, lambda j: _column(j, n, full), free=full)
    if out is None:
        raise InputError(_EMPTY)
    Y, D = out
    pden, nums = basis.values(len(C))
    # the duals and the dual point over one denominator
    den = lcm(D, pden)
    P = [-Y.get(g, 0) * (den // D) for g in range(n)]
    point = [(j, x * (den // pden)) for j, x in nums.items()]
    value = _certify(C, full, a, point, den, P)
    return value, {g: Fraction(p, L * den) for g, p in zip(ground, P) if p}


_EMPTY = ("the dominated-measure polytope is empty; v admits no probability "
          "measure below it")


def _column(j: int, n: int, full: int) -> dict[int, int]:
    """Column j of the dual over its n rows, as {row: entry}: the subset j
    for y_j (and lam, j = full), and -1 at row g for s_g, j = full + 1 + g."""
    if j > full:
        return {j - full - 1: -1}
    return {g: 1 for g in range(n) if j >> g & 1}


def _certify(C: list[int], full: int, a: int, point: list, D: int, P: list[int]) -> Fraction:
    """mu(A) for the duals mu = P / (L D), L = C[full], after checking in
    integers that mu is a probability measure at most v on every proper
    subset, and that the dual point, (column, value over D) pairs, satisfies
    the rows with every column but lam nonnegative, at objective mu(A).
    Raises InternalCheckError otherwise."""
    n, LD = len(P), C[full] * D
    sums = subset_sums(P)
    if min(P) < 0 or sums[full] != LD or any(
            s > c * D for s, c in zip(sums[:full], C)):
        raise InternalCheckError("the optimal duals are not a measure dominated by v")
    rows = [0] * n
    objective = 0
    for j, x in point:
        if x < 0 and j != full:
            raise InternalCheckError("the optimal dual point has a negative column")
        for g, y in _column(j, n, full).items():
            rows[g] += y * x
        objective += C[j] * x
    if rows != [D * (a >> g & 1) for g in range(n)]:
        raise InternalCheckError("the optimal dual point violates its rows")
    if objective != sums[a]:
        raise InternalCheckError(f"dual objective {Fraction(objective, LD)} "
                                 f"!= mu(A) = {Fraction(sums[a], LD)}")
    return Fraction(sums[a], LD)


def is_upper_probability(v: SetFunction) -> EnvelopeResult:
    """Decide whether v is the upper envelope of some measure set.

    YES comes with witness measures realizing v exactly; NO names a
    specific failing subset (or the normalization failure).
    """
    errors.check_cap(len(v.ground), "ground elements", errors.cap())
    ground, table, L = v.ground, v.upper, v.denominator
    n, full = len(ground), len(table) - 1
    if table[0]:
        return EnvelopeResult(False, failing_set=frozenset(),
                              failing_reason="v(empty) != 0")
    if table[full] != L:
        return EnvelopeResult(False, failing_set=frozenset(ground),
                              failing_reason="v(ground) != 1")
    reached = [False] * len(table)  # masks at which some witness has mass v
    witnesses: list[dict] = []
    for mask in subset_masks(n):
        if not mask or reached[mask]:
            continue
        try:
            best, measure = dominated_max(v, mask)
        except InputError:
            return EnvelopeResult(
                False, failing_set=frozenset(ground),
                failing_reason="no probability measure is dominated by v",
            )
        # best < v(A) = table[mask] / L, in integers
        if best.numerator * L < table[mask] * best.denominator:
            return EnvelopeResult(
                False,
                failing_set=_unmask(ground, (mask,))[0],
                failing_reason=f"dominated max {best} < v(A) = {Fraction(table[mask], L)}",
                shortfall_value=best,
            )
        witnesses.append(measure)
        masses = [measure.get(g, Fraction(0)) for g in ground]
        den = lcm(*[x.denominator for x in masses])
        sums = subset_sums([x.numerator * (den // x.denominator) for x in masses])
        # mu(X) = sums[X]/den equals v(X) = table[X]/L
        reached = [r or s * L == t * den for r, s, t in zip(reached, sums, table)]
        if not reached[mask]:
            raise InternalCheckError(
                f"the optimal measure for {sorted(_unmask(ground, (mask,))[0])} "
                f"does not reach v there"
            )
    return EnvelopeResult(True, witness=tuple(witnesses))
