"""Recognition of upper probability measures.

A total set function v over a finite ground set equals the upper envelope
of some set of probability measures iff v(empty) = 0, v(ground) = 1, and
for every nonempty subset A the maximum of mu(A) over the polytope of
probability measures dominated by v (mu(X) <= v(X) for all X) reaches
v(A).  Each such maximum is one exact LP, but an LP runs only for a subset
that no earlier witness reaches: the subsets are visited in v.subsets()
order (structure.subset_masks), and A is skipped when a measure found so
far has mass exactly v(A) on A.  That proves the maximum at A is v(A),
because every witness is an LP optimum that lp re-checked against every
domination row (so mu <= v on proper subsets) and has total mass 1 =
v(ground).  Each LP that runs therefore returns a measure reaching a
subset no earlier one reached, and on success these measures are the
witness family: one per distinct LP optimum needed, realizing v exactly.
NO answers are those of one LP per subset: the first LP detects an empty
polytope, and the first subset whose maximum falls short of v fails.  This
finite decision replaces quantification over arbitrarily large set covers.

The attainment test is done in integers: v as a table indexed by ground
bitmask over one denominator (structure.mask_tables), and each witness as
the table of its subset sums over its own denominator.  The polytope
depends on v alone, so every LP on one set function shares one system
(SetFunction.dominated, built once).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import lp
from .errors import InputError, InternalCheckError, ResourceError
from .structure import SetFunction, _unmask, mask_tables, subset_masks, subset_sums

DEFAULT_GROUND_CAP = 12


@dataclass(frozen=True)
class EnvelopeResult:
    is_upper_probability: bool
    witness: Optional[tuple[dict, ...]] = None  # measures, element -> mass
    failing_set: Optional[frozenset] = None
    failing_reason: Optional[str] = None
    shortfall_value: Optional[Fraction] = None  # dominated max at failing set


def dominated_max(v: SetFunction, A) -> tuple[Fraction, dict]:
    """max mu(A) over probability measures dominated by v, with an
    optimal measure."""
    A = frozenset(A)
    if not A <= frozenset(v.ground):
        raise InputError(f"subset {sorted(A)} not within the ground set")
    outcome = lp.optimize(v.dominated, dict.fromkeys(A, 1), lp.Direction.MAX)
    if outcome.verdict is not lp.Verdict.OPTIMAL:
        raise InputError(
            "the dominated-measure polytope is empty; v admits no probability "
            "measure below it"
        )
    measure = {g: m for g, m in outcome.point.items() if m != 0}
    return outcome.value, measure


def is_upper_probability(v: SetFunction) -> EnvelopeResult:
    """Decide whether v is the upper envelope of some measure set.

    YES comes with witness measures realizing v exactly; NO names a
    specific failing subset (or the normalization failure).
    """
    if len(v.ground) > DEFAULT_GROUND_CAP:
        raise ResourceError(
            f"{len(v.ground)} ground elements exceed the cap {DEFAULT_GROUND_CAP}"
        )
    empty, full = frozenset(), frozenset(v.ground)
    if v(empty) != 0:
        return EnvelopeResult(False, failing_set=empty,
                              failing_reason="v(empty) != 0")
    if v(full) != 1:
        return EnvelopeResult(False, failing_set=full,
                              failing_reason="v(ground) != 1")
    ground, table, _, L = mask_tables(v)
    reached = [False] * len(table)  # masks at which some witness has mass v
    witnesses: list[dict] = []
    for mask in subset_masks(len(ground)):
        if not mask or reached[mask]:
            continue
        A = _unmask(ground, (mask,))[0]
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
        witnesses.append(measure)
        masses = [measure.get(g, Fraction(0)) for g in ground]
        den = lcm(*[x.denominator for x in masses])
        sums = subset_sums([x.numerator * (den // x.denominator) for x in masses])
        # mu(X) = sums[X]/den equals v(X) = table[X]/L
        reached = [r or s * L == t * den for r, s, t in zip(reached, sums, table)]
        if not reached[mask]:
            raise InternalCheckError(
                f"the optimal measure for {sorted(A)} does not reach v there"
            )
    return EnvelopeResult(True, witness=tuple(witnesses))
