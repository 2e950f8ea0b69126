"""(n,k)-covers: verification, violation search, axiom instances, and the
inclusion-exclusion-style property checkers.

An (n,k)-cover of (A, Omega) is a multiset of subsets covering Omega at
least k times and covering A at least n+k times.  A candidate upper
probability v must satisfy k + n*v(A) <= sum v(A_i) for every such cover;
search_violation looks for a counterexample up to a caller-visible size
budget, since no a-priori bound on the multiset size is available.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import InputError, InternalCheckError, ResourceError
from .formula import (
    Basic,
    LikelihoodFormula,
    PropFormula,
    Rel,
    Term,
    conj_all,
    disj_all,
    implies,
    is_tautology,
)
from .structure import SetFunction, UpperProbStructure, lower_of, upper_of

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class CoverInstance:
    """A multiset of subsets with (n,k) thresholds and a target set."""

    sets: tuple[frozenset, ...]  # duplicates meaningful
    target: frozenset
    n: int
    k: int

    def __post_init__(self):
        if not self.sets:
            raise InputError("cover must contain at least one set")
        if self.n < 0 or self.k < 0 or self.n + self.k < 1:
            raise InputError("need n, k >= 0 and n + k >= 1")


def verify_cover(c: CoverInstance, ground: Iterable[str]) -> bool:
    """True iff c.sets covers ground k times and c.target n+k times."""
    ground = frozenset(ground)
    for s in c.sets:
        if not s <= ground:
            raise InputError(f"cover member {sorted(s)} not contained in the ground set")
    if not c.target <= ground:
        raise InputError(f"target {sorted(c.target)} not contained in the ground set")
    counts = {x: sum(1 for s in c.sets if x in s) for x in ground}
    if any(counts[x] < c.k for x in ground):
        return False
    return all(counts[x] >= c.n + c.k for x in c.target)


def up3_check(v: SetFunction, c: CoverInstance) -> bool:
    """The cover inequality k + n*v(target) <= sum v(A_i), exactly."""
    if not verify_cover(c, v.ground):
        raise InputError("instance is not a valid (n,k)-cover of the ground set")
    total = sum((v(s) for s in c.sets), Fraction(0))
    return c.k + c.n * v(c.target) <= total


def search_violation(
    v: SetFunction,
    m_max: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Optional[CoverInstance]:
    """Smallest-m cover instance violating the UP3 inequality, if any.

    Enumerates multisets (with repetition) of the distinct nonempty proper
    subsets of the ground set, by nondecreasing size m <= m_max.  For a
    fixed multiset and target the inequality's left side is maximized at
    k = min(cover count of Omega, cover count of target) and n the
    remaining target coverage, so only that extreme (n,k) needs testing.
    Returns None when no violating instance with m <= m_max exists.
    """
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    ground = list(v.ground)
    full = frozenset(ground)
    pool = [frozenset(c) for r in range(1, len(ground))
            for c in itertools.combinations(ground, r)]
    targets = v.subsets()
    spent = 0
    for m in range(1, m_max + 1):
        for sets in itertools.combinations_with_replacement(pool, m):
            counts = {x: sum(1 for s in sets if x in s) for x in ground}
            cov_omega = min(counts.values()) if ground else 0
            total = sum((v(s) for s in sets), Fraction(0))
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
                    found = CoverInstance(sets=sets, target=target, n=n, k=k)
                    if not verify_cover(found, ground) or up3_check(v, found):
                        raise InternalCheckError(
                            "search_violation built an instance that is not a "
                            "violating cover"
                        )
                    return found
    return None


# ---------------------------------------------------------------------------
# Axiom-L4 instance generation


def _at_least(parts: Sequence[PropFormula], count: int) -> PropFormula:
    """Disjunction over all index sets J of size `count` of the conjunction
    of the chosen parts; the empty choice (count 0) is true."""
    if count == 0:
        return conj_all([])
    choices = [conj_all([parts[j] for j in J])
               for J in itertools.combinations(range(len(parts)), count)]
    return disj_all(choices)


def l4_instances(
    pool: Sequence[PropFormula],
    m_max: int,
) -> Iterator[LikelihoodFormula]:
    """All axiom instances l(phi_1)+...+l(phi_m) - n*l(phi) >= k whose side
    conditions are propositional tautologies, for m <= m_max and phis drawn
    (with repetition) from the pool.

    The first side condition says phi is covered n+k times by the phi_i;
    the second says the whole space is covered k times.  For n = 0 the
    instance does not mention phi and is emitted once per (phi_i..., k).
    """
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    for m in range(1, m_max + 1):
        for phis in itertools.combinations_with_replacement(pool, m):
            parts = list(phis)
            for k in range(0, m + 1):
                space_cond = _at_least(parts, k)
                if not is_tautology(space_cond):
                    continue
                if k >= 1:
                    yield Basic(
                        Term(tuple((Fraction(1), p) for p in parts)),
                        Rel.GE,
                        Fraction(k),
                    )
                for n in range(1, m - k + 1):
                    for phi in pool:
                        target_cond = implies(phi, _at_least(parts, n + k))
                        if not is_tautology(target_cond):
                            continue
                        term = tuple((Fraction(1), p) for p in parts)
                        term += ((Fraction(-n), phi),)
                        yield Basic(Term(term), Rel.GE, Fraction(k))


# ---------------------------------------------------------------------------
# Properties (1)-(6)


def _mask_tables(
    source: Union[UpperProbStructure, SetFunction],
) -> tuple[list[str], list[Fraction], list[Fraction]]:
    """Ground elements plus upper/lower value tables indexed by bitmask."""
    if isinstance(source, SetFunction):
        ground = list(source.ground)
        n = len(ground)
        upper = [Fraction(0)] * (1 << n)
        for X, val in source.values.items():
            mask = 0
            for i, g in enumerate(ground):
                if g in X:
                    mask |= 1 << i
            upper[mask] = val
        full = (1 << n) - 1
        lower = [1 - upper[full ^ m] for m in range(1 << n)]
        return ground, upper, lower
    M = source
    ground = list(M.worlds)
    n = len(ground)
    # per-measure cumulative mass by mask, then envelope
    totals = []
    for idx in range(len(M.measures)):
        mass = [M.mass(idx, w) for w in ground]
        acc = [Fraction(0)] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            acc[m] = acc[m ^ low] + mass[low.bit_length() - 1]
        totals.append(acc)
    upper = [max(t[m] for t in totals) for m in range(1 << n)]
    lower = [min(t[m] for t in totals) for m in range(1 << n)]
    return ground, upper, lower


def _unmask(ground: list[str], mask: int) -> frozenset:
    return frozenset(g for i, g in enumerate(ground) if mask >> i & 1)


def check_properties(
    source: Union[UpperProbStructure, SetFunction],
    max_sets: int = 3,
) -> dict[int, Optional[tuple]]:
    """Check the six inclusion-exclusion-style envelope properties.

    Returns {property number: None on PASS, else a violating subset tuple}.
    Properties (1) and (2) are checked for families of up to max_sets sets;
    (3)-(5) over all ordered pairs; (6) over all disjoint pairs.  When
    given a SetFunction v, the lower function is the dual
    1 - v(complement).
    """
    if max_sets < 2:
        raise InputError("max_sets must be >= 2")
    ground, upper, lower = _mask_tables(source)
    masks = range(len(upper))
    report: dict[int, Optional[tuple]] = {i: None for i in range(1, 7)}

    def alternating(family: tuple, use_upper_on_odd: bool) -> Fraction:
        total = Fraction(0)
        idx = range(len(family))
        for i in range(1, len(family) + 1):
            odd = i % 2 == 1
            table = upper if (odd == use_upper_on_odd) else lower
            sub = Fraction(0)
            for I in itertools.combinations(idx, i):
                inter = family[I[0]]
                for j in I[1:]:
                    inter &= family[j]
                sub += table[inter]
            total += sub if odd else -sub
        return total

    # (1) and (2): families of size up to max_sets
    for n in range(1, max_sets + 1):
        if report[1] is not None and report[2] is not None:
            break
        for family in itertools.combinations_with_replacement(masks, n):
            union = 0
            for m in family:
                union |= m
            if report[1] is None and not upper[union] <= alternating(family, True):
                report[1] = tuple(_unmask(ground, m) for m in family)
            if report[2] is None and not lower[union] >= alternating(family, False):
                report[2] = tuple(_unmask(ground, m) for m in family)
            if report[1] is not None and report[2] is not None:
                break

    for A, B in itertools.product(masks, repeat=2):
        u, i = A | B, A & B
        if report[3] is None and not (
            lower[u] + lower[i] <= lower[A] + upper[B] <= upper[u] + upper[i]
        ):
            report[3] = (_unmask(ground, A), _unmask(ground, B))
        if report[4] is None and not (
            lower[A] + lower[B] <= lower[u] + upper[i] <= upper[A] + upper[B]
        ):
            report[4] = (_unmask(ground, A), _unmask(ground, B))
        if report[5] is None and not (
            lower[A] + lower[B] <= lower[i] + upper[u] <= upper[A] + upper[B]
        ):
            report[5] = (_unmask(ground, A), _unmask(ground, B))
        if report[6] is None and i == 0 and not (
            upper[A] + lower[B] <= upper[u] <= upper[A] + upper[B]
        ):
            report[6] = (_unmask(ground, A), _unmask(ground, B))
    return report


# ---------------------------------------------------------------------------
# Certificate serialization


def save_certificate(c: CoverInstance) -> str:
    return json.dumps(
        {
            "sets": [sorted(s) for s in c.sets],
            "target": sorted(c.target),
            "n": c.n,
            "k": c.k,
        }
    )


def load_certificate(data: Union[bytes, str]) -> CoverInstance:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
        return CoverInstance(
            sets=tuple(frozenset(s) for s in doc["sets"]),
            target=frozenset(doc["target"]),
            n=int(doc["n"]),
            k=int(doc["k"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed cover certificate: {e}")
