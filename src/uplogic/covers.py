"""(n,k)-covers: verification, violation search, axiom instances, and the
inclusion-exclusion-style property checkers.

An (n,k)-cover of (A, Omega) is a multiset of subsets covering Omega at
least k times and covering A at least n+k times.  A candidate upper
probability v must satisfy k + n*v(A) <= sum v(A_i) for every such cover;
search_violation looks for a counterexample up to a caller-visible size
budget, since no a-priori bound on the multiset size is available.

The search and the property checks work on one representation: integer
tables indexed by ground bitmask, every value scaled by one common
denominator L (`mask_tables`), so each comparison is an exact integer
comparison.  For a fixed multiset with ground coverage k, the best target
is bounded once from a subset-max table instead of testing all 2^n
targets; see search_violation.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

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
from .structure import (
    SetFunction,
    UpperProbStructure,
    _field,
    _load_json,
    _strings,
    _typed,
    check_world_cap,
)

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


def _coverage(at_least: list[int], t: int) -> int:
    """How many times a multiset covers the set t, given the sets of
    elements it covers at least 1, 2, ... times (at_least[c] for c >= 1);
    the empty set counts as covered by every member."""
    return sum(1 for S in at_least[1:] if t & S == t)


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
    remaining target coverage, so only that extreme (n,k) needs testing;
    the empty target counts as covered m times.
    Returns None when no violating instance with m <= m_max exists.

    A multiset with ground coverage k violates the inequality iff
    k + max over targets t of (cov(t) - k)*v(t) exceeds its total.  That
    maximum is computed once per multiset: with best[S] the largest v(T)
    over T within S, the empty T included, and S_c the elements covered at
    least c times, it is the largest of (c - k)*best[S_c] over the levels
    k < c <= m (0 when k = m).  No target exceeds it: a target t with
    cov(t) = c > k lies within S_c (the empty one within every S_c).  The
    bound is exact because v >= 0: the T attaining best[S_c] is covered at
    least c times (a nonempty T lies within S_c, the empty T counts m), so
    (cov(T) - k)*v(T) >= (c - k)*best[S_c].  Only a multiset over the bound
    has its targets scanned, in v.subsets() order, so the certificate is
    the first violating (multiset, target) pair.  The budget still counts
    multiset x target instances: a multiset cleared by the bound spends
    2^n of it.
    """
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    ground, table, _, L = mask_tables(v)
    n_el = len(ground)
    full = (1 << n_el) - 1
    masks = subset_masks(n_el)
    targets = v.subsets()  # the same order as masks
    pool = [t for t in masks if t and t != full]
    best = table[:]  # best[S] = max of table[T] over T within S
    for i in range(n_el):
        bit = 1 << i
        for S in range(full + 1):
            if S & bit and best[S ^ bit] > best[S]:
                best[S] = best[S ^ bit]
    spent = 0
    for m in range(1, m_max + 1):
        levels = range(m, 0, -1)
        for sets in itertools.combinations_with_replacement(pool, m):
            at_least = [full] + [0] * m  # at_least[c] is S_c, a nested chain
            for s in sets:
                for c in levels:
                    at_least[c] |= at_least[c - 1] & s
            k = at_least.count(full) - 1
            total = sum(table[s] for s in sets)
            bound = max([(c - k) * best[at_least[c]] for c in range(k + 1, m + 1)],
                        default=0)
            hit = None  # index of the first violating target
            if k * L + bound > total:
                hit = next((j for j, t in enumerate(masks)
                            if k * L + (_coverage(at_least, t) - k) * table[t] > total),
                           None)
                if hit is None:
                    raise InternalCheckError(
                        "search_violation's target bound exceeds every target"
                    )
            spent += len(masks) if hit is None else hit + 1
            if spent > budget:
                raise ResourceError(
                    f"cover search budget of {budget} instances exceeded"
                )
            if hit is None:
                continue
            n = _coverage(at_least, masks[hit]) - k
            found = CoverInstance(sets=tuple(_unmask(ground, s) for s in sets),
                                  target=targets[hit], n=n, k=k)
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


def mask_tables(
    source: Union[UpperProbStructure, SetFunction],
) -> tuple[list[str], list[int], list[int], int]:
    """Ground elements, upper/lower value tables indexed by bitmask, and L.

    Bit i of a mask stands for ground[i].  Every value is an int over the
    common denominator L: upper[mask] / L is the upper value of the set.
    A structure is held to the world cap of structure.set_function_of.
    """
    if isinstance(source, SetFunction):
        ground = list(source.ground)
        n = len(ground)
        L = lcm(*[x.denominator for x in source.values.values()])
        upper = [0] * (1 << n)
        for X, val in source.values.items():
            mask = 0
            for i, g in enumerate(ground):
                if g in X:
                    mask |= 1 << i
            upper[mask] = val.numerator * (L // val.denominator)
        full = (1 << n) - 1
        lower = [L - upper[full ^ m] for m in range(1 << n)]
        return ground, upper, lower, L
    M = source
    check_world_cap(M)
    ground = list(M.worlds)
    n = len(ground)
    L = lcm(*[x.denominator for mu in M.measures for x in mu.values()])
    # per-measure cumulative mass by mask, then envelope
    totals = []
    for idx in range(len(M.measures)):
        mass = [M.mass(idx, w) for w in ground]
        totals.append(subset_sums([x.numerator * (L // x.denominator) for x in mass]))
    upper = [max(t[m] for t in totals) for m in range(1 << n)]
    lower = [min(t[m] for t in totals) for m in range(1 << n)]
    return ground, upper, lower, L


def subset_sums(mass: Sequence[int]) -> list[int]:
    """The table of sums of mass over each subset, indexed by bitmask:
    entry m is the sum of mass[i] over the bits i of m."""
    acc = [0] * (1 << len(mass))
    for m in range(1, len(acc)):
        low = m & -m
        acc[m] = acc[m ^ low] + mass[low.bit_length() - 1]
    return acc


def subset_masks(n: int) -> list[int]:
    """The bitmasks of the subsets of n elements, in SetFunction.subsets()
    order: by size, then lexicographically by element index."""
    return [sum(1 << i for i in c) for r in range(n + 1)
            for c in itertools.combinations(range(n), r)]


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
    ground, upper, lower, _ = mask_tables(source)
    masks = range(len(upper))
    report: dict[int, Optional[tuple]] = {i: None for i in range(1, 7)}

    def alternating(family: tuple, use_upper_on_odd: bool) -> int:
        total = 0
        idx = range(len(family))
        for i in range(1, len(family) + 1):
            odd = i % 2 == 1
            table = upper if (odd == use_upper_on_odd) else lower
            sub = 0
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
    what = "cover certificate"
    doc = _load_json(data, what)
    sets = [_strings(_typed(s, list, f"set {i} of 'sets'"), f"set {i} of 'sets'")
            for i, s in enumerate(_field(doc, "sets", list, what))]
    return CoverInstance(
        sets=tuple(frozenset(s) for s in sets),
        target=frozenset(_strings(_field(doc, "target", list, what), "'target'")),
        n=_field(doc, "n", int, what),
        k=_field(doc, "k", int, what),
    )
