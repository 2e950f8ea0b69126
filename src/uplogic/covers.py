"""(n,k)-covers: verification, violation search, axiom instances, and the
inclusion-exclusion-style property checkers.

An (n,k)-cover of (A, Omega) is a multiset of subsets covering Omega at
least k times and covering A at least n+k times.  A candidate upper
probability v must satisfy k + n*v(A) <= sum v(A_i) for every such cover;
search_violation looks for a counterexample up to a caller-visible size
budget, since no a-priori bound on the multiset size is available.

The search and the property checks work on one representation: integer
tables indexed by ground bitmask, every value scaled by one common
denominator L (`structure.mask_tables`), so each comparison is an exact
integer comparison.  search_violation builds each multiset once from its
prefix, keeps its coverage chain as runs of equal sets, and bounds its
targets once, from a subset-max table and the chain's last run, instead of
testing all 2^n targets (README, "Covers").
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
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
    _unmask,
    mask_tables,
    subset_masks,
    subset_sums,
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
    """The first cover instance of at most m_max sets violating the UP3
    inequality, or None if there is none.

    Multisets of the nonempty proper subsets of the ground set are visited
    by size m, each size in combinations_with_replacement order, and a
    multiset's targets in v.subsets() order; a multiset covering the ground
    k times is tested at that k and at n = its target coverage minus k, the
    empty target counting as covered m times.  The budget counts multiset x
    target instances as a search testing every target would: past it,
    ResourceError.  The certificate is re-checked by verify_cover and
    up3_check; InternalCheckError if either disagrees.  How each multiset
    is built from its prefix and bounded without visiting its targets:
    README, "Covers".
    """
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    ground, table, _, L = mask_tables(v)
    n_el = len(ground)
    full = (1 << n_el) - 1
    masks = subset_masks(n_el)
    pool = [t for t in masks if t and t != full]
    best = table[:]  # best[S] = max of table[T] over T within S
    for i in range(n_el):
        bit = 1 << i
        for S in range(full + 1):
            if S & bit and best[S ^ bit] > best[S]:
                best[S] = best[S ^ bit]
    spent, cost = 0, len(masks)
    # a multiset of m sets: (link, index of its last set in pool, total,
    # runs), with link = (the prefix's link, last set) and runs the
    # (mask, top level) pairs of its nonempty chain S_0 >= S_1 >= ... >= S_m,
    # S_c the elements covered at least c times; runs[0] is (full, k)
    level = [(None, 0, 0, [(full, 0)])]
    for m in range(1, m_max + 1):
        grown = []
        for link, first, prefix_total, runs in level:
            for i in range(first, len(pool)):
                s = pool[i]
                # each run's first level a becomes S_a | S_(a-1) & s, the
                # levels above it keep S_a, S_top & s goes on top of the
                # last run, and equal neighbours merge
                chain = [runs[0]]
                below, a = full, runs[0][1] + 1
                for M, top in runs[1:]:
                    head = M | below & s
                    if head == chain[-1][0]:
                        chain[-1] = (head, a)
                    elif head != M:
                        chain.append((head, a))
                    if head == M or top > a:
                        chain.append((M, top))
                    below, a = M, top + 1
                head = below & s
                if head == chain[-1][0]:
                    chain[-1] = (head, a)
                elif head:
                    chain.append((head, a))
                k = chain[0][1]
                total = prefix_total + table[s]
                # (cov(t) - k)*v(t) at the empty target, covered m times,
                # and at the best subset of the last run's set, covered its
                # top times: a first violator violates at one of these
                slack = total - k * L
                bound = (m - k) * best[0]
                mask, top = chain[-1]
                if (top - k) * best[mask] > bound:
                    bound = (top - k) * best[mask]
                hit = None  # index of the first violating target
                if bound > slack:
                    at_least: list[int] = []  # at_least[c] is S_c
                    for mask, top in chain:
                        at_least += [mask] * (top + 1 - len(at_least))
                    at_least += [0] * (m + 1 - len(at_least))
                    hit = next((j for j, t in enumerate(masks)
                                if (_coverage(at_least, t) - k) * table[t] > slack),
                               None)
                    if hit is None:
                        raise InternalCheckError(
                            "search_violation's target bound exceeds every target"
                        )
                spent += cost if hit is None else hit + 1
                if spent > budget:
                    raise ResourceError(
                        f"cover search budget of {budget} instances exceeded"
                    )
                if hit is None:
                    if m < m_max:  # the last size is extended no further
                        grown.append(((link, s), i, total, chain))
                    continue
                sets = [s]
                while link is not None:
                    link, t = link
                    sets.append(t)
                found = CoverInstance(sets=_unmask(ground, reversed(sets)),
                                      target=_unmask(ground, (masks[hit],))[0],
                                      n=_coverage(at_least, masks[hit]) - k, k=k)
                if not verify_cover(found, ground) or up3_check(v, found):
                    raise InternalCheckError(
                        "search_violation built an instance that is not a "
                        "violating cover"
                    )
                return found
        if not grown:
            break
        level = grown
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


def check_properties(
    source: Union[UpperProbStructure, SetFunction],
    max_sets: int = 3,
) -> dict[int, Optional[tuple]]:
    """Check the six inclusion-exclusion-style envelope properties.

    Returns {property number: None on PASS, else the first violating subset
    tuple}: for (1) and (2) over families of up to max_sets sets, by size
    and then in combinations_with_replacement order of the masks; for
    (3)-(6) over pairs in product order (README, "Properties").  Past
    DEFAULT_SEARCH_BUDGET families and pairs, raises ResourceError before
    any loop.  Given a SetFunction v, lower is the dual 1 - v(complement).
    """
    if max_sets < 2:
        raise InputError("max_sets must be >= 2")
    ground, upper, lower, _ = mask_tables(source)
    N, masks = len(upper), range(len(upper))
    # families of 3..max_sets sets (of 0..r sets there are comb(N + r, r)),
    # the unordered, ordered and disjoint pairs
    work = (comb(N + max_sets, N) - comb(N + 2, 2) + comb(N + 1, 2) + N * N
            + 3 ** len(ground))
    if work > DEFAULT_SEARCH_BUDGET:
        raise ResourceError(f"props needs {work} families and pairs, "
                            f"over the budget of {DEFAULT_SEARCH_BUDGET}")
    report: dict[int, Optional[tuple]] = dict.fromkeys(range(1, 7))
    # on A <= B, (1) is y <= s, (2) x >= t, (4) t <= x <= s and (5) t <= y <= s
    for A in masks:
        for B in range(A, N):
            s, t = upper[A] + upper[B], lower[A] + lower[B]
            x, y = lower[A | B] + upper[A & B], lower[A & B] + upper[A | B]
            if t <= x <= s >= y >= t:
                continue
            for prop, holds in ((1, y <= s), (2, x >= t), (4, t <= x <= s), (5, t <= y <= s)):
                if not holds and report[prop] is None:
                    report[prop] = _unmask(ground, (A, B))
        if None not in (report[1], report[2], report[4], report[5]):
            break
    report[3] = next((_unmask(ground, (A, B)) for A in masks for B in masks if not (
        lower[A | B] + lower[A & B] <= lower[A] + upper[B] <= upper[A | B] + upper[A & B]
    )), None)
    # (6): B over the submasks of A's complement, the subset sums of its bits
    bits = [1 << i for i in range(len(ground))]
    report[6] = next((_unmask(ground, (A, B)) for A in masks
                      for B in subset_sums([b for b in bits if not A & b]) if not (
        upper[A] + lower[B] <= upper[A | B] <= upper[A] + upper[B]
    )), None)
    # families of r >= 3 sets, a frame per prefix (README); need[p]: largest size left
    need = {p: 2 if report[p] else max_sets for p in (1, 2)}
    family: list[int] = []
    frames = [(iter(masks), 0, 0, 0, upper, lower)]
    while frames:
        it, union, c1, c2, up, lo = frames[-1]
        a = next(it, None)
        if a is None or max(2, len(frames)) >= max(need.values()):
            frames.pop()
            del family[len(frames) - 1:]
            continue
        union, c1, c2 = union | a, c1 + up[a], c2 + lo[a]
        up, lo = ([u - lo[a & x] for x, u in enumerate(up)],
                  [v - up[a & x] for x, v in enumerate(lo)])
        size, xs = len(frames) + 1, range(a, N)
        if need[1] >= size > 2:
            x = next((x for x in xs if upper[union | x] > c1 + up[x]), None)
            if x is not None:
                report[1], need[1] = _unmask(ground, family + [a, x]), size - 1
        if need[2] >= size > 2:
            x = next((x for x in xs if lower[union | x] < c2 + lo[x]), None)
            if x is not None:
                report[2], need[2] = _unmask(ground, family + [a, x]), size - 1
        if size < max(need.values()):
            family.append(a)
            frames.append((iter(xs), union, c1, c2, up, lo))
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
