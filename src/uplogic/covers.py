"""(n,k)-covers: verification, violation search, axiom instances, and the
inclusion-exclusion-style property checkers.

An (n,k)-cover of (A, Omega) is a multiset of subsets covering Omega at
least k times and covering A at least n+k times.  A candidate upper
probability v must satisfy k + n*v(A) <= sum v(A_i) for every such cover;
search_violation looks for a counterexample up to a caller-visible size
budget, since no a-priori bound on the multiset size is available.

The search and the property checks work on one representation: a set
function's integer table, indexed by ground bitmask, every value scaled by
one common denominator L (SetFunction.upper over SetFunction.denominator),
so each comparison is an exact integer comparison.  The property checks
take a structure as its upper envelope (structure.set_function_of), and
for either kind of source derive the lower table as the dual
L - upper[complement]: each measure sums to 1, so the least mass a
measure puts on a set is 1 less the most any puts on its complement.

search_violation builds each multiset once from its prefix and bounds its
targets once, from a subset-max table and the last run of its coverage
chain (kept as runs of equal sets), instead of testing all 2^n targets.
That run and the ground coverage k are read off the prefix's runs in O(1);
a multiset's own runs are built only to extend it or to scan its targets
(README, "Covers").
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import errors
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
from .record import Record
from .structure import (
    SetFunction,
    UpperProbStructure,
    _field,
    _load_json,
    _strings,
    _typed,
    _unmask,
    set_function_of,
    subset_masks,
    subset_sums,
)


class CoverInstance(Record):
    """A multiset of subsets (duplicates meaningful), (n,k) thresholds and a target set."""

    __slots__ = ("sets", "target", "n", "k")

    def __init__(self, sets: tuple[frozenset, ...], target: frozenset, n: int, k: int):
        if not sets:
            raise InputError("cover must contain at least one set")
        if n < 0 or k < 0 or n + k < 1:
            raise InputError("need n, k >= 0 and n + k >= 1")
        super().__init__(sets, target, n, k)


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


def _extend_runs(runs: list, s: int, full: int) -> list:
    """The runs of a chain after the set s is added to its multiset.

    Each run's first level a becomes S_a | S_(a-1) & s, the levels above it
    keep S_a, S_top & s goes on top of the last run, and equal neighbours
    merge (README, "Covers").
    """
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
    return chain


def search_violation(
    v: SetFunction,
    m_max: int,
    budget: int = errors.SEARCH_BUDGET,
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
    up3_check; InternalCheckError if either disagrees.

    Each multiset is its prefix plus one set s.  Its k and the last run of
    its chain are read off the prefix's runs in O(1), and bound its targets;
    the chain itself is built (_extend_runs) only for a multiset kept to be
    extended, or one whose bound fails, whose targets are then scanned.
    README, "Covers".
    """
    if m_max < 1:
        raise InputError("m_max must be >= 1")
    ground, table, L = v.ground, v.upper, v.denominator
    n_el = len(ground)
    full = (1 << n_el) - 1
    masks = subset_masks(n_el)
    pool = [t for t in masks if t and t != full]
    if not pool:  # at most one element: no multiset to visit
        return None
    best = table[:]  # best[S] = max of table[T] over T within S
    for i in range(n_el):
        bit = 1 << i
        for S in range(full + 1):
            if S & bit and best[S ^ bit] > best[S]:
                best[S] = best[S ^ bit]
    spent, cost, best0 = 0, len(masks), best[0]
    # a multiset of m sets: (link, index of its last set in pool, total,
    # runs), with link = (the prefix's link, last set) and runs the
    # (mask, top level) pairs of its nonempty chain S_0 >= S_1 >= ... >= S_m,
    # S_c the elements covered at least c times; runs[0] is (full, k)
    level = [(None, 0, 0, [(full, 0)])]
    for m in range(1, m_max + 1):
        grown = []
        keep = m < m_max  # the last size is extended no further
        for link, first, prefix_total, runs in level:
            # the prefix's runs (full, k0), (M_1, t_1), ..., (M_r, t_r): with
            # s added, k is k0 + 1 iff M_1 | s is full, and the last run is
            # (M_r & s, t_r + 1) if that is nonempty, else (M_r | below & s,
            # t_r), below being M_(r-1) if level t_r is a run of its own
            # (M_0 = full, t_0 = k0) and M_r otherwise
            k0 = runs[0][1]
            M1 = runs[1][0] if len(runs) > 1 else 0
            Mr, tr = runs[-1]
            below = runs[-2][0] if len(runs) > 1 and runs[-2][1] == tr - 1 else Mr
            # the multisets the budget still holds if cleared, and one more,
            # past which a search counting each multiset would have stopped;
            # the cleared ones are counted in one batch
            batch = pool[first:first + 1 + max(0, budget - spent) // cost]
            for i, s in enumerate(batch, first):
                k = k0 + 1 if M1 | s == full else k0
                low = Mr & s
                mask, top = (low, tr + 1) if low else (Mr | below & s, tr)
                total = prefix_total + table[s]
                # (cov(t) - k)*v(t) at the empty target, covered m times,
                # and at the best subset of the last run's set, covered its
                # top times: a first violator violates at one of these
                slack = total - k * L
                bound = (m - k) * best0
                if (top - k) * best[mask] > bound:
                    bound = (top - k) * best[mask]
                if bound <= slack:
                    if keep:
                        grown.append(((link, s), i, total, _extend_runs(runs, s, full)))
                    continue
                # each target's coverage: m for the empty target, else the
                # top of the last run whose set holds it
                chain = _extend_runs(runs, s, full)
                cov = [next(top for S, top in reversed(chain) if t & S == t) if t else m
                       for t in masks]
                hit = next((j for j, t in enumerate(masks)
                            if (cov[j] - k) * table[t] > slack), None)
                if hit is None:
                    raise InternalCheckError(
                        "search_violation's target bound exceeds every target"
                    )
                spent += (i - first) * cost + hit + 1
                if spent > budget:
                    raise ResourceError(
                        f"cover search budget of {budget} instances exceeded"
                    )
                sets = [s]
                while link is not None:
                    link, t = link
                    sets.append(t)
                found = CoverInstance(sets=_unmask(ground, reversed(sets)),
                                      target=_unmask(ground, (masks[hit],))[0],
                                      n=cov[hit] - k, k=k)
                if not verify_cover(found, ground) or up3_check(v, found):
                    raise InternalCheckError(
                        "search_violation built an instance that is not a "
                        "violating cover"
                    )
                return found
            spent += len(batch) * cost
            if spent > budget:
                raise ResourceError(
                    f"cover search budget of {budget} instances exceeded"
                )
        if not grown:
            break
        level = grown
    return None


# ---------------------------------------------------------------------------
# Axiom-L4 instance generation


def _threshold(parts: Sequence[PropFormula], count: int) -> PropFormula:
    """That at least `count` of the parts hold: the disjunction over all
    index sets J of size `count` of the conjunction of the chosen parts;
    the empty choice (count 0) is true."""
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
                space_cond = _threshold(parts, k)
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
                        target_cond = implies(phi, _threshold(parts, n + k))
                        if not is_tautology(target_cond):
                            continue
                        term = tuple((Fraction(1), p) for p in parts)
                        term += ((Fraction(-n), phi),)
                        yield Basic(Term(term), Rel.GE, Fraction(k))


# ---------------------------------------------------------------------------
# Properties (1)-(6)


def check_properties(
    source: Union[UpperProbStructure, SetFunction],
) -> dict[int, Optional[tuple]]:
    """Check the six inclusion-exclusion-style envelope properties.

    Returns {property number: None on PASS, else the first violating subset
    tuple}: for (1), (2), (4) and (5) over the unordered pairs A <= B of
    masks in order; for (3) over ordered pairs and (6) over disjoint pairs,
    both in product order.  (1) and (2) on pairs decide them on every
    family (README, "Properties").  Past errors.SEARCH_BUDGET pairs, raises
    ResourceError before any loop.  A structure is checked as its upper
    envelope (set_function_of).  For either source, lower is the dual
    1 - upper(complement), which for a structure is the least mass any
    measure puts on the set, since each measure sums to 1.
    """
    v = source if isinstance(source, SetFunction) else set_function_of(source)
    ground, upper, L = v.ground, v.upper, v.denominator
    lower = [L - u for u in reversed(upper)]  # full ^ m is full - m
    N, masks = len(upper), range(len(upper))
    # the unordered, ordered and disjoint pairs
    work = N * (N + 1) // 2 + N * N + 3 ** len(ground)
    if work > errors.SEARCH_BUDGET:
        raise ResourceError(f"props needs {work} pairs, "
                            f"over the budget of {errors.SEARCH_BUDGET}")
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
    return report


# ---------------------------------------------------------------------------
# Certificate serialization


def certificate_doc(c: CoverInstance) -> dict:
    """c as the JSON document that load_certificate reads."""
    return {"sets": [sorted(s) for s in c.sets], "target": sorted(c.target), "n": c.n, "k": c.k}


def save_certificate(c: CoverInstance) -> str:
    return json.dumps(certificate_doc(c))


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
