"""Decision procedures: satisfiability, validity, and tightest bounds.

The reduction: normalize, walk the DNF over basic constraints lazily, and
solve one exact LP per disjunct reached.  The walk visits the disjuncts in
exactly the order, and with exactly the literal order, of formula.dnf
without building the list: the top-level disjunction splits into
branches, each branch's conjunction into conjuncts, dnf expands each
conjunct alone (a short list), and the branch's disjuncts are the
itertools.product of those lists.  A conjunct that a branch repeats is
expanded once, at its first place, so its copies add neither rows nor
disjuncts.  sat stops at the first feasible disjunct.  A branch that
mixes basic conjuncts (units) with other conjuncts first gets one LP on
its units alone: every disjunct of the branch contains them, so if that
LP is infeasible the whole branch is refuted and skipped (the theory
check on forced literals of DPLL(T)).
The number of disjuncts is counted, never enumerated: a sum over
disjunction, a product over conjunction.

Worlds are the atoms over the formula's propositions.  Per disjunct, each
distinct propositional argument phi_i gets its own candidate measure
(variables x[i][world] >= 0 summing to 1); dominance rows force measure i
to attain the maximum over all measures on phi_i's extension, so the
value of l(phi_i) is an honest upper probability.  A designated witness
measure per argument loses no generality: restricting a satisfying measure
set to one maximizer per argument preserves every argument's upper
probability.

Atoms sharing a membership signature across all arguments are
interchangeable, so the LP merges them into one column per signature
class; any mass found is placed on a representative atom.  Every SAT
answer is re-checked by the model checker before being returned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import lp
from .errors import InternalCheckError, ResourceError, UplogicError
from .formula import (
    Basic,
    LAnd,
    LNot,
    LOr,
    LikelihoodFormula,
    Rel,
    Term,
    atom_cap,
    atoms_of,
    dnf,
    holds,
    likelihood_props,
    normalize,
    props_of,
)
from .semantics import evaluate
from .structure import UpperProbStructure

DEFAULT_PROP_CAP = 12


class UnsatInputError(UplogicError):
    """Raised when bounds are requested for an unsatisfiable formula."""


class SatVerdict(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class SatResult:
    verdict: SatVerdict
    model: Optional[UpperProbStructure] = None
    stats: Optional[dict] = None


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    countermodel: Optional[UpperProbStructure] = None


@dataclass(frozen=True)
class BoundsResult:
    lower: Fraction
    lower_attained: bool
    upper: Fraction
    upper_attained: bool


class _Worlds:
    """The atom worlds of a formula's proposition set."""

    def __init__(self, props: Sequence[str]):
        self.props = tuple(props)
        if props:
            self.atoms = atoms_of(props)
            self.ids = tuple(
                "w" + "".join("1" if s else "0" for s in a.signs) for a in self.atoms
            )
            self.assignments = [a.assignment() for a in self.atoms]
        else:
            self.ids = ("w0",)
            self.assignments = [{}]
        self._masks: dict = {}  # argument -> extension mask

    def extension_mask(self, phi) -> int:
        mask = self._masks.get(phi)
        if mask is None:
            mask = 0
            for i, assign in enumerate(self.assignments):
                if holds(phi, assign):
                    mask |= 1 << i
            self._masks[phi] = mask
        return mask


ONE = Fraction(1)


class _DisjunctLP:
    """Witness LP for one conjunction of normalized basic constraints."""

    def __init__(self, worlds: _Worlds, basics: Sequence[Basic], extra_args=()):
        self.worlds = worlds
        mask_of: dict[int, int] = {}  # extension mask -> measure index
        self._arg_cache: dict = {}  # argument -> measure index
        for _, phi in [p for b in basics for p in b.term.parts] + list(extra_args):
            if phi not in self._arg_cache:
                mask = worlds.extension_mask(phi)
                self._arg_cache[phi] = mask_of.setdefault(mask, len(mask_of))

        masks = list(mask_of)  # in order of measure index
        T = len(masks)
        # merge worlds by membership signature across all argument extensions
        sig_of: dict[tuple, int] = {}
        self.class_rep: list[int] = []
        for w in range(len(worlds.ids)):
            sig = tuple((m >> w) & 1 for m in masks)
            if sig not in sig_of:
                sig_of[sig] = len(self.class_rep)
                self.class_rep.append(w)
        sigs = list(sig_of)
        C = len(self.class_rep)

        names = [[f"x_{i}_{c}" for c in range(C)] for i in range(T)]
        self._names = names
        self.variables = [x for row in names for x in row]
        # the classes inside measure i's own argument extension
        self._inside = [[c for c in range(C) if sigs[c][i]] for i in range(T)]
        rows: list[tuple[dict, lp.Relation, Fraction]] = []
        # each measure sums to 1
        for row in names:
            rows.append((dict.fromkeys(row, ONE), lp.Relation.EQ, ONE))
        # dominance: measure i attains the max on its own extension
        for i, inside in enumerate(self._inside):
            for j in range(T):
                if j != i:
                    row = {names[i][c]: ONE for c in inside}
                    row.update({names[j][c]: -ONE for c in inside})
                    rows.append((row, lp.Relation.GE, Fraction(0)))
        # the disjunct's constraints over the y_i = mu_i(extension_i)
        for b in basics:
            rel = lp.Relation.GT if b.rel is Rel.GT else lp.Relation.GE
            rows.append((self.term_row(b.term), rel, b.bound))
        self.rows = rows

    def term_row(self, t: Term) -> dict:
        """The term as a row: the sum of coeff * mu_i(extension_i)."""
        by_measure: dict[int, Fraction] = {}
        for coeff, phi in t.parts:
            i = self._arg_cache[phi]
            by_measure[i] = by_measure.get(i, 0) + coeff
        return {
            self._names[i][c]: coeff
            for i, coeff in by_measure.items()
            for c in self._inside[i]
        }

    def system(self) -> lp.LinearSystem:
        return lp.make_system(self.variables, self.rows)

    def measures(self, point: dict) -> list[dict]:
        out = []
        for names in self._names:
            mu = {}
            for c, x in enumerate(names):
                mass = point[x]
                if mass != 0:
                    wid = self.worlds.ids[self.class_rep[c]]
                    mu[wid] = mu.get(wid, Fraction(0)) + mass
            out.append(mu)
        return out


def _prepare(f: LikelihoodFormula, extra_props=()):
    cap = atom_cap(DEFAULT_PROP_CAP)
    props = sorted(set(likelihood_props(f)).union(extra_props))
    if len(props) > cap:
        raise ResourceError(
            f"{len(props)} distinct propositions exceed the cap {cap}"
        )
    return _Worlds(props), normalize(f)


def _operands(g: LikelihoodFormula, node: type) -> tuple[LikelihoodFormula, ...]:
    """The operands of g if it is a node (LOr or LAnd), else g alone."""
    return g.parts if isinstance(g, node) else (g,)


def _count(g: LikelihoodFormula) -> int:
    """len(dnf(g)) for a normalized g, counted without building the DNF."""
    if isinstance(g, LOr):
        return sum(_count(part) for part in g.parts)
    if isinstance(g, LAnd):
        return math.prod(_count(part) for part in g.parts)
    return 1


def _solve(worlds: _Worlds, basics: Sequence[Basic], lp_sizes: list):
    """The witness LP of a conjunction of basics and its feasibility."""
    dlp = _DisjunctLP(worlds, basics)
    lp_sizes.append({"variables": len(dlp.variables), "rows": len(dlp.rows)})
    return dlp, lp.feasible(dlp.system())


def _disjuncts(
    worlds: _Worlds, g: LikelihoodFormula, lp_sizes: list
) -> Iterator[list[Basic]]:
    """The disjuncts of dnf(g), in dnf's order and literal order, except
    those of a branch whose units one LP refutes (that LP's size goes to
    lp_sizes).  A conjunct that a branch repeats is walked once, at its
    first place: its literals would only repeat rows of the disjunct's
    LP, and the branch's disjuncts would multiply for nothing."""
    for branch in _operands(g, LOr):
        conjuncts = list(dict.fromkeys(_operands(branch, LAnd)))
        units = [c for c in conjuncts if isinstance(c, Basic)]
        if units and len(units) < len(conjuncts):
            _, outcome = _solve(worlds, units, lp_sizes)
            if outcome.verdict is lp.Verdict.INFEASIBLE:
                continue
        for parts in itertools.product(*[dnf(c) for c in conjuncts]):
            yield [b for part in parts for b in part]


def _structure_from(worlds: _Worlds, measures: list[dict]) -> UpperProbStructure:
    return UpperProbStructure(
        props=worlds.props,
        worlds=worlds.ids,
        assignment={w: dict(a) for w, a in zip(worlds.ids, worlds.assignments)},
        measures=tuple(measures),
    )


def sat(f: LikelihoodFormula) -> SatResult:
    """SAT with a verified witness structure, or UNSAT.

    The model, when present, has exactly the formula's atom worlds and one
    measure per distinct likelihood argument of the satisfied disjunct.
    """
    worlds, g = _prepare(f)
    stats = {"disjuncts": _count(g), "lp_sizes": []}
    for basics in _disjuncts(worlds, g, stats["lp_sizes"]):
        dlp, outcome = _solve(worlds, basics, stats["lp_sizes"])
        if outcome.verdict is lp.Verdict.FEASIBLE:
            model = _structure_from(worlds, dlp.measures(outcome.point))
            if not evaluate(model, f):
                raise InternalCheckError(
                    "extracted witness structure fails the model checker"
                )
            return SatResult(SatVerdict.SAT, model=model, stats=stats)
    return SatResult(SatVerdict.UNSAT, stats=stats)


def valid(f: LikelihoodFormula) -> ValidityResult:
    """VALID iff the negation is unsatisfiable; else a countermodel."""
    result = sat(LNot(f))
    if result.verdict is SatVerdict.UNSAT:
        return ValidityResult(valid=True)
    return ValidityResult(valid=False, countermodel=result.model)


def bounds(f: LikelihoodFormula, t: Term) -> BoundsResult:
    """Exact inf/sup of the term's value over all structures satisfying f.

    Endpoints carry attainment flags: an open endpoint is approached only
    in the limit of some strict constraint.
    """
    worlds, g = _prepare(f, [p for _, phi in t.parts for p in props_of(phi)])
    lower: Optional[tuple[Fraction, bool]] = None
    upper: Optional[tuple[Fraction, bool]] = None
    for basics in _disjuncts(worlds, g, []):
        dlp = _DisjunctLP(worlds, basics, extra_args=t.parts)
        system, obj = dlp.system(), dlp.term_row(t)
        lo = lp.optimize(system, obj, lp.Direction.MIN)
        if lo.verdict is lp.Verdict.INFEASIBLE:
            continue
        hi = lp.optimize(system, obj, lp.Direction.MAX)
        if lo.verdict is not lp.Verdict.OPTIMAL or hi.verdict is not lp.Verdict.OPTIMAL:
            raise InternalCheckError("term range must be bounded over measures")
        if lower is None or (lo.value, not lo.attained) < (lower[0], not lower[1]):
            lower = (lo.value, lo.attained)
        if upper is None or (hi.value, hi.attained) > (upper[0], upper[1]):
            upper = (hi.value, hi.attained)
    if lower is None:
        raise UnsatInputError("formula is unsatisfiable; no bounds exist")
    return BoundsResult(
        lower=lower[0],
        lower_attained=lower[1],
        upper=upper[0],
        upper_attained=upper[1],
    )
