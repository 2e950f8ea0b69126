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
mu_i; dominance rows force measure i to attain the maximum over all
measures on phi_i's extension, so the value of l(phi_i) is an honest upper
probability.  A designated witness measure per argument loses no
generality: restricting a satisfying measure set to one maximizer per
argument preserves every argument's upper probability.

Atoms sharing a membership signature across all arguments are
interchangeable, so the LP merges them into one class per signature; any
mass found is placed on a representative atom.  Every measure shares one
pivot class c0, whose mass is 1 - sum_(c != c0) x[i][c], so the LP has a
column x[i][c] >= 0 for every measure and every class but c0:
  - measure rows -sum_(c != c0) x[i][c] >= -1 keep c0's mass >= 0;
  - dominance rows stay homogeneous, because c0's mass cancels: measure
    i's row runs over the classes on the other side of phi_i's extension
    from c0, its sign flipped when c0 lies inside;
  - a literal's value at c0's point mass, sum coeff_i [c0 in ext_i], moves
    to its bound.
The origin is every measure's point mass on c0, where every measure and
dominance row holds, so phase 1 needs an artificial column only for the
literals that this one-world structure violates; c0 is the class whose
point mass violates the fewest, the lowest on a tie.  A disjunct with a
single class has no column, and its rows are constant comparisons.  The
substitution is one-to-one, so it changes no verdict and no bounds end,
only the vertex reached.  Every SAT answer is re-checked by the model
checker before being returned.
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
    atom_columns,
    dnf,
    extension_mask,
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
    """The atom worlds of a formula's proposition set: world i is atom i of
    atoms_of(props), and each proposition has a column of the worlds where
    it is true."""

    def __init__(self, props: Sequence[str]):
        self.props = tuple(props)
        n = len(props)
        self.ids = tuple("w" + format(i, f"0{n}b") for i in range(1 << n))
        self.columns = atom_columns(props)
        self.full = (1 << len(self.ids)) - 1

    def extension_mask(self, phi) -> int:
        return extension_mask(phi, self.columns, self.full)


ONE = Fraction(1)


class _DisjunctLP:
    """Witness LP for one conjunction of normalized basic constraints.

    Every measure puts on the pivot class c0 the mass its other columns
    leave, 1 - sum_(c != c0) x[i][c], so c0 has no column; the module
    docstring gives the rows and why the simplex starts at c0's point
    mass."""

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

        lits = [self._by_measure(b.term) for b in basics]
        inside = [[c for c in range(C) if sigs[c][i]] for i in range(T)]
        c0 = self.c0 = _pivot_class(basics, lits, inside, C)
        in0 = self._in0 = sigs[c0]  # whether c0 lies in each measure's extension
        # the classes on the other side of measure i's extension from c0
        self._side = [[c for c in range(C) if sigs[c][i] != in0[i]] for i in range(T)]
        names = [{c: f"x_{i}_{c}" for c in range(C) if c != c0} for i in range(T)]
        self._names = names
        self.variables = [x for row in names for x in row.values()]
        rows: list[tuple[dict, lp.Relation, Fraction]] = []
        # each measure leaves c0 a mass >= 0
        for row in names:
            rows.append((dict.fromkeys(row.values(), -ONE), lp.Relation.GE, -ONE))
        # dominance: measure i attains the max on its own extension; c0's
        # mass, shared by every measure, cancels
        for i, side in enumerate(self._side):
            s = -ONE if in0[i] else ONE
            for j in range(T):
                if j != i:
                    row = {names[i][c]: s for c in side}
                    row.update({names[j][c]: -s for c in side})
                    rows.append((row, lp.Relation.GE, Fraction(0)))
        # the disjunct's constraints over the y_i = mu_i(extension_i)
        for b, by_measure in zip(basics, lits):
            rel = lp.Relation.GT if b.rel is Rel.GT else lp.Relation.GE
            row, const = self._linear(by_measure)
            rows.append((row, rel, b.bound - const))
        self.rows = rows

    def _by_measure(self, t: Term) -> dict[int, Fraction]:
        """The term's coefficient on each measure."""
        by_measure: dict[int, Fraction] = {}
        for coeff, phi in t.parts:
            i = self._arg_cache[phi]
            by_measure[i] = by_measure.get(i, 0) + coeff
        return by_measure

    def _linear(self, by_measure: dict[int, Fraction]) -> tuple[dict, Fraction]:
        """sum_i coeff_i * mu_i(extension_i) as (row, constant): the row over
        the columns, the constant the term's value at c0's point mass."""
        row: dict = {}
        const = Fraction(0)
        for i, coeff in by_measure.items():
            if self._in0[i]:  # mu_i(extension_i) = 1 - mu_i(the rest)
                const += coeff
                coeff = -coeff
            names = self._names[i]
            for c in self._side[i]:
                row[names[c]] = coeff
        return row, const

    def term_row(self, t: Term) -> tuple[dict, Fraction]:
        """The term as (row, constant): its value is row.x + constant."""
        return self._linear(self._by_measure(t))

    def system(self) -> lp.LinearSystem:
        return lp.make_system(self.variables, self.rows)

    def measures(self, point: dict) -> list[dict]:
        out = []
        for names in self._names:
            mass = {c: point[x] for c, x in names.items()}
            mass[self.c0] = ONE - sum(mass.values())
            out.append({
                self.worlds.ids[w]: mass[c]
                for c, w in enumerate(self.class_rep) if mass[c]
            })
        return out


def _pivot_class(basics: Sequence[Basic], lits: list[dict], inside: list, C: int) -> int:
    """The lowest class whose point mass violates the fewest literals.

    At the point mass on class c, mu_i(extension_i) is 1 if c lies inside
    it and 0 if not; each literal is compared in integers, over the lcm of
    its coefficients' and bound's denominators."""
    if C == 1:
        return 0
    violated = [0] * C
    for b, by_measure in zip(basics, lits):
        ratios = [a.as_integer_ratio() for a in by_measure.values()]
        bn, bd = b.bound.as_integer_ratio()
        den = math.lcm(bd, *[d for _, d in ratios])
        value = [0] * C
        for i, (n, d) in zip(by_measure, ratios):
            if n:
                n *= den // d
                for c in inside[i]:
                    value[c] += n
        bound = bn * (den // bd)
        strict = b.rel is Rel.GT
        for c, x in enumerate(value):
            if x < bound or (strict and x == bound):
                violated[c] += 1
    return violated.index(min(violated))


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
        assignment={w: {p: bool(col >> i & 1) for p, col in worlds.columns.items()}
                    for i, w in enumerate(worlds.ids)},
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
        system, (obj, const) = dlp.system(), dlp.term_row(t)
        lo = lp.optimize(system, obj, lp.Direction.MIN)
        if lo.verdict is lp.Verdict.INFEASIBLE:
            continue
        hi = lp.optimize(system, obj, lp.Direction.MAX)
        if lo.verdict is not lp.Verdict.OPTIMAL or hi.verdict is not lp.Verdict.OPTIMAL:
            raise InternalCheckError("term range must be bounded over measures")
        lo_value, hi_value = lo.value + const, hi.value + const
        if lower is None or (lo_value, not lo.attained) < (lower[0], not lower[1]):
            lower = (lo_value, lo.attained)
        if upper is None or (hi_value, hi.attained) > upper:
            upper = (hi_value, hi.attained)
    if lower is None:
        raise UnsatInputError("formula is unsatisfiable; no bounds exist")
    return BoundsResult(
        lower=lower[0],
        lower_attained=lower[1],
        upper=upper[0],
        upper_attained=upper[1],
    )
