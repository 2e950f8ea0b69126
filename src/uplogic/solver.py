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

An upper probability is a maximum, and a literal uses only one direction
of its definition (the polarity argument of Plaisted & Greenbaum, 1986).
Polarity is read off each literal's integer coefficients, merged per
argument.  An argument of a bounds term keeps its measure and its rows,
since the objective reads its exact value; for every other argument:
  - rule 1: an argument whose every nonzero occurrence is a one-term upper
    bound (a negative coefficient, alone in its literal) gets no measure,
    and each of its literals is one row per remaining measure over its
    extension: a maximum is <= c iff every measure is.  If no argument
    keeps a measure, the first one does;
  - rule 2: a measure whose argument has no negative coefficient gets no
    dominance rows of its own, while every other measure keeps its rows
    against it: the model reads the maximum where the LP read the
    witness's value, and a positive coefficient only raises a left-hand
    side, so a solution is still a model.
Dropping rows relaxes the LP, so an infeasible LP refutes the disjunct;
every model of the disjunct gives a point (its witnesses, less those of
rule 1), so verdicts and bounds ends are those of the full LP.

Each distinct argument's extension mask is walked once per formula.
Atoms that lie in the same extensions are interchangeable, so the LP
merges them into one class: the classes are the atoms the extensions
generate, found as masks by splitting the mask of all worlds by each
argument's extension in turn (no work per world), and listed in order of
their lowest world, which represents the class and gets any mass found
on it.  Every measure shares one pivot class c0, whose mass is
1 - sum_(c != c0) x[i][c], so the LP has a column x[i][c] >= 0 for every
measure and every class but c0:
  - measure rows -sum_(c != c0) x[i][c] >= -1 keep c0's mass >= 0;
  - dominance rows stay homogeneous, because c0's mass cancels: measure
    i's row runs over the classes on the other side of phi_i's extension
    from c0, its sign flipped when c0 lies inside;
  - a literal row's value at c0's point mass, sum coeff_i [c0 in ext_i],
    moves to its bound.
The origin is every measure's point mass on c0, where every measure and
dominance row holds, so phase 1 needs an artificial column only for the
literal rows that this one-world structure violates; c0 is the class
whose point mass violates the fewest rows (a rule-1 literal's rows are
violated together), the lowest on a tie.  A disjunct with a single class
has no column, and its rows are constant comparisons.  The
substitution is one-to-one, so it changes no verdict and no bounds end,
only the vertex reached.  Each row is stated once, in ints over the
columns as lp takes it: entries +-1 over 1 for measure and dominance
rows, and for a literal its numerators over the lcm of its denominators
(the integers that chose c0), since a row's slack column has the row's
denominator as its entry (lp) and a rescaled row would steer Dantzig's
rule elsewhere.

A model lists only the worlds where some measure puts mass, and each
distinct measure once.  Neither changes an upper probability, and both
keep it small: the simplex stops at a basic point, whose nonzero columns
are at most the LP's rows, so the worlds are at most its rows plus c0's
representative (the small-model property, over the rows the rules above
leave).  Every SAT answer, in exactly the form it is returned, is
re-checked by the model checker.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import errors, lp
from .errors import InternalCheckError, UplogicError
from .formula import (
    Basic,
    LAnd,
    LNot,
    LOr,
    LikelihoodFormula,
    PropFormula,
    Rel,
    Term,
    atom_columns,
    basics_of,
    dnf,
    extension_mask,
    normalize,
    props_of,
)
from .record import Record
from .semantics import evaluate
from .structure import UpperProbStructure


class UnsatInputError(UplogicError):
    """Raised when bounds are requested for an unsatisfiable formula."""


class SatVerdict(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


class SatResult(Record):
    __slots__ = ("verdict", "model", "stats")

    def __init__(self, verdict: SatVerdict, model: Optional[UpperProbStructure] = None,
                 stats: Optional[dict] = None):
        super().__init__(verdict, model, stats)


class ValidityResult(Record):
    __slots__ = ("valid", "countermodel")

    def __init__(self, valid: bool, countermodel: Optional[UpperProbStructure] = None):
        super().__init__(valid, countermodel)


class BoundsResult(Record):
    __slots__ = ("lower", "lower_attained", "upper", "upper_attained")

    def __init__(self, lower: Fraction, lower_attained: bool, upper: Fraction,
                 upper_attained: bool):
        super().__init__(lower, lower_attained, upper, upper_attained)


class _Worlds:
    """The atom worlds of a formula's proposition set and the extension of
    each of its likelihood arguments: world i is atom i of
    atom_columns(props), each proposition has a column of the worlds where
    it is true, and masks maps each of the distinct args to the mask of
    the worlds where it holds, walked once per formula.  World i's id, w
    followed by i's n bits, is made only for the worlds a model keeps."""

    def __init__(self, props: Sequence[str], args: Iterable[PropFormula]):
        self.props = tuple(props)
        self.columns = atom_columns(props)
        self.full = (1 << (1 << len(props))) - 1
        self.masks = {phi: extension_mask(phi, self.columns, self.full) for phi in args}

    def id(self, w: int) -> str:
        return "w" + format(w, f"0{len(self.props)}b")


ONE = Fraction(1)


class _DisjunctLP:
    """Witness LP for one conjunction of normalized basic constraints.

    Argument i is the i-th distinct extension (worlds.masks) of the
    literals' arguments, then of extra_args' (a bounds term's addends,
    whose exact value the objective reads).  The classes are the masks
    that refinement by every argument's extension leaves, class_rep their
    lowest worlds.  The arguments that keep a witness measure (rule 1 in
    the module docstring) are numbered in order, and _measure maps each to
    its measure.  Every measure puts on the pivot class c0 the mass its
    other columns leave, 1 - sum_(c != c0) x[k][c], so c0 has no column;
    x[k][c] is column k*(C-1) + j, for c the j-th class other than c0.  The
    module docstring gives the rows and why the simplex starts at c0's
    point mass.  Each row is stated once, as lp states it: ints over the
    column indices, over the lcm of the row's denominators."""

    def __init__(self, worlds: _Worlds, basics: Sequence[Basic], extra_args=()):
        ext = self._ext = worlds.masks
        # extension mask -> argument index, in order of first appearance in
        # the literals, then in extra_args; each literal's coefficient on each
        # argument, and its bound, in ints
        index = self._index = {}
        lits = [_integer_literal([(index.setdefault(ext[phi], len(index)), a)
                                  for a, phi in b.term.parts], b.bound)
                for b in basics]
        exact = {index.setdefault(ext[phi], len(index)) for _, phi in extra_args}
        # polarity, read off the nonzero coefficients: a bounds-term argument
        # keeps its measure and its dominance rows; otherwise an argument
        # keeps its dominance rows only if some coefficient on it is negative
        # (rule 2), and its measure only if it occurs other than in a
        # one-term upper bound (rule 1)
        ranked, witnessed = set(exact), set(exact)
        upper = []  # each literal's argument if it is a one-term upper bound
        for nums, _, _ in lits:
            occurs = [(i, a) for i, a in nums.items() if a]
            if len(occurs) == 1 and occurs[0][1] < 0:
                i = occurs[0][0]
                ranked.add(i)
                upper.append(i)
            else:
                upper.append(None)
                for i, a in occurs:
                    witnessed.add(i)
                    if a < 0:
                        ranked.add(i)
        kept = [i for i in range(len(index)) if i in witnessed] or [0]
        measure = self._measure = {i: k for k, i in enumerate(kept)}
        T = len(kept)
        # each literal's rows: one per measure for a one-term upper bound on
        # an argument without a measure, else one over the arguments' own
        spread = [(None,) if i is None or i in measure else range(T) for i in upper]
        # the classes: the worlds split by every argument's extension, in
        # order of their lowest world, which represents them
        classes = [worlds.full]
        for m in index:
            classes = [part for c in classes for part in (c & m, c & ~m) if part]
        classes.sort(key=lambda c: c & -c)
        self.class_rep = [(c & -c).bit_length() - 1 for c in classes]
        C = len(classes)

        inside = [[c for c, cm in enumerate(classes) if cm & m] for m in index]
        c0 = self.c0 = _pivot_class(basics, lits, spread, inside, C)
        in0 = self._in0 = [bool(classes[c0] & m) for m in index]  # c0 inside each extension
        width = self._width = C - 1  # each measure's number of columns
        # the classes on the other side of argument i's extension from c0, as
        # their places in a measure's columns
        side = self._side = [
            [c - (c > c0) for c, cm in enumerate(classes) if bool(cm & m) != i0]
            for m, i0 in zip(index, in0)]
        GE = lp.Relation.GE
        # each measure leaves c0 a mass >= 0
        rows = [lp.Constraint(dict.fromkeys(range(k * width, (k + 1) * width), -1), GE, -1, 1)
                for k in range(T)]
        # dominance: measure k attains the max on its argument's extension;
        # c0's mass, shared by every measure, cancels
        for k, i in enumerate(kept):
            if i in ranked:
                s = -1 if in0[i] else 1
                own = {k * width + j: s for j in side[i]}
                for l in range(T):
                    if l != k:
                        row = own.copy()
                        row.update({l * width + j: -s for j in side[i]})
                        rows.append(lp.Constraint(row, GE, 0, 1))
        # the disjunct's constraints over the mu_k(extension_i)
        for b, (nums, bound, den), ks in zip(basics, lits, spread):
            rel = lp.Relation.GT if b.rel is Rel.GT else GE
            for k in ks:
                row, rhs, d = self._row(nums, bound, den, k)
                rows.append(lp.Constraint(row, rel, rhs, d))
        self.system = lp.make_system(T * width, rows)

    def _row(self, nums: dict[int, int], bound: int, den: int,
             k: Optional[int] = None) -> tuple[dict, int, int]:
        """The literal sum_i nums_i * mu(extension_i) against bound, each
        side over den, as (row, bound, den) over the columns in lowest
        terms, as lp states a row: mu is measure k, or argument i's own
        measure when k is None, and the term's value at c0's point mass
        moves to the bound.  An argument whose coefficient is 0 adds
        nothing, and needs no measure."""
        row: dict[int, int] = {}
        width = self._width
        for i, a in nums.items():
            if a:
                if self._in0[i]:  # mu(extension_i) = 1 - mu(the rest)
                    bound -= a
                    a = -a
                first = (self._measure[i] if k is None else k) * width
                for j in self._side[i]:
                    row[first + j] = a
        g = math.gcd(den, bound, *row.values())
        if g > 1:
            row, bound, den = {j: x // g for j, x in row.items()}, bound // g, den // g
        return row, bound, den

    def term_row(self, t: Term) -> tuple[tuple[dict[int, int], int], Fraction]:
        """The term as ((row, den), constant): its value is row.x / den +
        constant, and den is the lcm of the denominators of the row's
        entries and the constant."""
        parts = [(self._index[self._ext[phi]], a) for a, phi in t.parts]
        row, bound, den = self._row(*_integer_literal(parts, Fraction(0)))
        return (row, den), Fraction(-bound, den)

    def measures(self, point: Mapping[int, Fraction]) -> list[dict[int, Fraction]]:
        """Each measure at point (lp's column -> nonzero value) as its
        nonzero masses, world -> mass in world order: column j is measure
        j // width's k-th column, k = j % width, whose class is k, or k + 1
        from c0 on, and c0's representative gets the mass the others leave."""
        reps, width, c0 = self.class_rep, self._width, self.c0
        masses: list[dict[int, Fraction]] = [{} for _ in self._measure]
        for j, x in point.items():
            i, k = divmod(j, width)
            masses[i][k + (k >= c0)] = x
        for mass in masses:
            rest = ONE - sum(mass.values())
            if rest:
                mass[c0] = rest
        return [{reps[c]: mass[c] for c in sorted(mass)} for mass in masses]


def _integer_literal(parts: list[tuple[int, Fraction]], bound: Fraction):
    """(nums, B, L) for a term's addends (argument, coefficient) and a bound:
    each argument's coefficient and the bound as ints over L, a common
    denominator."""
    ratios = [(i, *a.as_integer_ratio()) for i, a in parts]
    bn, bd = bound.as_integer_ratio()
    den = math.lcm(bd, *[d for _, _, d in ratios])
    nums: dict[int, int] = {}
    for i, n, d in ratios:
        nums[i] = nums.get(i, 0) + n * (den // d)
    return nums, bn * (den // bd), den


def _pivot_class(basics: Sequence[Basic], lits: list[tuple], spread: list, inside: list,
                 C: int) -> int:
    """The lowest class whose point mass violates the fewest rows.

    At the point mass on class c, every measure's mass on argument i's
    extension is 1 if c lies inside it and 0 if not, so the rows of a
    literal (one per entry of its spread) are all violated there or none
    is; each literal is compared in integers, as given by
    _integer_literal."""
    if C == 1:
        return 0
    violated = [0] * C
    for b, (nums, bound, _), ks in zip(basics, lits, spread):
        value = [0] * C
        for i, n in nums.items():
            if n:
                for c in inside[i]:
                    value[c] += n
        strict = b.rel is Rel.GT
        for c, x in enumerate(value):
            if x < bound or (strict and x == bound):
                violated[c] += len(ks)
    return violated.index(min(violated))


def _prepare(f: LikelihoodFormula, extra_args: Iterable[PropFormula] = ()):
    """The worlds of f's likelihood arguments and extra_args, their
    propositions within the cap, and f normalized."""
    args = dict.fromkeys([phi for b in basics_of(f) for phi in b.term.args()] + list(extra_args))
    props = sorted({p for phi in args for p in props_of(phi)})
    errors.check_cap(len(props), "distinct propositions", errors.cap())
    return _Worlds(props, args), normalize(f)


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
    system = dlp.system
    lp_sizes.append({"variables": len(system.variables), "rows": len(system.constraints)})
    return dlp, lp.feasible(system)


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


def _structure_from(worlds: _Worlds, measures: list[dict[int, Fraction]]) -> UpperProbStructure:
    """The structure of the measures' supports: equal measures merged, in
    order of first appearance, over the worlds where some measure puts
    mass, in world order.  Neither changes any upper probability: a max
    over a set ignores repeats, and a world outside every support adds 0
    to every measure's mass on every extension."""
    distinct = list(dict.fromkeys(tuple(mu.items()) for mu in measures))
    ids = {w: worlds.id(w) for w in sorted({w for mu in distinct for w, _ in mu})}
    columns = worlds.columns.items()
    return UpperProbStructure(
        props=worlds.props,
        worlds=tuple(ids.values()),
        assignment={i: {p: bool(col >> w & 1) for p, col in columns} for w, i in ids.items()},
        measures=tuple({ids[w]: x for w, x in mu} for mu in distinct),
    )


def sat(f: LikelihoodFormula) -> SatResult:
    """SAT with a verified witness structure, or UNSAT.

    The model, when present, has the atom worlds where some measure puts
    mass, and at most one measure per distinct likelihood argument of the
    satisfied disjunct, equal measures merged.
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
    worlds, g = _prepare(f, t.args())
    lower: Optional[tuple[Fraction, bool]] = None
    upper: Optional[tuple[Fraction, bool]] = None
    for basics in _disjuncts(worlds, g, []):
        dlp = _DisjunctLP(worlds, basics, extra_args=t.parts)
        obj, const = dlp.term_row(t)
        lo = lp.optimize(dlp.system, obj, lp.Direction.MIN)
        if lo.verdict is lp.Verdict.INFEASIBLE:
            continue
        hi = lp.optimize(dlp.system, obj, lp.Direction.MAX)
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
