import collections
import math
import random
from fractions import Fraction as F

import pytest

from uplogic import lp, solver
from uplogic.errors import ResourceError
from uplogic.formula import (
    Basic, LNot, Not, Prop, Rel, Term, dnf, lconj_all, normalize,
)
from uplogic.parser import parse_likelihood, parse_term
from uplogic.semantics import eval_term, evaluate
from uplogic.solver import SatVerdict, UnsatInputError, bounds, sat, valid

from conftest import random_structure
from test_formula import _random_lform, _random_term
from test_lp import fraction_rows, fraction_system, objective

p, q = Prop("p"), Prop("q")


class TestSat:
    def test_simple_sat_with_model(self):
        res = sat(parse_likelihood("l(p) >= 1/2 & l(!p) >= 3/4"))
        assert res.verdict is SatVerdict.SAT
        assert evaluate(res.model, parse_likelihood("l(p) >= 1/2 & l(!p) >= 3/4"))

    def test_subadditivity_forces_unsat(self):
        # l(p v q) > l(p) + l(q) contradicts subadditivity of sup-measures
        res = sat(parse_likelihood("l(p | q) - l(p) - l(q) > 0"))
        assert res.verdict is SatVerdict.UNSAT

    def test_strict_zero_unsat(self):
        res = sat(parse_likelihood("l(true) < 1"))
        assert res.verdict is SatVerdict.UNSAT

    def test_no_propositions(self):
        res = sat(parse_likelihood("l(true) = 1"))
        assert res.verdict is SatVerdict.SAT
        assert res.model.worlds == ("w0",)

    def test_model_shape(self):
        f = parse_likelihood("l(p) >= 1/3 & l(q) >= 1/3 & l(p & q) = 0")
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        # the worlds that carry mass, of the 2^N atom worlds, and at most
        # one measure per distinct argument, equal measures merged
        assert len(res.model.worlds) <= 4
        assert len(res.model.measures) <= 3
        assert evaluate(res.model, f)

    def test_disjunction_picks_feasible_branch(self):
        f = parse_likelihood("l(true) < 1 | l(p) = 2/3")
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        assert evaluate(res.model, f)

    def test_prop_cap(self, monkeypatch):
        monkeypatch.setenv("UPLOGIC_ATOM_CAP", "4")
        f = lconj_all([
            Basic(Term(((F(1), Prop(f"p{i}")),)), Rel.GE, F(0))
            for i in range(5)
        ])
        with pytest.raises(ResourceError):
            sat(f)

    def test_stats_present(self):
        res = sat(parse_likelihood("l(p) >= 1 | l(q) >= 1"))
        assert res.stats["disjuncts"] == 2


class TestRandomRoundTrip:
    def test_sat_models_verify(self):
        rng = random.Random(101)
        sat_count = 0
        for _ in range(120):
            f = _random_lform(rng, 3)
            res = sat(f)
            if res.verdict is SatVerdict.SAT:
                sat_count += 1
                assert evaluate(res.model, f)
        assert sat_count > 20

    def test_unsat_agrees_with_random_search(self):
        # no randomly generated structure may satisfy a formula called UNSAT
        rng = random.Random(103)
        unsat = []
        for _ in range(120):
            f = _random_lform(rng, 3)
            if sat(f).verdict is SatVerdict.UNSAT:
                unsat.append(f)
        assert unsat
        for f in unsat:
            for _ in range(30):
                assert not evaluate(random_structure(rng), f)

    def test_negation_coherence(self):
        # f and ~f cannot both be UNSAT
        rng = random.Random(107)
        for _ in range(60):
            f = _random_lform(rng, 3)
            if sat(f).verdict is SatVerdict.UNSAT:
                assert sat(LNot(f)).verdict is SatVerdict.SAT


class TestValid:
    def test_axiom_suite(self):
        for text in [
            "l(true) = 1",                       # total mass
            "l(false) = 0",                      # empty event
            "l(p) >= 0",                         # nonnegativity
            "l(p) + l(!p) >= 1",                 # superadditive dual pair
            "l(p | q) - l(p) - l(q) <= 0",       # subadditivity
            "~(l(p) > 1)",                       # range
        ]:
            assert valid(parse_likelihood(text)).valid, text

    def test_equivalent_argument_substitution(self):
        assert valid(parse_likelihood("l(p -> q) - l(!(p & !q)) = 0")).valid

    def test_invalid_with_countermodel(self):
        f = parse_likelihood("l(p) >= 1/2")
        res = valid(f)
        assert not res.valid
        assert not evaluate(res.countermodel, f)

    def test_additivity_not_valid(self):
        # upper probabilities need not be additive
        res = valid(parse_likelihood("l(p) + l(!p) = 1"))
        assert not res.valid

    def test_l4_instances_all_valid(self):
        from uplogic.covers import l4_instances
        pool = [p, Not(p), q, Not(q)]
        count = 0
        for inst in l4_instances(pool, 2):
            assert valid(inst).valid
            count += 1
        assert count > 0


class TestBounds:
    def test_simple_interval(self):
        res = bounds(parse_likelihood("l(p) >= 1/3 & l(p) <= 2/3"),
                     parse_term("l(p)"))
        assert (res.lower, res.upper) == (F(1, 3), F(2, 3))
        assert res.lower_attained and res.upper_attained

    def test_open_endpoint(self):
        res = bounds(parse_likelihood("l(p) > 1/3"), parse_term("l(p)"))
        assert res.lower == F(1, 3) and not res.lower_attained
        assert res.upper == 1 and res.upper_attained

    def test_unconstrained_term(self):
        res = bounds(parse_likelihood("l(p) >= 0"), parse_term("l(q)"))
        assert (res.lower, res.upper) == (F(0), F(1))

    def test_derived_bound(self):
        # from l(p v q) = 1/2, subadditivity forces l(p) + l(q) >= 1/2
        res = bounds(parse_likelihood("l(p | q) = 1/2"),
                     parse_term("l(p) + l(q)"))
        assert res.lower == F(1, 2) and res.lower_attained
        assert res.upper == 1

    def test_unsat_input(self):
        with pytest.raises(UnsatInputError):
            bounds(parse_likelihood("l(true) = 0"), parse_term("l(p)"))

    def test_disjunction_takes_widest(self):
        res = bounds(parse_likelihood("l(p) = 1/4 | l(p) = 3/4"),
                     parse_term("l(p)"))
        assert (res.lower, res.upper) == (F(1, 4), F(3, 4))

    def test_bounds_are_sharp_on_models(self):
        rng = random.Random(109)
        f = parse_likelihood("l(p) >= 1/3 & 2 l(q) - l(p) <= 1/2")
        res = bounds(f, parse_term("l(q)"))
        for _ in range(200):
            M = random_structure(rng)
            if evaluate(M, f):
                got = eval_term(M, parse_term("l(q)"))
                assert res.lower <= got <= res.upper


def _random_suite_formulas():
    """The formulas of the random suites above, with their negations, and
    deeper ones whose branches mix units with clauses more often."""
    out = []
    for seed, n, depth in [(101, 120, 3), (103, 120, 3), (107, 60, 3), (113, 60, 5)]:
        rng = random.Random(seed)
        for _ in range(n):
            f = _random_lform(rng, depth)
            out += [f, LNot(f)]
    return out


def reference_sat(f):
    """The eager search: one LP per disjunct of dnf(normalize(f)), in order,
    up to the first feasible one."""
    worlds, _ = solver._prepare(f)
    disjuncts = dnf(normalize(f))
    for basics in disjuncts:
        dlp = solver._DisjunctLP(worlds, basics)
        outcome = lp.feasible(dlp.system)
        if outcome.verdict is lp.Verdict.FEASIBLE:
            model = solver._structure_from(worlds, dlp.measures(outcome.point))
            return SatVerdict.SAT, model, len(disjuncts)
    return SatVerdict.UNSAT, None, len(disjuncts)


def _clauses(k):
    return " & ".join(["(l(p) >= 1/3 | l(q) <= 1/2)"] * k)


class TestLazyWalk:
    def test_same_verdict_and_model_as_eager_loop(self):
        for f in _random_suite_formulas():
            res = sat(f)
            verdict, model, n = reference_sat(f)
            assert res.verdict is verdict
            assert res.model == model
            assert res.stats["disjuncts"] == n

    def test_walk_is_dnf_less_refuted_disjuncts(self):
        # the walk is dnf(g) with some disjuncts left out, in order; each one
        # left out is infeasible on its own
        skipped = 0
        for f in _random_suite_formulas():
            worlds, g = solver._prepare(f)
            full = dnf(g)
            walked = iter(solver._disjuncts(worlds, g, []))
            assert solver._count(g) == len(full)
            pending = next(walked, None)
            for basics in full:
                if basics == pending:
                    pending = next(walked, None)
                else:
                    skipped += 1
                    dlp = solver._DisjunctLP(worlds, basics)
                    assert lp.feasible(dlp.system).verdict is lp.Verdict.INFEASIBLE
            assert pending is None
        assert skipped

    def test_forty_clauses_one_lp(self):
        res = sat(parse_likelihood(_clauses(40)))
        assert res.verdict is SatVerdict.SAT
        assert res.stats["disjuncts"] == 2**40
        assert len(res.stats["lp_sizes"]) == 1

    def test_each_extension_once_per_formula(self, monkeypatch):
        # 64 disjunct LPs, each over 6 of the 12 distinct arguments; every
        # argument's extension is walked once, not once per LP
        calls = collections.Counter()
        walk = solver.extension_mask

        def counting(phi, *rest):
            calls[phi] += 1
            return walk(phi, *rest)

        monkeypatch.setattr(solver, "extension_mask", counting)
        res = sat(parse_likelihood(" & ".join(
            f"(l(p{i}) > 1 | l(p{(i + 1) % 6} & p{(i + 2) % 6}) > 1)" for i in range(6))))
        assert res.verdict is SatVerdict.UNSAT
        assert len(res.stats["lp_sizes"]) == 64
        assert len(calls) == 12 and set(calls.values()) == {1}

    @pytest.mark.parametrize("k", [1, 2, 40])
    def test_refuted_unit_one_lp(self, k):
        res = sat(parse_likelihood(_clauses(k) + " & l(p) + l(!p) < 1"))
        assert res.verdict is SatVerdict.UNSAT
        assert res.stats["disjuncts"] == 2**k
        assert len(res.stats["lp_sizes"]) == 1

    def test_unit_lp_then_disjunct(self):
        # a feasible unit check comes before the first disjunct's own LP
        res = sat(parse_likelihood("l(q) >= 1/4 & (l(p) >= 1/2 | l(p) <= 1/4)"))
        assert res.verdict is SatVerdict.SAT
        assert len(res.stats["lp_sizes"]) == 2

    def test_units_alone_get_no_extra_lp(self):
        res = sat(parse_likelihood("l(p) >= 1/2 & l(q) >= 1/2 | l(p) + l(!p) < 1"))
        assert res.verdict is SatVerdict.SAT
        assert len(res.stats["lp_sizes"]) == 1

    def test_refuted_branch_skipped_for_the_next(self):
        f = parse_likelihood(
            "l(p) + l(!p) < 1 & (l(p) >= 1/2 | l(q) >= 1/2) | l(p) = 1/3"
        )
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        assert res.stats["disjuncts"] == 3
        assert len(res.stats["lp_sizes"]) == 2
        assert evaluate(res.model, f)

    def test_bounds_refuted_units_unsat(self):
        f = parse_likelihood(_clauses(3) + " & l(true) < 1")
        with pytest.raises(UnsatInputError):
            bounds(f, parse_term("l(p)"))

    def test_bounds_skip_a_refuted_branch(self):
        f = parse_likelihood(
            "l(true) < 1 & (l(p) >= 1/2 | l(q) >= 1/2) | l(p) = 1/3 | l(p) = 2/3"
        )
        res = bounds(f, parse_term("l(p)"))
        assert (res.lower, res.upper) == (F(1, 3), F(2, 3))

    def test_bounds_beside_forty_refuted_clauses(self):
        # 2**40 disjuncts in the refuted branch, refuted by its units at once
        f = parse_likelihood(
            "(" + _clauses(40) + " & l(p) + l(!p) < 1) | l(p) >= 1/2"
        )
        res = bounds(f, parse_term("l(p)"))
        assert (res.lower, res.lower_attained) == (F(1, 2), True)
        assert (res.upper, res.upper_attained) == (F(1), True)


class TestRepeatedConjuncts:
    """A conjunct that a branch repeats is walked once."""

    def test_bounds_under_forty_equal_clauses(self):
        res = bounds(parse_likelihood(_clauses(40)), parse_term("l(p)"))
        assert (res.lower, res.lower_attained) == (F(0), True)
        assert (res.upper, res.upper_attained) == (F(1), True)

    def test_valid_chain_of_forty_equalities(self):
        # the negation is forty copies of (l(false) < 0 | l(false) > 0)
        f = parse_likelihood(" | ".join(["l(false) = 0"] * 40))
        assert valid(f).valid
        res = sat(LNot(f))
        assert res.verdict is SatVerdict.UNSAT
        assert res.stats["disjuncts"] == 2**40
        assert len(res.stats["lp_sizes"]) == 2

    def test_same_model_as_without_the_repeat(self):
        once = parse_likelihood("l(p) >= 1/3 & (l(q) < 1/2 | l(p) > 2/3)")
        thrice = parse_likelihood(
            "l(p) >= 1/3 & (l(q) < 1/2 | l(p) > 2/3) & l(p) >= 1/3"
            " & (l(q) < 1/2 | l(p) > 2/3) & l(p) >= 1/3")
        a, b = sat(once), sat(thrice)
        assert a.model == b.model and a.stats["lp_sizes"] == b.stats["lp_sizes"]


def _deciding_disjunct(f):
    """The worlds of f and the first disjunct of its walk whose witness LP
    is feasible: the one sat decides on."""
    worlds, g = solver._prepare(f)
    for basics in solver._disjuncts(worlds, g, []):
        if _feasible(solver._DisjunctLP(worlds, basics).system):
            return worlds, basics


class TestSmallModels:
    """A model keeps the worlds where some measure puts mass and each
    distinct measure once, so its size is the paper's small-model bound as
    the simplex gives it: a basic point has at most as many nonzero
    columns as its LP has rows, and the pivot class's representative adds
    one world."""

    def test_every_model_is_small(self):
        seen = collections.Counter()
        for f in _random_suite_formulas():
            res = sat(f)
            if res.verdict is not SatVerdict.SAT:
                continue
            M = res.model
            worlds, basics = _deciding_disjunct(f)
            # each world is the atom its id names, listed in atom order
            assert list(M.worlds) == sorted(M.worlds)
            for w in M.worlds:
                assert M.assignment[w] == {p: w[1 + k] == "1" for k, p in enumerate(M.props)}
            # every world carries mass in some measure
            assert set(M.worlds) == {w for mu in M.measures for w, x in mu.items() if x}
            # no two measures are equal
            assert len(set(map(frozenset, (mu.items() for mu in M.measures)))) == len(M.measures)
            assert M.measure_ids == tuple(f"m{i}" for i in range(len(M.measures)))
            rows = res.stats["lp_sizes"][-1]["rows"]
            assert len(M.worlds) <= rows + 1
            arguments = {worlds.masks[phi] for b in basics for _, phi in b.term.parts}
            assert len(M.measures) <= len(arguments)
            assert evaluate(M, f)
            seen["sat"] += 1
            seen["merged"] += len(M.measures) < len(arguments)
            seen["dropped"] += len(M.worlds) < (1 << len(worlds.props))
        assert min(seen.values()) >= 20, seen

    def test_the_ring_at_twelve_is_one_world(self):
        # l(p_i | p_{i+1}) >= 1/3 around 12 propositions and l(p_0 & ... &
        # p_11) <= 1/5: a point mass satisfies it, and the model is that one
        # world of the 4,096
        ring = " & ".join(f"l(p{i} | p{(i + 1) % 12}) >= 1/3" for i in range(12))
        f = parse_likelihood(ring + " & l(" + " & ".join(f"p{i}" for i in range(12)) + ") <= 1/5")
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        assert res.model.worlds == ("w010101010101",)
        assert res.model.measures == ({"w010101010101": 1},)
        assert evaluate(res.model, f)


class TestBoundsMetamorphic:
    """Each end of bounds(f, t) is checked by sat on f & t compared with it:
    a closed upper end U makes f & t >= U SAT and f & t > U UNSAT; an open
    one makes f & t >= U UNSAT and f & t > U - eps SAT; the lower end the
    mirrored way.  Half the formulas bound t itself by a strict row."""

    EPS = F(1, 10**9)

    def _sat(self, f, t, rel, bound):
        res = sat(lconj_all([f, Basic(t, rel, bound)]))
        return res.verdict is SatVerdict.SAT

    def test_ends_are_sharp(self):
        rng = random.Random(131)
        seen = {"upper closed": 0, "upper open": 0, "lower closed": 0, "lower open": 0}
        for _ in range(200):
            f, t = _random_lform(rng, 2), _random_term(rng)
            if rng.random() < 0.5:  # a strict row on t itself, for open ends
                rel = rng.choice([Rel.GT, Rel.LT])
                f = lconj_all([f, Basic(t, rel, F(rng.randint(-2, 2), rng.randint(1, 3)))])
            try:
                res = bounds(f, t)
            except UnsatInputError:
                continue
            U, L = res.upper, res.lower
            if res.upper_attained:
                assert self._sat(f, t, Rel.GE, U) and not self._sat(f, t, Rel.GT, U)
            else:
                assert not self._sat(f, t, Rel.GE, U) and self._sat(f, t, Rel.GT, U - self.EPS)
            if res.lower_attained:
                assert self._sat(f, t, Rel.LE, L) and not self._sat(f, t, Rel.LT, L)
            else:
                assert not self._sat(f, t, Rel.LE, L) and self._sat(f, t, Rel.LT, L + self.EPS)
            seen["upper closed" if res.upper_attained else "upper open"] += 1
            seen["lower closed" if res.lower_attained else "lower open"] += 1
        assert min(seen.values()) >= 5, seen


class _ReferenceLP:
    """The witness LP without a pivot class: T*C columns, one = 1 row per
    measure, dominance rows over each measure's own extension and each
    term over the classes inside its arguments.  The solver's LP is this
    one after the substitution x[i][c0] = 1 - sum_(c != c0) x[i][c]."""

    def __init__(self, worlds, basics, extra_args=()):
        masks: dict = {}  # extension mask -> measure index
        self.measure_of = {}  # argument -> measure index
        for _, phi in [p for b in basics for p in b.term.parts] + list(extra_args):
            if phi not in self.measure_of:
                mask = worlds.masks[phi]
                self.measure_of[phi] = masks.setdefault(mask, len(masks))
        T = len(masks)
        sigs = list(dict.fromkeys(
            tuple((m >> w) & 1 for m in masks) for w in range(1 << len(worlds.props))))
        C = len(sigs)
        self.names = [[f"x_{i}_{c}" for c in range(C)] for i in range(T)]
        self.inside = [[c for c in range(C) if sigs[c][i]] for i in range(T)]
        rows = [(dict.fromkeys(row, F(1)), lp.Relation.EQ, F(1)) for row in self.names]
        for i, inside in enumerate(self.inside):
            for j in range(T):
                if j != i:
                    row = {self.names[i][c]: F(1) for c in inside}
                    row.update({self.names[j][c]: F(-1) for c in inside})
                    rows.append((row, lp.Relation.GE, F(0)))
        for b in basics:
            rel = lp.Relation.GT if b.rel is Rel.GT else lp.Relation.GE
            rows.append((self.term_row(b.term), rel, b.bound))
        self.variables = [x for row in self.names for x in row]
        self.system = fraction_system(self.variables, rows)

    def term_row(self, t):
        row: dict = {}
        for coeff, phi in t.parts:
            i = self.measure_of[phi]
            for c in self.inside[i]:
                x = self.names[i][c]
                row[x] = row.get(x, 0) + coeff
        return row


def reference_bounds(f, t):
    """bounds(f, t) as (lower, lower attained, upper, upper attained) over
    the reference LP of every disjunct of dnf(normalize(f)); None when f
    is unsatisfiable."""
    worlds, g = solver._prepare(f, t.args())
    lower = upper = None
    for basics in dnf(g):
        ref = _ReferenceLP(worlds, basics, extra_args=t.parts)
        obj = objective(ref.variables, ref.term_row(t))
        lo = lp.optimize(ref.system, obj, lp.Direction.MIN)
        if lo.verdict is lp.Verdict.INFEASIBLE:
            continue
        hi = lp.optimize(ref.system, obj, lp.Direction.MAX)
        if lower is None or (lo.value, not lo.attained) < (lower[0], not lower[1]):
            lower = (lo.value, lo.attained)
        if upper is None or (hi.value, hi.attained) > upper:
            upper = (hi.value, hi.attained)
    return None if lower is None else (*lower, *upper)


def _bounds_or_none(f, t):
    try:
        res = bounds(f, t)
    except UnsatInputError:
        return None
    return (res.lower, res.lower_attained, res.upper, res.upper_attained)


def _feasible(system):
    return lp.feasible(system).verdict is lp.Verdict.FEASIBLE


def _assert_distributions(measures):
    for mu in measures:
        assert all(x > 0 for x in mu.values())
        assert sum(mu.values()) == 1


class TestPivotClass:
    """The solver's LP, with the pivot class c0 substituted out, against
    the reference LP with a column for every (measure, class)."""

    def test_same_verdict_on_every_disjunct(self):
        feasible = 0
        for f in _random_suite_formulas():
            worlds, g = solver._prepare(f)
            for basics in dnf(g):
                dlp = solver._DisjunctLP(worlds, basics)
                ref = _ReferenceLP(worlds, basics)
                outcome = lp.feasible(dlp.system)
                assert (outcome.verdict is lp.Verdict.FEASIBLE) == _feasible(ref.system)
                if outcome.verdict is lp.Verdict.FEASIBLE:
                    feasible += 1
                    _assert_distributions(dlp.measures(outcome.point))
        assert feasible > 100

    def test_same_bounds_on_random_pairs(self):
        rng = random.Random(137)
        seen = {"open": 0, "unsat": 0}
        for _ in range(150):
            f, t = _random_lform(rng, 2), _random_term(rng)
            if rng.random() < 0.5:  # a strict row on t itself, for open ends
                rel = rng.choice([Rel.GT, Rel.LT])
                f = lconj_all([f, Basic(t, rel, F(rng.randint(-2, 2), rng.randint(1, 3)))])
            got = _bounds_or_none(f, t)
            assert got == reference_bounds(f, t)
            if got is None:
                seen["unsat"] += 1
            elif not (got[1] and got[3]):
                seen["open"] += 1
        assert min(seen.values()) >= 5, seen

    HAND_BUILT = [
        # the pivot class inside every argument
        ("l(p) >= 1/2 & l(p | q) >= 1/2 & l(q) >= 1/3", True),
        # the pivot class outside every argument
        ("l(p) <= 1/2 & l(q) < 1 & l(p & q) <= 1/4", False),
        # mixed-sign terms
        ("l(p) - l(q) >= 1/4 & 2 l(q) - l(p | q) > -1/2 & l(!p) > 0", None),
        ("l(p) - 2 l(!p) >= 0 & l(q) - l(!q) <= 0 & l(p & !q) - l(q) > 0", None),
        # a strict literal met only in the limit
        ("l(p) > 1/2 & l(p) <= 1/2", None),
        ("l(p) > 1/3 & l(p) < 1/2", None),
        ("l(p) + l(!p) > 1 & l(p) <= 1/2 & l(!p) <= 1/2", None),
        # a measure above 1 on one argument
        ("l(p) >= 3/2", None),
        # one class: no columns
        ("l(true) >= 1/2", True),
        ("l(p | !p) > 0", True),
        ("l(true) < 1", True),
        ("l(false) > 0", False),
    ]

    @pytest.mark.parametrize("text, c0_inside", HAND_BUILT)
    def test_hand_built_disjuncts(self, text, c0_inside):
        f = parse_likelihood(text)
        worlds, g = solver._prepare(f, [p, q])
        [basics] = dnf(g)
        dlp = solver._DisjunctLP(worlds, basics)
        if c0_inside is not None:
            assert all(dlp._in0) is c0_inside and any(dlp._in0) is c0_inside
        if len(dlp.class_rep) == 1:  # no columns: every row a constant comparison
            assert dlp.system.variables == range(0)
            assert all(not c.coeffs for c in dlp.system.constraints)
        outcome = lp.feasible(dlp.system)
        verdict = outcome.verdict is lp.Verdict.FEASIBLE
        assert verdict == _feasible(_ReferenceLP(worlds, basics).system)
        assert (sat(f).verdict is SatVerdict.SAT) == verdict
        if verdict:
            _assert_distributions(dlp.measures(outcome.point))
        for term in ["l(p)", "l(q)", "l(p) - l(q)", "l(true)", "2 l(!p) + l(p & q)"]:
            t = parse_term(term)
            assert _bounds_or_none(f, t) == reference_bounds(f, t), term

    def test_many_lower_bounds_on_one_argument(self):
        # each row holds at the pivot class's point mass, so it starts on
        # its own slack: one LP and no artificial column
        n = 400
        f = parse_likelihood(" & ".join(f"l(p) >= 1/{i + 2}" for i in range(n)))
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        assert res.stats["lp_sizes"] == [{"variables": 1, "rows": n + 1}]
        worlds, g = solver._prepare(f)
        [basics] = dnf(g)
        assert solver._DisjunctLP(worlds, basics).system._phase_one.art_cols == set()


class _FractionDisjunctRows:
    """The solver's witness LP built in Fractions: rows over the names
    x_k_c, with the same polarity rules and the same pivot class found in
    Fractions.  Rule 1: an argument outside the bounds term whose every
    occurrence is a one-term upper bound has no measure, and each of its
    literals is one row per measure (the first argument keeps one if no
    argument would).  Rule 2: a measure has dominance rows only if its
    argument is in the bounds term or carries a negative coefficient.  The
    solver states each row once in integers; read back as Fractions, its
    rows must be these, and each over the lcm of these rows' denominators,
    since a row's denominator is its slack's entry in the tableau."""

    def __init__(self, worlds, basics, extra_args=()):
        masks: dict = {}  # extension mask -> argument index
        self.arg_of = {}  # argument -> argument index
        for _, phi in [p for b in basics for p in b.term.parts] + list(extra_args):
            if phi not in self.arg_of:
                mask = worlds.masks[phi]
                self.arg_of[phi] = masks.setdefault(mask, len(masks))
        A = len(masks)
        sigs = list(dict.fromkeys(
            tuple((m >> w) & 1 for m in masks) for w in range(1 << len(worlds.props))))
        C = len(sigs)
        merged = [self.merged(b.term) for b in basics]
        exact = {self.arg_of[phi] for _, phi in extra_args}
        upper_only = {i for i in range(A) if i not in exact and all(
            len(co) == 1 and co[i] < 0 for co in merged if i in co)}
        kept = [i for i in range(A) if i not in upper_only] or [0]
        self.measure_of = {i: k for k, i in enumerate(kept)}
        ranked = [i for i in kept if i in exact or any(co.get(i, 0) < 0 for co in merged)]
        # each literal row as (basic index, measure or None for the
        # arguments' own)
        self.literal_of = [
            (n, k) for n, co in enumerate(merged)
            for k in (range(len(kept)) if set(co) - set(kept) else [None])]

        def value_at(co, c):  # a literal row at the point mass on class c
            return sum((a for i, a in co.items() if sigs[c][i]), F(0))

        def violated(c):
            return sum(1 for n, _ in self.literal_of
                       if value_at(merged[n], c) < basics[n].bound
                       or (basics[n].rel is Rel.GT and value_at(merged[n], c) == basics[n].bound))

        self.c0 = c0 = min(range(C), key=lambda c: (violated(c), c))
        self.in0 = sigs[c0]
        self.side = [[c for c in range(C) if sigs[c][i] != self.in0[i]] for i in range(A)]
        self.names = [{c: f"x_{k}_{c}" for c in range(C) if c != c0} for k in range(len(kept))]
        self.variables = [x for row in self.names for x in row.values()]
        ONE = F(1)
        self.rows = [(dict.fromkeys(row.values(), -ONE), lp.Relation.GE, -ONE)
                     for row in self.names]
        for i in ranked:
            k = self.measure_of[i]
            s = -ONE if self.in0[i] else ONE
            for l in range(len(kept)):
                if l != k:
                    row = {self.names[k][c]: s for c in self.side[i]}
                    row.update({self.names[l][c]: -s for c in self.side[i]})
                    self.rows.append((row, lp.Relation.GE, F(0)))
        for n, k in self.literal_of:
            b = basics[n]
            rel = lp.Relation.GT if b.rel is Rel.GT else lp.Relation.GE
            row, const = self.row(merged[n], k)
            self.rows.append((row, rel, b.bound - const))

    def merged(self, t):
        """The term's nonzero coefficient on each argument."""
        by_arg: dict = {}
        for coeff, phi in t.parts:
            i = self.arg_of[phi]
            by_arg[i] = by_arg.get(i, 0) + coeff
        return {i: a for i, a in by_arg.items() if a}

    def row(self, co, k=None):
        """The coefficients co over measure k, or each argument's own
        measure, as (row, constant): the constant is the value at c0."""
        row, const = {}, F(0)
        for i, coeff in co.items():
            if self.in0[i]:
                const += coeff
                coeff = -coeff
            m = self.measure_of[i] if k is None else k
            for c in self.side[i]:
                row[self.names[m][c]] = coeff
        return row, const

    def term_row(self, t):
        return self.row(self.merged(t))


def _lcm_of_denominators(row, bound):
    return math.lcm(*[x.denominator for x in row.values()],
                    bound.denominator if bound else 1)


class TestIntegerRows:
    """The solver states each row of its witness LP once, as ints over the
    columns: read back as Fractions, they are the rows of the Fraction
    reference, each over the lcm of its denominators."""

    # literals whose row has a smaller denominator than the literal: an
    # addend on l(true) or l(false) has no column, and the bound can cancel
    # against the pivot class's value
    REDUCED = [
        "l(p) + 1/2 l(true) >= 1/2 & l(q) <= 1/2",
        "1/3 l(p | !p) + l(q) > 1/3 & 1/6 l(false) - l(p) >= -5/6",
        "2/3 l(true) + l(q) >= 2/3 & l(p) >= 1/4",
        "1/2 l(p) + 1/2 l(p) >= 1/2 & 3/2 l(q) - 1/2 l(q) < 1",
    ]

    def _compare(self, worlds, basics, t, seen):
        dlp = solver._DisjunctLP(worlds, basics, extra_args=t.parts)
        ref = _FractionDisjunctRows(worlds, basics, extra_args=t.parts)
        assert dlp.c0 == ref.c0
        system = dlp.system
        assert system.variables == range(len(ref.variables))
        named = [({ref.variables[j]: x for j, x in co.items()}, rel, b)
                 for co, rel, b in fraction_rows(system)]
        want = [({x: a for x, a in co.items() if a}, rel, b) for co, rel, b in ref.rows]
        assert named == want
        assert [c.den for c in system.constraints] == [
            _lcm_of_denominators(co, b) for co, _, b in want]
        (obj, den), const = dlp.term_row(t)
        ref_obj, ref_const = ref.term_row(t)
        assert {ref.variables[j]: F(x, den) for j, x in obj.items()} == ref_obj
        # the objective's scale does not steer the simplex: only its row's
        # ratios enter Dantzig's rule, and the constant shares its den
        assert den == _lcm_of_denominators(ref_obj, ref_const) and const == ref_const
        seen["disjuncts"] += 1
        seen["den > 1"] += sum(c.den > 1 for c in system.constraints)
        seen["c0 > 0"] += dlp.c0 > 0
        literals = system.constraints[len(system.constraints) - len(ref.literal_of):]
        seen["reduced"] += sum(
            c.den < math.lcm(b.bound.denominator, *[a.denominator for a, _ in b.term.parts])
            for c, b in zip(literals, [basics[n] for n, _ in ref.literal_of]))

    def test_rows_match_the_fraction_reference(self):
        rng = random.Random(2024)
        seen = collections.Counter()
        for f in _random_suite_formulas():
            t = _random_term(rng)
            worlds, g = solver._prepare(f, t.args())
            for basics in dnf(g)[:4]:
                self._compare(worlds, basics, t, seen)
        assert min(seen["disjuncts"], seen["den > 1"], seen["c0 > 0"]) >= 100, seen

    @pytest.mark.parametrize("text", REDUCED)
    def test_a_reduced_literal_row(self, text):
        seen = collections.Counter()
        t = parse_term("1/2 l(p) + 1/3 l(true)")
        worlds, g = solver._prepare(parse_likelihood(text), t.args())
        [basics] = dnf(g)
        self._compare(worlds, basics, t, seen)
        assert seen["reduced"] >= 1, seen


# The ring "hard2" on 8 propositions: one disjunct whose LP has 80 rows and
# 2,032 columns, far wider than the random suites build.  Each lower bound's
# argument keeps a measure and, its coefficient being positive, no dominance
# rows (rule 2); each upper bound's argument has no measure, and its literal
# is one row per measure (rule 1): 8 measure rows, 8 lower-bound rows and
# 8 * 8 upper-bound rows.  The model and the bounds are pinned: the simplex
# must reach the same vertex.
HARD2 = " & ".join(f"l(p{i} & !p{(i + 1) % 8}) >= 1/4 & l(!p{i} & p{(i + 1) % 8}) <= 1/7"
                   for i in range(8))
HARD2_MODEL = [  # each measure's nonzero masses, world id without its "w"
    "00000000:3/4 10000000:1/7 10000001:3/28",
    "00000000:3/4 01000000:1/7 11000000:3/28",
    "00000000:3/4 00100000:1/7 01100000:3/28",
    "00000000:3/4 00010000:1/7 00110000:3/28",
    "00000000:3/4 00001000:1/7 00011000:3/28",
    "00000000:3/4 00000100:1/7 00001100:3/28",
    "00000000:3/4 00000010:1/7 00000110:3/28",
    "00000000:3/4 00000001:1/7 00000011:3/28",
]


def test_the_ring_hard2_on_one_wide_lp():
    f = parse_likelihood(HARD2)
    res = sat(f)
    assert res.verdict is SatVerdict.SAT
    assert res.stats["lp_sizes"] == [{"variables": 2032, "rows": 80}]
    assert evaluate(res.model, f)
    assert [" ".join(f"{w[1:]}:{x}" for w, x in mu.items())
            for mu in res.model.measures] == HARD2_MODEL
    assert res.model.worlds == tuple(sorted({w for mu in res.model.measures for w in mu}))
    assert bounds(f, parse_term("l(p0 & p1)")) == solver.BoundsResult(F(3, 28), True, F(1), True)


def _one_disjunct_lp(text, term=None):
    """The witness LP of a formula with one disjunct, with a bounds term's
    arguments when term is given."""
    t = parse_term(term) if term else None
    worlds, g = solver._prepare(parse_likelihood(text), t.args() if t else ())
    [basics] = dnf(g)
    return solver._DisjunctLP(worlds, basics, extra_args=t.parts if t else ())


class TestPolarity:
    """Rule 1: an argument outside the bounds term whose every occurrence
    is a one-term upper bound has no witness measure, and each of its
    literals is one row per measure.  Rule 2: a measure whose argument is
    outside the bounds term and carries no negative coefficient has no
    dominance rows.  Each LP's size is derived in its comment."""

    # an argument's coefficients cancel inside one literal, and it is
    # otherwise upper-only: it has no measure, so the literal whose
    # coefficient on it is 0 must not look one up.  Alone, q keeps the one
    # measure; beside l(p) >= 1/2, p's measure is the only one.
    CANCELLED = "l(q) - l(q) > -1/5 & l(q) < 7/6"

    @pytest.mark.parametrize("text, size", [
        # the <= 1 row, the constant row 0 > -1/5 and the upper bound
        (CANCELLED, {"variables": 1, "rows": 3}),
        # and the lower bound on p, over four classes
        (CANCELLED + " & l(p) >= 1/2", {"variables": 3, "rows": 4}),
    ])
    def test_cancelled_coefficients_sat(self, text, size):
        f = parse_likelihood(text)
        res = sat(f)
        assert res.verdict is SatVerdict.SAT and evaluate(res.model, f)
        assert res.stats["lp_sizes"] == [size]

    @pytest.mark.parametrize("term", ["l(p)", "l(q)", "l(q) - l(p)"])
    def test_cancelled_coefficients_bounds(self, term):
        f, t = parse_likelihood(self.CANCELLED), parse_term(term)
        assert _bounds_or_none(f, t) == reference_bounds(f, t)

    @pytest.mark.parametrize("text", [
        # the negations of the two formulas above
        "l(q) - l(q) <= -1/5 | l(q) >= 7/6",
        "l(q) - l(q) <= -1/5 | l(q) >= 7/6 | l(p) < 1/2",
    ])
    def test_cancelled_coefficients_valid(self, text):
        f = parse_likelihood(text)
        res = valid(f)
        assert not res.valid and not evaluate(res.countermodel, f)

    def test_a_mixed_polarity_argument_keeps_its_dominance_rows(self):
        # l(q) is negative in the first literal and positive in the second.
        # Since l(p & q) <= l(q), l(q) >= 1/2 and l(p) > 1: UNSAT.  Without
        # q's rows its witness could put no mass on q in both literals.
        text = "l(p) - l(q) > 1/2 & l(q) + l(p & q) >= 1"
        assert sat(parse_likelihood(text)).verdict is SatVerdict.UNSAT
        # three measures over four classes; three measure rows, q's two
        # dominance rows (p and p & q are positive: none) and two literals
        dlp = _one_disjunct_lp(text)
        assert len(dlp.system.variables) == 9 and len(dlp.system.constraints) == 7

    def test_a_two_term_upper_bound_keeps_its_measures(self):
        # l(p) <= l(q) is no bound that every measure must meet: the witness
        # of p & !q has mu(p) >= 3/4 > mu(q), and the witness of q lifts
        # l(q) above l(p)
        text = "l(p) - l(q) <= 0 & l(p & !q) >= 3/4 & l(q) >= 3/4"
        f = parse_likelihood(text)
        res = sat(f)
        assert res.verdict is SatVerdict.SAT and evaluate(res.model, f)
        assert len(res.model.measures) == 2
        # p, q and p & !q keep a measure each; p's two dominance rows (it
        # alone is negative), three measure rows and three literals
        dlp = _one_disjunct_lp(text)
        assert len(dlp.system.variables) == 9 and len(dlp.system.constraints) == 8

    @pytest.mark.parametrize("text, term, rows", [
        # p is only in an upper bound but is the term: it keeps its measure
        # and its row against q's, as q keeps none of its own; two measure
        # rows and two literals
        ("l(p) <= 1/2 & l(q) >= 3/4", "l(p)", 5),
        # p | q is only in the term, which reads its exact value: its row
        # against p's measure keeps l(p | q) >= l(p) >= 1/2; two measure
        # rows and one literal
        ("l(p) >= 1/2", "l(p | q)", 4),
    ])
    def test_a_bounds_argument_keeps_its_measure_and_rows(self, text, term, rows):
        f, t = parse_likelihood(text), parse_term(term)
        dlp = _one_disjunct_lp(text, term)
        assert len(dlp._measure) == 2 and len(dlp.system.constraints) == rows
        assert _bounds_or_none(f, t) == reference_bounds(f, t)

    def test_upper_bounds_alone_keep_one_measure(self):
        text = "l(p) <= 1/2 & l(q) < 1/3 & l(p & q) <= 1/4"
        f = parse_likelihood(text)
        res = sat(f)
        assert res.verdict is SatVerdict.SAT and evaluate(res.model, f)
        assert len(res.model.measures) == 1
        # one measure over four classes: its <= 1 row and one row per literal
        assert res.stats["lp_sizes"] == [{"variables": 3, "rows": 4}]

    def test_an_upper_bound_holds_on_every_measure(self):
        # p & q has no measure; its bound is a row on each of the other two
        f = parse_likelihood("l(p) >= 3/4 & l(q) >= 3/4 & l(p & q) <= 1/2")
        res = sat(f)
        assert res.verdict is SatVerdict.SAT and evaluate(res.model, f)
        # two measures over four classes; two measure rows, two lower
        # bounds and the upper bound on each measure
        assert res.stats["lp_sizes"] == [{"variables": 6, "rows": 6}]
        assert all(mu.get("w11", 0) <= F(1, 2) for mu in res.model.measures)


# The worst cases, by the size of their last LP rather than by the clock.
# "hard2" at n = 10: ten measures, one per lower bound, with no dominance
# rows, over 1,023 non-pivot classes; ten measure rows, ten lower bounds and
# ten upper bounds on each of the ten measures.
def test_the_ring_hard2_at_ten_lp_size():
    n = 10
    f = parse_likelihood(" & ".join(
        f"l(p{i} & !p{(i + 1) % n}) >= 1/4 & l(!p{i} & p{(i + 1) % n}) <= 1/7" for i in range(n)))
    res = sat(f)
    assert res.verdict is SatVerdict.SAT
    assert res.stats["lp_sizes"] == [{"variables": 10220, "rows": 120}]


# ROADMAP item 3's clause case at k = 8: 256 disjuncts, all refuted; the
# last one has eight strict lower bounds on eight arguments, none with
# dominance rows, so eight measure rows and eight literals.
def test_the_clause_case_at_eight_lp_size():
    k = 8
    f = parse_likelihood(" & ".join(
        f"(l(p{i}) > 1 | l(p{(i + 1) % k} & p{(i + 2) % k}) > 1)" for i in range(k)))
    res = sat(f)
    assert res.verdict is SatVerdict.UNSAT
    assert len(res.stats["lp_sizes"]) == 256
    assert res.stats["lp_sizes"][-1] == {"variables": 712, "rows": 16}
