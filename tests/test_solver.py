import random
from fractions import Fraction as F

import pytest

from uplogic import lp, solver
from uplogic.errors import ResourceError
from uplogic.formula import (
    Basic, LNot, Not, Prop, Rel, Term, dnf, lconj_all, normalize, props_of,
)
from uplogic.parser import parse_likelihood, parse_term
from uplogic.semantics import eval_term, evaluate
from uplogic.solver import SatVerdict, UnsatInputError, bounds, sat, valid

from conftest import random_structure
from test_formula import _random_lform, _random_term

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
        assert len(res.model.worlds) <= 4  # at most 2^N atom worlds
        assert len(res.model.measures) <= 3  # one per distinct argument
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
        outcome = lp.feasible(dlp.system())
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
                    assert lp.feasible(dlp.system()).verdict is lp.Verdict.INFEASIBLE
            assert pending is None
        assert skipped

    def test_forty_clauses_one_lp(self):
        res = sat(parse_likelihood(_clauses(40)))
        assert res.verdict is SatVerdict.SAT
        assert res.stats["disjuncts"] == 2**40
        assert len(res.stats["lp_sizes"]) == 1

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
                mask = worlds.extension_mask(phi)
                self.measure_of[phi] = masks.setdefault(mask, len(masks))
        T = len(masks)
        sigs = list(dict.fromkeys(
            tuple((m >> w) & 1 for m in masks) for w in range(len(worlds.ids))))
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
        self.system = lp.make_system([x for row in self.names for x in row], rows)

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
    worlds, g = solver._prepare(f, [p for _, phi in t.parts for p in props_of(phi)])
    lower = upper = None
    for basics in dnf(g):
        ref = _ReferenceLP(worlds, basics, extra_args=t.parts)
        obj = ref.term_row(t)
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
                outcome = lp.feasible(dlp.system())
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
        worlds, g = solver._prepare(f, ["p", "q"])
        [basics] = dnf(g)
        dlp = solver._DisjunctLP(worlds, basics)
        if c0_inside is not None:
            assert all(dlp._in0) is c0_inside and any(dlp._in0) is c0_inside
        if len(dlp.class_rep) == 1:
            assert dlp.variables == []
        outcome = lp.feasible(dlp.system())
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
        assert solver._DisjunctLP(worlds, basics).system()._tableau.art_cols == set()
