"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run pytest with -s or read the
captured output) and enforces its wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction as F

from uplogic.covers import check_properties, l4_instances, search_violation
from uplogic.envelope import is_upper_probability
from uplogic.formula import And, Basic, Not, Prop, Rel, Term, basics_of, conj_all, lconj_all
from uplogic.parser import ParseError, parse_likelihood, parse_prop, parse_term, print_formula
from uplogic.semantics import eval_term, evaluate
from uplogic.solver import SatVerdict, sat, valid
from uplogic.structure import SetFunction, lower_of, set_function_of, upper_of

from conftest import random_structure


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_01_marble_model_check(marble):
    with _Budget("1 marble model check", 1):
        f = parse_likelihood(
            "l(red) = 3/10 & l(blue) <= 7/10 & l(yellow) <= 7/10 & -l(!blue) = -1"
        )
        assert evaluate(marble, f)
        assert eval_term(marble, parse_term("l(red)")) == F(3, 10)
        assert 1 - upper_of(marble, {"red", "yellow"}) == 0  # lower of blue


def test_02_sat_unsat_pair():
    with _Budget("2 sat/unsat pair", 1):
        assert sat(parse_likelihood("l(p) = 1/2 & l(!p) = 0")).verdict is SatVerdict.UNSAT
        f = parse_likelihood("l(p) = 1/2 & l(!p) = 1/2")
        res = sat(f)
        assert res.verdict is SatVerdict.SAT
        assert evaluate(res.model, f)


def test_03_four_measure_table_reproduction(table, table_upper, veps):
    with _Budget("3 four-measure table reproduction", 10):
        v = set_function_of(table)
        assert v.values == table_upper.values
        assert is_upper_probability(v).is_upper_probability
        res = is_upper_probability(veps)
        assert not res.is_upper_probability
        assert res.failing_set == frozenset({"a", "b", "c"})
        report = check_properties(veps)
        assert report[6] is None
        assert all(report[i] is None for i in range(1, 6))


def test_04_property_suite_100_random():
    with _Budget("4 properties and duality on 100 random structures", 60):
        rng = random.Random(2024)
        for _ in range(100):
            M = random_structure(rng, max_worlds=5, max_measures=4)
            assert all(x is None for x in check_properties(M).values())
            worlds = set(M.worlds)
            for r in range(len(M.worlds) + 1):
                for S in itertools.combinations(M.worlds, r):
                    S = set(S)
                    assert lower_of(M, S) == 1 - upper_of(M, worlds - S)


def test_05_axiom_validity():
    with _Budget("5 axiom validity", 30):
        for text in [
            "l(true) = 1",
            "l(false) = 0",
            "l(p) >= 0",
            "l(p) <= 1",
            # equivalent arguments get equal likelihood
            "l(p -> q) - l(!(p & !q)) = 0",
            "l(p & q) - l(q & p) = 0",
        ]:
            assert valid(parse_likelihood(text)).valid, text
        p, q = Prop("p"), Prop("q")
        pool = [p, Not(p), q, Not(q), And(p, q), Not(And(p, q))]
        count = 0
        for inst in l4_instances(pool, 3):
            assert valid(inst).valid, print_formula(inst)
            count += 1
        assert count >= 10


def _random_basic(rng, props):
    parts = []
    for _ in range(rng.randint(1, 2)):
        phi = conj_all([
            Prop(x) if rng.random() < 0.7 else Not(Prop(x))
            for x in rng.sample(props, rng.randint(1, 2))
        ])
        parts.append((F(rng.choice([1, 1, 1, -1])), phi))
    rel = rng.choice([Rel.GE, Rel.LE, Rel.GT, Rel.LT])
    return Basic(Term(tuple(parts)), rel, F(rng.randint(-1, 1), rng.randint(1, 3)))


def test_06_solver_round_trip():
    with _Budget("6 solver round trip on 50 satisfiable formulas", 60):
        rng = random.Random(606)
        props = ["p1", "p2", "p3", "p4"]
        confirmed = 0
        attempts = 0
        while confirmed < 50 and attempts < 400:
            attempts += 1
            f = lconj_all([_random_basic(rng, props)
                           for _ in range(rng.randint(1, 6))])
            res = sat(f)
            if res.verdict is not SatVerdict.SAT:
                continue
            confirmed += 1
            n = len(res.model.props)
            assert evaluate(res.model, f)  # independent model check
            assert len(res.model.worlds) <= 2 ** n
            distinct_args = {phi for _, phi in
                             (part for b in basics_of(f) for part in b.term.parts)}
            assert len(res.model.measures) <= max(1, len(distinct_args))
        assert confirmed >= 50


def test_07_lp_oracle_equivalence():
    with _Budget("7 LP oracle equivalence on 200 systems", 30):
        from test_lp import test_oracle_agreement_200_random_systems
        test_oracle_agreement_200_random_systems()


def _random_monotone(rng, ground):
    values = {frozenset(): F(0), frozenset(ground): F(1)}
    for r in range(1, len(ground)):
        for combo in itertools.combinations(ground, r):
            lo = max(
                (values[frozenset(c)] for c in itertools.combinations(combo, r - 1)),
                default=F(0),
            )
            values[frozenset(combo)] = lo + (1 - lo) * F(rng.randint(0, 4), 8)
    return SetFunction(tuple(ground), values)


def test_08_cover_envelope_agreement():
    with _Budget("8 cover/envelope agreement on 50 set functions", 120):
        rng = random.Random(808)
        ground = ("1", "2", "3")
        for _ in range(50):
            v = _random_monotone(rng, ground)
            cert = search_violation(v, 6)
            verdict = is_upper_probability(v).is_upper_probability
            if cert is not None:
                assert not verdict
            if verdict:
                assert cert is None


def test_09_scale_check():
    with _Budget("9 scale check: 8 propositions, 10 basics", 10):
        props = [Prop(f"p{i}") for i in range(1, 9)]
        chains = [conj_all(props[:k]) for k in range(1, 9)]
        basics = [
            Basic(Term(((F(1), chains[k]),)), Rel.GE, F(1, k + 2))
            for k in range(8)
        ]
        basics.append(Basic(Term(((F(1), Not(props[0])),)), Rel.GE, F(1, 2)))
        basics.append(Basic(
            Term(((F(1), chains[0]), (F(-1), chains[7]))), Rel.LE, F(1, 2)
        ))
        res = sat(lconj_all(basics))
        assert res.verdict in (SatVerdict.SAT, SatVerdict.UNSAT)
        if res.verdict is SatVerdict.SAT:
            assert evaluate(res.model, lconj_all(basics))


def test_10_parser_robustness():
    with _Budget("10 parser robustness", 60):
        rng = random.Random(1010)
        alphabet = b"lpq()&|!~<>=+-/0123456789 ."
        for i in range(100_000):
            if i % 2:
                blob = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            else:
                blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 24)))
            try:
                parse_likelihood(blob.decode("utf-8", errors="replace"))
            except ParseError:
                pass
        from test_formula import _random_lform
        for _ in range(1000):
            f = _random_lform(rng, 3)
            assert parse_likelihood(print_formula(f)) == f
