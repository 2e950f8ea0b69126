import random
from fractions import Fraction as F

from uplogic.formula import (
    FALSE,
    TRUE,
    Basic,
    LAnd,
    LNot,
    Not,
    Prop,
    Rel,
    Term,
    basics_of,
    normalize,
)
from uplogic.parser import parse_likelihood, parse_prop, parse_term
from uplogic.semantics import eval_term, evaluate, extension
from uplogic.structure import lower_of

from conftest import random_structure
from test_formula import _holds_reference, _random_lform, _random_prop


class TestExtension:
    def test_constants(self, marble):
        assert extension(marble, TRUE) == frozenset(marble.worlds)
        assert extension(marble, FALSE) == frozenset()

    def test_marble_non_red(self, marble):
        assert extension(marble, parse_prop("blue | yellow")) == {"blue", "yellow"}

    def test_unknown_prop_is_false(self, marble):
        assert extension(marble, Prop("zzz")) == frozenset()

    def test_negation_complements(self):
        rng = random.Random(41)
        for _ in range(50):
            M = random_structure(rng)
            phi = _random_prop(rng, 3)
            assert extension(M, Not(phi)) == frozenset(M.worlds) - extension(M, phi)


class TestEvalTerm:
    def test_l_true_is_one(self, marble):
        assert eval_term(marble, parse_term("l(true)")) == 1

    def test_marble_blue(self, marble):
        assert eval_term(marble, parse_term("l(blue)")) == F(7, 10)

    def test_duality_cross_check(self):
        rng = random.Random(43)
        for _ in range(50):
            M = random_structure(rng)
            phi = _random_prop(rng, 2)
            t = Term(((F(-1), Not(phi)),))
            assert eval_term(M, t) == lower_of(M, extension(M, phi)) - 1


class TestEvaluate:
    def test_l1_l2_everywhere(self):
        rng = random.Random(47)
        f = parse_likelihood("l(true) = 1 & l(false) = 0")
        for _ in range(30):
            assert evaluate(random_structure(rng), f)

    def test_marble_probabilities(self, marble):
        f = parse_likelihood(
            "l(red) = 3/10 & l(blue) <= 7/10 & -l(!blue) >= -1"
        )
        assert evaluate(marble, f)

    def test_table_union(self, table):
        assert evaluate(table, parse_likelihood("l(a | b | c) = 3/4"))

    def test_normalization_invariant(self):
        rng = random.Random(53)
        for _ in range(60):
            M = random_structure(rng)
            f = _random_lform(rng, 3)
            assert evaluate(M, f) == evaluate(M, normalize(f))

    def test_superadditive_sum(self):
        rng = random.Random(59)
        f = parse_likelihood("l(p) + l(!p) >= 1")
        for _ in range(40):
            assert evaluate(random_structure(rng), f)

    def test_equivalent_args_agree(self):
        # substituting a logically equivalent argument leaves values unchanged
        rng = random.Random(61)
        for _ in range(40):
            M = random_structure(rng)
            t1 = parse_term("l(p -> q)")
            t2 = parse_term("l(!(p & !q))")
            assert eval_term(M, t1) == eval_term(M, t2)


# ---------------------------------------------------------------------------
# The bitmask evaluation against frozensets of worlds and sums of masses
# over them


def _extension_reference(M, phi):
    return frozenset(w for w in M.worlds if _holds_reference(phi, M.assignment[w]))


def _upper_reference(M, S):
    return max(sum((m for w, m in mu.items() if w in S), F(0)) for mu in M.measures)


def _term_reference(M, t):
    return sum((c * _upper_reference(M, _extension_reference(M, arg)) for c, arg in t.parts),
               F(0))


_REL = {Rel.GE: F.__ge__, Rel.GT: F.__gt__, Rel.LE: F.__le__, Rel.LT: F.__lt__, Rel.EQ: F.__eq__}


def _evaluate_reference(M, f):
    if isinstance(f, Basic):
        return _REL[f.rel](_term_reference(M, f.term), f.bound)
    if isinstance(f, LNot):
        return not _evaluate_reference(M, f.sub)
    results = [_evaluate_reference(M, part) for part in f.parts]
    return all(results) if isinstance(f, LAnd) else any(results)


def test_bits_agree_with_frozensets():
    rng = random.Random(67)
    for _ in range(300):
        # r is often missing from the structure, so false in every world
        names = rng.choice([("p", "q"), ("p", "q", "r"), ("q",)])
        M = random_structure(rng, max_worlds=7, props=names)
        f = _random_lform(rng, 3)
        phi = _random_prop(rng, 3)
        assert extension(M, phi) == _extension_reference(M, phi)
        for b in basics_of(f):
            assert eval_term(M, b.term) == _term_reference(M, b.term)
        t = Term(((F(rng.randint(-3, 3)) or F(1), phi), (F(1, 2), Not(phi))))
        assert eval_term(M, t) == _term_reference(M, t)
        assert evaluate(M, f) == _evaluate_reference(M, f)
