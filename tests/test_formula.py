import functools
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplogic.errors import InputError, ResourceError
from uplogic.formula import (
    FALSE,
    TRUE,
    And,
    Basic,
    Const,
    LAnd,
    LNot,
    LOr,
    Not,
    Or,
    Prop,
    Rel,
    Term,
    atom_columns,
    dnf,
    extension_mask,
    implies,
    is_tautology,
    ldisj_all,
    normalize,
    size,
)
from uplogic.semantics import evaluate

from conftest import random_structure
from test_parser import props

p, q, r = Prop("p"), Prop("q"), Prop("r")


def _mask(phi, props):
    """The atoms over props where phi holds, as a bitmask."""
    return extension_mask(phi, atom_columns(props), (1 << (1 << len(props))) - 1)


def _atom(props, i):
    """The conjunction of literals that holds at atom i over props alone."""
    n = len(props)
    return And(*[Prop(x) if i >> (n - 1 - k) & 1 else Not(Prop(x))
                 for k, x in enumerate(props)])


class TestAtoms:
    def test_single_prop(self):
        assert atom_columns(["p"]) == {"p": 0b10}

    def test_two_props(self):
        assert atom_columns(["p", "q"]) == {"p": 0b1100, "q": 0b1010}

    def test_three_props_exhaustive(self):
        props = ["p", "q", "r"]
        columns = atom_columns(props)
        assert len({tuple(columns[x] >> i & 1 for x in props) for i in range(8)}) == 8
        # each atom's conjunction of literals holds at exactly that atom
        for i in range(8):
            assert _mask(_atom(props, i), props) == 1 << i

    def test_deterministic_order(self):
        assert list(atom_columns(["q", "p"])) == ["q", "p"]
        assert atom_columns(["p", "q"]) == atom_columns(["p", "q"])


class TestAtomSet:
    def test_true_is_everything(self):
        assert _mask(TRUE, ["p", "q"]) == 0b1111

    def test_false_is_empty(self):
        assert _mask(FALSE, ["p", "q"]) == 0

    def test_disjunction(self):
        assert _mask(Or(p, q), ["p", "q"]).bit_count() == 3

    def test_unknown_prop(self):
        # a proposition without a column is false at every atom
        assert _mask(r, ["p", "q"]) == 0
        assert _mask(Not(r), ["p", "q"]) == 0b1111

    def test_complement_partition(self):
        rng = random.Random(7)
        props = ["p", "q", "r"]
        for _ in range(50):
            phi = _random_prop(rng, 3)
            assert _mask(phi, props) ^ _mask(Not(phi), props) == 0xFF
            assert _mask(phi, props) & _mask(Not(phi), props) == 0

    def test_intersection_law(self):
        rng = random.Random(11)
        props = ["p", "q", "r"]
        for _ in range(50):
            phi, psi = _random_prop(rng, 3), _random_prop(rng, 3)
            assert _mask(And(phi, psi), props) == _mask(phi, props) & _mask(psi, props)
            assert _mask(Or(phi, psi), props) == _mask(phi, props) | _mask(psi, props)
            assert _mask(implies(phi, psi), props) == (0xFF ^ _mask(phi, props)) | _mask(psi, props)


class TestTautology:
    def test_excluded_middle(self):
        assert is_tautology(Or(p, Not(p)))

    def test_plain_prop(self):
        assert not is_tautology(p)

    def test_modus_ponens_shape(self):
        assert is_tautology(implies(And(implies(p, q), p), q))

    def test_iff_vs_atom_sets(self):
        rng = random.Random(3)
        props = ["p", "q", "r"]
        for _ in range(40):
            phi, psi = _random_prop(rng, 2), _random_prop(rng, 2)
            same = _mask(phi, props) == _mask(psi, props)
            assert is_tautology(And(implies(phi, psi), implies(psi, phi))) == same


def b(term_parts, rel, bound):
    return Basic(Term(tuple((F(c), a) for c, a in term_parts)), rel, F(bound))


class TestExtensionMask:
    def test_atom_columns_follow_product_order(self):
        # atom i is the i-th assignment in itertools.product order
        for n in range(1, 6):
            names = [f"p{i}" for i in range(n)]
            columns = atom_columns(names)
            assert list(columns) == names
            for i, signs in enumerate(itertools.product((False, True), repeat=n)):
                assert signs == tuple(bool(columns[x] >> i & 1) for x in names)

    def test_no_props_is_one_world(self):
        assert atom_columns([]) == {}
        assert is_tautology(TRUE) and not is_tautology(FALSE)

    def test_over_the_cap(self):
        with pytest.raises(ResourceError):
            is_tautology(And(*[Prop(f"p{i}") for i in range(17)]))

    def test_not_a_formula(self):
        with pytest.raises(InputError):
            extension_mask("p", {}, 1)


def _holds_reference(phi, assignment):
    """Truth of phi in one world, walked recursively; a name missing from
    the assignment is false."""
    if isinstance(phi, Prop):
        return assignment.get(phi.name, False)
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Not):
        return not _holds_reference(phi.sub, assignment)
    if isinstance(phi, And):
        return all(_holds_reference(part, assignment) for part in phi.parts)
    return any(_holds_reference(part, assignment) for part in phi.parts)


def _negated(phi, k):
    return functools.reduce(lambda f, _: Not(f), range(k), phi)


# random formulas over p, q, r, s_1 and xy, some under up to 150 negations
_walked = props() | st.builds(_negated, props(), st.integers(50, 150))


@settings(max_examples=400, deadline=None)
@given(phi=_walked, n_worlds=st.integers(1, 6), data=st.data())
def test_extension_mask_matches_per_world_reference(phi, n_worlds, data):
    full = (1 << n_worlds) - 1
    # some of the formula's propositions have no column
    columns = data.draw(st.dictionaries(st.sampled_from(["p", "q", "r", "xy"]),
                                        st.integers(0, full)))
    mask = extension_mask(phi, columns, full)
    assert mask & ~full == 0
    for w in range(n_worlds):
        assignment = {x: bool(col >> w & 1) for x, col in columns.items()}
        assert bool(mask >> w & 1) == _holds_reference(phi, assignment)


class TestNormalize:
    def test_negated_ge_becomes_strict(self):
        f = LNot(b([(1, p)], Rel.GE, F(1, 2)))
        g = normalize(f)
        assert g == b([(-1, p)], Rel.GT, F(-1, 2))

    def test_equality_expands(self):
        g = normalize(b([(1, p)], Rel.EQ, 1))
        assert g == LAnd(b([(1, p)], Rel.GE, 1), b([(-1, p)], Rel.GE, -1))

    def test_lt_flips(self):
        g = normalize(b([(1, p)], Rel.LT, F(1, 3)))
        assert g == b([(-1, p)], Rel.GT, F(-1, 3))

    def test_only_ge_gt_survive(self):
        rng = random.Random(11)
        for _ in range(60):
            f = _random_lform(rng, 3)
            assert _well_normalized(normalize(f))

    def test_preserves_satisfaction(self):
        rng = random.Random(13)
        for _ in range(40):
            f = _random_lform(rng, 3)
            M = random_structure(rng)
            assert evaluate(M, f) == evaluate(M, normalize(f))


class TestDnf:
    def test_single_basic(self):
        x = b([(1, p)], Rel.GE, 0)
        assert dnf(x) == [[x]]

    def test_distribution(self):
        a_, b_, c_ = (b([(1, x)], Rel.GE, 0) for x in (p, q, r))
        assert dnf(LAnd(LOr(a_, b_), c_)) == [[a_, c_], [b_, c_]]

    def test_already_dnf(self):
        a_, b_, c_ = (b([(1, x)], Rel.GE, 0) for x in (p, q, r))
        assert dnf(LOr(a_, LAnd(b_, c_))) == [[a_], [b_, c_]]

    def test_preserves_satisfaction(self):
        rng = random.Random(17)
        for _ in range(40):
            f = normalize(_random_lform(rng, 3))
            M = random_structure(rng)
            as_disj = ldisj_all(
                [c[0] if len(c) == 1 else _conj(c) for c in dnf(f)]
            )
            assert evaluate(M, f) == evaluate(M, as_disj)


class TestSize:
    def test_simple_basic(self):
        # l ( p ) >= 1
        assert size(b([(1, p)], Rel.GE, 1)) == 6

    def test_double_negation_adds_two(self):
        f = b([(1, p)], Rel.GE, 1)
        assert size(LNot(LNot(f))) == size(f) + 2

    def test_conjunct_strictly_grows(self):
        f = b([(1, p)], Rel.GE, 1)
        g = b([(2, q)], Rel.GT, F(1, 2))
        assert size(LAnd(f, g)) > size(f)

    def test_coefficient_is_one_symbol(self):
        narrow = b([(2, p)], Rel.GE, 1)
        wide = b([(F(22222, 7), p)], Rel.GE, 1)
        assert size(narrow) == size(wide)


# ---------------------------------------------------------------------------


def _conj(parts):
    out = parts[0]
    for x in parts[1:]:
        out = LAnd(out, x)
    return out


def _random_prop(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([p, q, r, TRUE, FALSE])
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_random_prop(rng, depth - 1))
    cls = And if kind == 1 else Or
    return cls(_random_prop(rng, depth - 1), _random_prop(rng, depth - 1))


def _random_term(rng):
    n = rng.randint(1, 3)
    return Term(
        tuple(
            (F(rng.randint(-3, 3)) or F(1), _random_prop(rng, 2))
            for _ in range(n)
        )
    )


def _random_lform(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        rel = rng.choice(list(Rel))
        return Basic(_random_term(rng), rel, F(rng.randint(-2, 2), rng.randint(1, 3)))
    kind = rng.randrange(3)
    if kind == 0:
        return LNot(_random_lform(rng, depth - 1))
    cls = LAnd if kind == 1 else LOr
    return cls(_random_lform(rng, depth - 1), _random_lform(rng, depth - 1))


def _well_normalized(f):
    if isinstance(f, Basic):
        return f.rel in (Rel.GE, Rel.GT)
    if isinstance(f, (LAnd, LOr)):
        return all(_well_normalized(part) for part in f.parts)
    return False  # LNot must not survive
