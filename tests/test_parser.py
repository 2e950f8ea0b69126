import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplogic.formula import (
    And,
    Basic,
    LAnd,
    LNot,
    LOr,
    Not,
    Or,
    Prop,
    Rel,
    Term,
    atom_columns,
    extension_mask,
)
from uplogic.parser import (
    MAX_NESTING,
    ParseError,
    _levels,
    _Parser,
    _tokenize,
    parse_likelihood,
    parse_prop,
    parse_term,
    print_formula,
)

p, q, r = Prop("p"), Prop("q"), Prop("r")


class TestParseProp:
    def test_constants(self):
        assert parse_prop("true").value is True
        assert parse_prop("false").value is False

    def test_precedence(self):
        assert parse_prop("!(p & q) | r") == Or(Not(And(p, q)), r)
        assert parse_prop("!p & q | r") == Or(And(Not(p), q), r)

    def test_implication_desugars(self):
        columns = atom_columns(["p", "q"])
        assert parse_prop("p -> q") == parse_prop("!p | q")
        assert extension_mask(parse_prop("p -> q"), columns, 0b1111) == 0b1011

    def test_keyword_not_identifier(self):
        with pytest.raises(ParseError):
            parse_prop("l")


class TestParseLikelihood:
    def test_basic_conjunction(self):
        f = parse_likelihood("l(p) >= 1/2 & l(!p) = 0")
        assert isinstance(f, LAnd)
        assert f.parts == (
            Basic(Term(((F(1), p),)), Rel.GE, F(1, 2)),
            Basic(Term(((F(1), Not(p)),)), Rel.EQ, F(0)),
        )

    def test_coefficients_and_signs(self):
        f = parse_likelihood("2 l(p) - 3 l(q & r) > -1")
        assert f == Basic(Term(((F(2), p), (F(-3), And(q, r)))), Rel.GT, F(-1))

    def test_leading_minus(self):
        f = parse_likelihood("-l(p) > -1/3")
        assert f == Basic(Term(((F(-1), p),)), Rel.GT, F(-1, 3))

    def test_tilde_negates_likelihood(self):
        f = parse_likelihood("~l(p) >= 1/2")
        assert f == LNot(Basic(Term(((F(1), p),)), Rel.GE, F(1, 2)))

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_likelihood("l(p) >= 1/0")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_likelihood("l(p) >= ")
        assert err.value.offset == len("l(p) >= ")
        assert "expected" in str(err.value)

    def test_rational_coefficient(self):
        f = parse_likelihood("2/3 l(p) >= 0")
        assert f == Basic(Term(((F(2, 3), p),)), Rel.GE, F(0))


class TestPrint:
    def test_true(self):
        assert print_formula(parse_prop("true")) == "true"

    def test_simple_basic(self):
        f = Basic(Term(((F(1), p),)), Rel.GE, F(1, 2))
        assert print_formula(f) == "l(p) >= 1/2"

    def test_round_trip_examples(self):
        for text in [
            "l(p) >= 2/3",
            "2 l(p) - 3 l(q & r) > -1",
            "~(l(p) >= 0 | l(q) < 1) & l(p | !q) = 1/7",
            "-l(!(p -> q)) <= -2",
        ]:
            ast = parse_likelihood(text)
            assert parse_likelihood(print_formula(ast)) == ast


# ---------------------------------------------------------------------------
# Generated round-trip corpus

names = st.sampled_from(["p", "q", "r", "s_1", "xy"])
rationals = st.builds(
    F, st.integers(-9, 9), st.integers(1, 9)
)


def operands(inner):
    return st.lists(inner, min_size=2, max_size=4)


def props(names=names):
    base = st.one_of(
        names.map(Prop),
        st.sampled_from([parse_prop("true"), parse_prop("false")]),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            inner.map(Not),
            operands(inner).map(lambda t: And(*t)),
            operands(inner).map(lambda t: Or(*t)),
        ),
        max_leaves=6,
    )


def basics(numbers=rationals, names=names):
    terms = st.lists(
        st.tuples(numbers.filter(lambda x: x != 0), props(names)), min_size=1, max_size=3
    ).map(lambda parts: Term(tuple(parts)))
    return st.builds(Basic, terms, st.sampled_from(list(Rel)), numbers)


def lforms(numbers=rationals, names=names):
    return st.recursive(
        basics(numbers, names),
        lambda inner: st.one_of(
            inner.map(LNot),
            operands(inner).map(lambda t: LAnd(*t)),
            operands(inner).map(lambda t: LOr(*t)),
        ),
        max_leaves=5,
    )


@settings(max_examples=1000, deadline=None)
@given(lforms())
def test_print_parse_round_trip(f):
    assert parse_likelihood(print_formula(f)) == f


@settings(max_examples=300, deadline=None)
@given(props())
def test_prop_round_trip(phi):
    assert parse_prop(print_formula(phi)) == phi


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=40))
def test_total_on_arbitrary_text(text):
    try:
        parse_likelihood(text)
    except ParseError as e:
        assert 0 <= e.offset <= len(text)


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=40))
def test_total_on_arbitrary_bytes(blob):
    try:
        parse_likelihood(blob.decode("utf-8", errors="replace"))
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# Every error path: line, column, what was expected and what was found


def _implications(k):
    """l(((p) -> q) -> q ...) with k arrows: each adds two tree levels (an Or
    over a Not) but only one group, so the tree outgrows MAX_NESTING first."""
    arg = "p"
    for _ in range(k):
        arg = f"({arg}) -> q"
    return f"l({arg}) >= 0"


_DEEP = "(" * (MAX_NESTING + 1) + "l(p) >= 0" + ")" * (MAX_NESTING + 1)

ERRORS = [
    # (rule, text, line, column, expected, found)
    (parse_likelihood, "@l(p) >= 0", 1, 1, "a token", "'@'"),
    (parse_likelihood, "l(p) >= 1 @ l(q) >= 0", 1, 11, "a token", "'@'"),
    (parse_likelihood, "l(p) >= 1 &\n  l(q) # 0", 2, 8, "a token", "'#'"),
    (parse_likelihood, "l(p) >= @", 1, 9, "a token", "'@'"),
    (parse_likelihood, "l(p) >= 1\x00", 1, 10, "a token", "'\\x00'"),
    (parse_likelihood, "l(p)\u00a0>=\u2003@", 1, 9, "a token", "'@'"),
    (parse_likelihood, "l(é) >= 0", 1, 3, "a token", "'é'"),
    (parse_likelihood, "l(p) ٣ 1", 1, 6, "a token", "'٣'"),
    (parse_likelihood, "l(p) >= ٣", 1, 9, "a token", "'٣'"),
    (parse_likelihood, "l(p) >= \t\n ", 2, 2, "a number", "end of input"),
    (parse_likelihood, "l(p) >= 1 &", 1, 12, "'l('", "end of input"),
    (parse_likelihood, "", 1, 1, "'l('", "end of input"),
    (parse_likelihood, "l(p) >= 1/0", 1, 11, "a nonzero denominator", "0"),
    (parse_likelihood, "l(p) >= 1/00", 1, 11, "a nonzero denominator", "0"),
    (parse_likelihood, "l(l) >= 0", 1, 3, "an identifier", "'l'"),
    (parse_likelihood, "true(p) >= 0", 1, 1, "'l('", "'true'"),
    (parse_likelihood, "l(p) >= true", 1, 9, "a number", "'true'"),
    (parse_likelihood, "l(p) 1/2", 1, 6, "a relation (>=, <=, >, <, =)", "'1'"),
    (parse_likelihood, "l(p) >= -x", 1, 10, "a number", "'x'"),
    (parse_likelihood, "l(p) >= 1/x", 1, 11, "a positive denominator", "'x'"),
    (parse_likelihood, "l(p) >= 1/-2", 1, 11, "a positive denominator", "'-'"),
    (parse_likelihood, "l() >= 0", 1, 3, "a propositional formula", "')'"),
    (parse_likelihood, "l(p >= 0", 1, 5, "')'", "'>='"),
    (parse_likelihood, "l p >= 0", 1, 3, "'('", "'p'"),
    (parse_likelihood, "(l(p) >= 0", 1, 11, "')'", "end of input"),
    (parse_likelihood, "l(p) >= 0 )", 1, 11, "end of input", "')'"),
    (parse_likelihood, "l(p) >= 0 l(q) >= 0", 1, 11, "end of input", "'l'"),
    (parse_likelihood, _DEEP, 1, MAX_NESTING + 1,
     f"at most {MAX_NESTING} levels of nesting", "'('"),
    (parse_likelihood, _implications(MAX_NESTING // 2), 1, 1,
     f"at most {MAX_NESTING} levels of nesting", f"{MAX_NESTING + 1}"),
    (parse_prop, "p q", 1, 3, "end of input", "'q'"),
    (parse_prop, "p ->", 1, 5, "a propositional formula", "end of input"),
    (parse_prop, "true & l", 1, 8, "an identifier", "'l'"),
    (parse_term, "l(p) >= 0", 1, 6, "end of input", "'>='"),
    (parse_term, "2 l(p) + ", 1, 10, "'l('", "end of input"),
]


@pytest.mark.parametrize("rule, text, line, column, expected, found", ERRORS)
def test_parse_error_table(rule, text, line, column, expected, found):
    with pytest.raises(ParseError) as err:
        rule(text)
    e = err.value
    assert (e.line, e.column, e.expected, e.found) == (line, column, expected, found)
    assert str(e) == (f"parse error at line {line}, column {column}: "
                      f"expected {expected}, found {found}")


def test_edge_texts_that_parse():
    # trailing and Unicode whitespace is skipped; one group or arrow below
    # the limits parses
    assert parse_likelihood(" l(p) >= 1 \n\t") == Basic(Term(((F(1), p),)), Rel.GE, F(1))
    inner = "(" * (MAX_NESTING - 1) + "l(p) >= 0" + ")" * (MAX_NESTING - 1)
    assert parse_likelihood(inner) == Basic(Term(((F(1), p),)), Rel.GE, F(0))
    parse_likelihood(_implications(MAX_NESTING // 2 - 1))


# Texts with implications, whose Or and Not share one arrow token: the
# densest nesting per token that the parser builds.
_prop_texts = st.recursive(
    st.sampled_from(["p", "q", "true"]),
    lambda inner: st.one_of(
        inner.map(lambda x: "!" + x),
        st.tuples(inner, inner).map(lambda t: f"({t[0]}) -> {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} -> ({t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]} & {t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]} | {t[1]})"),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(lforms().map(print_formula), _prop_texts.map(lambda x: f"l({x}) >= 0")))
def test_at_most_two_levels_per_token(text):
    # the parser checks the tree's depth only on texts long enough to
    # exceed MAX_NESTING at two levels per token
    assert _levels(parse_likelihood(text)) <= 2 * len(_tokenize(text))


# Texts whose left sides of "->" are Ors over Ands: an implication puts them
# under an Or and a Not of its own, the most levels per open level.
_dense_texts = st.recursive(
    st.sampled_from(["p", "q", "true"]),
    lambda inner: st.one_of(
        inner.map(lambda x: "!" + x),
        inner.map(lambda x: f"({x})"),
        st.tuples(inner, inner, inner).map(lambda t: f"{t[0]} & {t[1]} | {t[2]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} -> {t[1]}"),
    ),
    max_leaves=16,
)


def _levels_and_deepest(text, rule):
    """The levels of text's tree, and the most levels its parse had open."""
    p = _Parser(text)
    tree = rule(p)
    p.done()
    return _levels(tree), p.deepest


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    lforms().map(lambda f: (print_formula(f), _Parser.lform)),
    _dense_texts.map(lambda x: (f"l({x}) >= 0 | ~(l(p) <= 1 & l({x}) > 0)", _Parser.lform)),
    _dense_texts.map(lambda x: (f"l({x}) - 2 l(p)", _Parser.term)),
    _dense_texts.map(lambda x: (x, _Parser.prop)),
))
def test_levels_within_four_per_open_level(case):
    # the bound by which _parse skips its walk of the tree
    levels, deepest = _levels_and_deepest(*case)
    assert levels <= 4 * deepest + 2


def _arrow_tower(k):
    """l(((p) & q | q -> q) & q | q -> q ...) with k arrows: each group puts
    an Or, a Not, an Or and an And above the next."""
    arg = "p"
    for _ in range(k):
        arg = f"({arg}) & q | q -> q"
    return f"l({arg}) >= 0"


def test_four_levels_per_open_level_are_reached():
    # random formulas stay within 3 D + 1 levels, but the bound is 4 D + 2
    for k in (5, 20, 49):
        levels, deepest = _levels_and_deepest(_arrow_tower(k), _Parser.lform)
        assert 3 * deepest + 1 < levels <= 4 * deepest + 2
    parse_likelihood(_arrow_tower(49))
    with pytest.raises(ParseError) as err:  # past MAX_NESTING levels, with D = 51
        parse_likelihood(_arrow_tower(50))
    assert (err.value.expected, err.value.found) == (
        f"at most {MAX_NESTING} levels of nesting", f"{MAX_NESTING + 1}")
