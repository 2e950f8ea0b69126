"""Concrete syntax for likelihood and propositional formulas.

Grammar (whitespace-insensitive):

    lform    := ldisj
    ldisj    := lconj ("|" lconj)*
    lconj    := lneg ("&" lneg)*
    lneg     := "~" lneg | "(" lform ")" | basic
    basic    := term rel rational
    rel      := ">=" | "<=" | ">" | "<" | "="
    term     := [sign] addend (("+"|"-") addend)*
    addend   := [rational] "l" "(" prop ")"
    prop     := pimp
    pimp     := pdisj ["->" pimp]
    pdisj    := pconj ("|" pconj)*
    pconj    := pneg ("&" pneg)*
    pneg     := "!" pneg | "(" prop ")" | "true" | "false" | identifier
    rational := ["-"] integer ["/" positive-integer]

"~" negates likelihood formulas, "!" negates propositions.  "->" is
desugared to "!a | b".  Integers are ASCII digits [0-9]+, and identifiers
match [A-Za-z_][A-Za-z0-9_]* other than true, false and l.  One loop
(_Parser.chain) reads the "|" and "&" levels of both kinds of formula,
and each chain of "&" or "|" becomes one n-ary node, so "a & (b & c)"
parses to the same node as "a & b & c" and prints as the latter.
Nesting is bounded by MAX_NESTING; a flat chain counts as one level,
whatever its length.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from typing import Optional, Union

from . import formula as fm
from .errors import UplogicError


class ParseError(UplogicError):
    def __init__(self, text: str, offset: int, expected: str, found: str):
        self.offset = offset
        prefix = text[:offset]
        self.line = prefix.count("\n") + 1
        self.column = offset - (prefix.rfind("\n") + 1) + 1
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at line {self.line}, column {self.column}: "
            f"expected {expected}, found {found}"
        )


# Every token is digits, an identifier or a symbol, and the three sets share
# no text, so a token's kind can be read from its text.
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|->|>=|<=|[()!~&|><=+\-/]")
# a character that is neither whitespace nor the start of a token
_BAD_RE = re.compile(r"[^\s0-9A-Za-z_()!~&|><=+\-/]")

_CONSTANTS = {"true": fm.TRUE, "false": fm.FALSE}
_RELATIONS = {rel.value: rel for rel in fm.Rel}
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)

# How deep a formula may nest.  The parser rejects input that opens more
# than this many groups, negations, implications and l(.) arguments inside
# one another, or whose syntax tree is more than this many levels deep (a
# chain a & b & c of any length is one node with its operands one level
# below it; l(p) sits one level below its basic).  Every recursive walker on
# formulas (this parser, normalize, dnf, the printer, hashing) takes at most
# four stack frames per level, so the bound keeps them all inside Python's
# default recursion limit of 1000.
MAX_NESTING = 200


def _tokenize(text: str) -> list[str]:
    """The token texts of text, then "" for the end of input."""
    bad = _BAD_RE.search(text)
    if bad is not None:
        raise ParseError(text, bad.start(), "a token", repr(bad.group()))
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.tok = self.tokens[0]  # the current token's text
        self.depth = 0  # groups, negations, implications and l(.) open here
        self.deepest = 0  # the most levels open at once

    def offset(self, i: int) -> int:
        """Where token i starts; offsets are found again only for errors."""
        if i == len(self.tokens) - 1:
            return len(self.text)
        return next(itertools.islice(_TOKEN_RE.finditer(self.text), i, None)).start()

    def error(self, expected: str) -> ParseError:
        found = repr(self.tok) if self.tok else "end of input"
        return ParseError(self.text, self.offset(self.i), expected, found)

    def advance(self) -> str:
        tok = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return tok

    def expect_sym(self, sym: str) -> None:
        if self.tok != sym:
            raise self.error(repr(sym))
        self.advance()

    def descend(self) -> None:
        """Open one more level; the caller closes it with depth -= 1."""
        if self.depth == MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        if self.depth > self.deepest:
            self.deepest = self.depth

    # -- rationals ---------------------------------------------------------

    def integer(self, expected: str) -> int:
        """The current token, which must be ASCII digits, as an int."""
        if not (self.tok.isascii() and self.tok.isdecimal()):
            raise self.error(expected)
        try:
            value = int(self.tok)
        except ValueError:  # more digits than int() reads
            raise ParseError(self.text, self.offset(self.i),
                             f"a number of at most {sys.get_int_max_str_digits()} digits",
                             f"{len(self.tok)} digits")
        self.advance()
        return value

    def rational(self) -> Fraction:
        neg = self.tok == "-"
        if neg:
            self.advance()
        num = self.integer("a number")
        den = 1
        if self.tok == "/":
            self.advance()
            den = self.integer("a positive denominator")
            if den == 0:
                raise ParseError(self.text, self.offset(self.i - 1),
                                 "a nonzero denominator", "0")
        value = Fraction(num, den)
        return -value if neg else value

    def chain(self, operand, conj, disj):
        """operand ("&" operand)* ("|" operand ("&" operand)*)*, "&" binding
        tighter than "|": the disj node over the conj nodes of the operands
        (a one-part node is its part)."""
        disjuncts = []
        while True:
            parts = [operand()]
            while self.tok == "&":
                self.advance()
                parts.append(operand())
            disjuncts.append(conj(parts))
            if self.tok != "|":
                return disj(disjuncts)
            self.advance()

    # -- propositional formulas -------------------------------------------

    def prop(self) -> fm.PropFormula:
        left = self.chain(self.pneg, fm.conj_all, fm.disj_all)
        if self.tok == "->":
            self.descend()
            self.advance()
            left = fm.implies(left, self.prop())
            self.depth -= 1
        return left

    def pneg(self) -> fm.PropFormula:
        tok = self.tok
        if tok == "!":
            self.descend()
            self.advance()
            out = fm.Not(self.pneg())
            self.depth -= 1
            return out
        if tok == "(":
            self.descend()
            self.advance()
            out = self.prop()
            self.expect_sym(")")
            self.depth -= 1
            return out
        if tok.isidentifier():
            if tok == "l":
                raise self.error("an identifier")
            self.advance()
            return _CONSTANTS[tok] if tok in _CONSTANTS else fm.Prop(tok)
        raise self.error("a propositional formula")

    # -- likelihood formulas ----------------------------------------------

    def lform(self) -> fm.LikelihoodFormula:
        return self.chain(self.lneg, fm.lconj_all, fm.ldisj_all)

    def lneg(self) -> fm.LikelihoodFormula:
        if self.tok == "~":
            self.descend()
            self.advance()
            out = fm.LNot(self.lneg())
            self.depth -= 1
            return out
        if self.tok == "(":
            self.descend()
            self.advance()
            out = self.lform()
            self.expect_sym(")")
            self.depth -= 1
            return out
        return self.basic()

    def basic(self) -> fm.Basic:
        t = self.term()
        rel = _RELATIONS.get(self.tok)
        if rel is None:
            raise self.error("a relation (>=, <=, >, <, =)")
        self.advance()
        return fm.Basic(t, rel, self.rational())

    def term(self) -> fm.Term:
        sign = _ONE
        if self.tok == "-":
            sign = _MINUS_ONE
            self.advance()
        elif self.tok == "+":
            self.advance()
        parts = [self.addend(sign)]
        while self.tok == "+" or self.tok == "-":
            sign = _MINUS_ONE if self.advance() == "-" else _ONE
            parts.append(self.addend(sign))
        return fm.Term(tuple(parts))

    def addend(self, sign: Fraction) -> tuple[Fraction, fm.PropFormula]:
        coeff = sign
        if self.tok.isascii() and self.tok.isdecimal():
            coeff = self.rational()
            if sign is _MINUS_ONE:
                coeff = -coeff
        if self.tok != "l":
            raise self.error("'l('")
        self.advance()
        self.descend()
        self.expect_sym("(")
        arg = self.prop()
        self.expect_sym(")")
        self.depth -= 1
        return (coeff, arg)

    def done(self) -> None:
        if self.tok:
            raise self.error("end of input")


def _levels(f) -> int:
    """Levels below the root of f's syntax tree, walked without recursion."""
    deepest, todo = 0, [(f, 0)]
    while todo:
        g, d = todo.pop()
        deepest = max(deepest, d)
        if isinstance(g, fm.Basic):
            g = g.term
        if isinstance(g, fm.Term):
            todo += [(a, d + 1) for a in g.args()]
        elif isinstance(g, (fm.Not, fm.LNot)):
            todo.append((g.sub, d + 1))
        elif isinstance(g, (fm.And, fm.Or, fm.LAnd, fm.LOr)):
            todo += [(part, d + 1) for part in g.parts]
    return deepest


def _parse(text: str, rule):
    p = _Parser(text)
    out = rule(p)
    p.done()
    # Every level of a tree has a token of its own on the way down, except
    # that an implication's Or and Not share its arrow; so only a text of
    # more than MAX_NESTING // 2 tokens can be too deep.
    #
    # Nor can a tree whose parse had at most D levels open at once
    # (p.deepest) have more than 4 D + 2 levels, by induction on D - d for a
    # subtree parsed with d levels open.  A propositional formula is an Or
    # over an And over operands that are atoms or open a level ("!", a
    # group); an implication opens a level for its right side only, and puts
    # its left side, parsed with d open, under an Or and a Not of its own.
    # So it has at most 4 (D - d) + 2 levels, and ((q & (...) | q) -> q)
    # takes four per group.  A likelihood formula puts at most an LOr and an
    # LAnd over its negations, groups and Basics, and a Basic sits one level
    # above its l(.) arguments, parsed with d + 1 open.
    if 2 * len(p.tokens) > MAX_NESTING and 4 * p.deepest + 2 > MAX_NESTING:
        levels = _levels(out)
        if levels > MAX_NESTING:
            raise ParseError(text, 0, f"at most {MAX_NESTING} levels of nesting",
                             f"{levels}")
    return out


def parse_likelihood(text: str) -> fm.LikelihoodFormula:
    return _parse(text, _Parser.lform)


def parse_prop(text: str) -> fm.PropFormula:
    return _parse(text, _Parser.prop)


def parse_term(text: str) -> fm.Term:
    return _parse(text, _Parser.term)


# ---------------------------------------------------------------------------
# Printing

_TIGHT_AFTER = {"(", "!", "~", "u-", "l"}


def _join(tokens: list[str]) -> str:
    out: list[str] = []
    prev: Optional[str] = None
    for tok in tokens:
        text = "-" if tok == "u-" else tok
        if prev is None or prev in _TIGHT_AFTER or text == ")":
            out.append(text)
        else:
            out.append(" " + text)
        prev = tok
    return "".join(out)


def print_formula(f: Union[fm.PropFormula, fm.LikelihoodFormula]) -> str:
    """Canonical minimal-parentheses rendering; parse(print(f)) == f."""
    return _join(fm.canonical_tokens(f))


def print_term(t: fm.Term) -> str:
    return _join(list(fm._term_tokens(t)))
