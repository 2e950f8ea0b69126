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
desugared to "!a | b".  Identifiers match [A-Za-z_][A-Za-z0-9_]* and may
not be the keywords true, false or l.  Each chain of "&" or "|" becomes one
n-ary node, so "a & (b & c)" parses to the same node as "a & b & c" and
prints as the latter.  Nesting is bounded by MAX_NESTING; a flat chain
counts as one level, whatever its length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>->|>=|<=|[()!~&|><=+\-/]))"
)

_KEYWORDS = {"true", "false", "l"}

# How deep a formula may nest.  The parser rejects input that opens more
# than this many groups, negations, implications and l(.) arguments inside
# one another, or whose syntax tree is more than this many levels deep (a
# chain a & b & c of any length is one node with its operands one level
# below it; l(p) sits one level below its basic).  Every recursive walker on
# formulas (this parser, normalize, dnf, the printer, hashing) takes at most
# four stack frames per level, so the bound keeps them all inside Python's
# default recursion limit of 1000.
MAX_NESTING = 200


@dataclass
class _Token:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(text, bad_at, "a token", repr(text[bad_at]))
        pos = m.end()
        for kind in ("num", "ident", "sym"):
            val = m.group(kind)
            if val is not None:
                tokens.append(_Token(kind, val, m.start(kind)))
                break
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # groups, negations, implications and l(.) open here

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def error(self, expected: str) -> ParseError:
        found = "end of input" if self.cur.kind == "eof" else repr(self.cur.text)
        return ParseError(self.text, self.cur.offset, expected, found)

    def advance(self) -> _Token:
        t = self.cur
        self.i += 1
        return t

    def at_sym(self, *syms: str) -> bool:
        return self.cur.kind == "sym" and self.cur.text in syms

    def expect_sym(self, sym: str) -> None:
        if not self.at_sym(sym):
            raise self.error(repr(sym))
        self.advance()

    def descend(self) -> None:
        """Open one more level; the caller closes it with depth -= 1."""
        if self.depth == MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1

    # -- rationals ---------------------------------------------------------

    def rational(self) -> Fraction:
        neg = False
        if self.at_sym("-"):
            neg = True
            self.advance()
        if self.cur.kind != "num":
            raise self.error("a number")
        num = int(self.advance().text)
        den = 1
        if self.at_sym("/"):
            self.advance()
            if self.cur.kind != "num":
                raise self.error("a positive denominator")
            den_tok = self.advance()
            den = int(den_tok.text)
            if den == 0:
                raise ParseError(self.text, den_tok.offset, "a nonzero denominator", "0")
        value = Fraction(num, den)
        return -value if neg else value

    # -- propositional formulas -------------------------------------------

    def prop(self) -> fm.PropFormula:
        left = self.pdisj()
        if self.at_sym("->"):
            self.descend()
            self.advance()
            left = fm.implies(left, self.prop())
            self.depth -= 1
        return left

    def pdisj(self) -> fm.PropFormula:
        parts = [self.pconj()]
        while self.at_sym("|"):
            self.advance()
            parts.append(self.pconj())
        return fm.disj_all(parts)

    def pconj(self) -> fm.PropFormula:
        parts = [self.pneg()]
        while self.at_sym("&"):
            self.advance()
            parts.append(self.pneg())
        return fm.conj_all(parts)

    def pneg(self) -> fm.PropFormula:
        if self.at_sym("!"):
            self.descend()
            self.advance()
            out = fm.Not(self.pneg())
            self.depth -= 1
            return out
        if self.at_sym("("):
            self.descend()
            self.advance()
            out = self.prop()
            self.expect_sym(")")
            self.depth -= 1
            return out
        if self.cur.kind == "ident":
            name = self.advance().text
            if name == "true":
                return fm.TRUE
            if name == "false":
                return fm.FALSE
            if name in _KEYWORDS:
                raise ParseError(self.text, self.tokens[self.i - 1].offset,
                                 "an identifier", repr(name))
            return fm.Prop(name)
        raise self.error("a propositional formula")

    # -- likelihood formulas ----------------------------------------------

    def lform(self) -> fm.LikelihoodFormula:
        parts = [self.lconj()]
        while self.at_sym("|"):
            self.advance()
            parts.append(self.lconj())
        return fm.ldisj_all(parts)

    def lconj(self) -> fm.LikelihoodFormula:
        parts = [self.lneg()]
        while self.at_sym("&"):
            self.advance()
            parts.append(self.lneg())
        return fm.lconj_all(parts)

    def lneg(self) -> fm.LikelihoodFormula:
        if self.at_sym("~"):
            self.descend()
            self.advance()
            out = fm.LNot(self.lneg())
            self.depth -= 1
            return out
        if self.at_sym("("):
            self.descend()
            self.advance()
            out = self.lform()
            self.expect_sym(")")
            self.depth -= 1
            return out
        return self.basic()

    def basic(self) -> fm.Basic:
        t = self.term()
        if self.cur.kind != "sym" or self.cur.text not in (">=", "<=", ">", "<", "="):
            raise self.error("a relation (>=, <=, >, <, =)")
        rel = fm.Rel(self.advance().text)
        bound = self.rational()
        return fm.Basic(t, rel, bound)

    def term(self) -> fm.Term:
        sign = Fraction(1)
        if self.at_sym("-"):
            sign = Fraction(-1)
            self.advance()
        elif self.at_sym("+"):
            self.advance()
        parts = [self.addend(sign)]
        while self.at_sym("+", "-"):
            sign = Fraction(-1) if self.advance().text == "-" else Fraction(1)
            parts.append(self.addend(sign))
        return fm.Term(tuple(parts))

    def addend(self, sign: Fraction) -> tuple[Fraction, fm.PropFormula]:
        coeff = Fraction(1)
        if self.cur.kind == "num":
            coeff = self.rational()
        if not (self.cur.kind == "ident" and self.cur.text == "l"):
            raise self.error("'l('")
        self.advance()
        self.descend()
        self.expect_sym("(")
        arg = self.prop()
        self.expect_sym(")")
        self.depth -= 1
        return (sign * coeff, arg)

    def done(self) -> None:
        if self.cur.kind != "eof":
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
