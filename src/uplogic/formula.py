"""Abstract syntax for propositional and likelihood formulas.

Propositional formulas are trees over primitive propositions, the constants
true/false, negation, conjunction and disjunction.  Likelihood formulas are
boolean combinations of basic constraints ``t R b`` where ``t`` is a linear
combination of likelihood terms ``l(phi)`` with exact rational coefficients.

Conjunction and disjunction are n-ary: And, Or, LAnd and LOr hold a tuple
``parts`` of two or more operands, and their constructors splice in an
operand of the same kind, so ``LAnd(LAnd(a, b), c) == LAnd(a, b, c) ==
LAnd(a, LAnd(b, c))``.  No node has a part of its own kind, and a chain
``a & b & c`` is one node whatever its grouping.

Implication is desugared into ``!a | b`` at construction time, so the AST
core has no implication node.
"""

from __future__ import annotations

import functools
import itertools
import operator
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from . import errors
from .errors import InputError
from .record import Record, set_hash

Rational = Union[Fraction, int]


# ---------------------------------------------------------------------------
# Propositional formulas


class PropFormula(Record):
    """Base class; subclasses are immutable, hashable records."""

    __slots__ = ()


class Prop(PropFormula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise InputError("proposition name must be non-empty")
        object.__setattr__(self, "name", name)
        set_hash(self, None)


class Const(PropFormula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", value)
        set_hash(self, None)


class Not(PropFormula):
    __slots__ = ("sub",)

    def __init__(self, sub: PropFormula):
        object.__setattr__(self, "sub", sub)
        set_hash(self, None)


class _NAry:
    """A connective over a tuple ``parts`` of two or more operands; an
    operand of the node's own kind is spliced in."""

    __slots__ = ()

    def __init__(self, *parts):
        if len(parts) < 2:
            raise InputError(f"{type(self).__name__} needs at least two operands")
        flat: list = []
        for part in parts:
            if type(part) is type(self):
                flat += part.parts
            else:
                flat.append(part)
        object.__setattr__(self, "parts", tuple(flat))
        set_hash(self, None)


class And(_NAry, PropFormula):
    __slots__ = ("parts",)


class Or(_NAry, PropFormula):
    __slots__ = ("parts",)


TRUE = Const(True)
FALSE = Const(False)


def implies(a: PropFormula, b: PropFormula) -> PropFormula:
    return Or(Not(a), b)


def conj_all(parts: Sequence[PropFormula]) -> PropFormula:
    if len(parts) < 2:
        return parts[0] if parts else TRUE
    return And(*parts)


def disj_all(parts: Sequence[PropFormula]) -> PropFormula:
    if len(parts) < 2:
        return parts[0] if parts else FALSE
    return Or(*parts)


def props_of(phi: PropFormula) -> list[str]:
    """Sorted list of the primitive proposition names occurring in phi."""
    seen: set[str] = set()

    def walk(f: PropFormula) -> None:
        if isinstance(f, Prop):
            seen.add(f.name)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part)

    walk(phi)
    return sorted(seen)


def extension_mask(phi: PropFormula, columns: Mapping[str, int], full: int) -> int:
    """The worlds where phi holds, as a bitmask within full.  columns maps a
    proposition to the mask of the worlds where it is true; a proposition
    missing from columns is false everywhere."""
    if isinstance(phi, Prop):
        return columns.get(phi.name, 0)
    if isinstance(phi, Const):
        return full if phi.value else 0
    if isinstance(phi, Not):
        return full ^ extension_mask(phi.sub, columns, full)
    if isinstance(phi, (And, Or)):
        masks = [extension_mask(part, columns, full) for part in phi.parts]
        return functools.reduce(operator.and_ if isinstance(phi, And) else operator.or_, masks)
    raise InputError(f"not a propositional formula: {phi!r}")


# ---------------------------------------------------------------------------
# Atoms


def atom_columns(props: Sequence[str]) -> dict[str, int]:
    """Each proposition's column over the 2^n atoms of n distinct props:
    bit i is set where atom i makes it true.  Atom i assigns the k-th
    proposition bit n-1-k of i, so the atoms are the assignments in
    itertools.product((False, True), repeat=n) order.  That bit is set in
    runs of h = 2^(n-1-k) every 2h atoms; full // (2^h + 1) has ones in the
    low h bits of each 2h-bit block, and << h moves them up."""
    errors.check_cap(len(props), "propositions", errors.CEILING, "the atom cap")
    n = len(props)
    full = (1 << (1 << n)) - 1
    return {p: full // ((1 << h) + 1) << h
            for p, h in zip(props, (1 << (n - 1 - k) for k in range(n)))}


def is_tautology(phi: PropFormula) -> bool:
    ps = props_of(phi)
    full = (1 << (1 << len(ps))) - 1
    return extension_mask(phi, atom_columns(ps), full) == full


# ---------------------------------------------------------------------------
# Likelihood formulas


class Rel(Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"
    EQ = "="


class Term(Record):
    """Linear combination sum_i coeff_i * l(arg_i), length >= 1."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[Fraction, PropFormula], ...]):
        if not parts:
            raise InputError("term must have at least one addend")
        object.__setattr__(self, "parts", tuple(
            (c if type(c) is Fraction else Fraction(c), a) for c, a in parts))
        set_hash(self, None)

    def negated(self) -> "Term":
        return Term(tuple((-c, a) for c, a in self.parts))

    def args(self) -> list[PropFormula]:
        return [a for _, a in self.parts]


def term(*parts: tuple[Rational, PropFormula]) -> Term:
    return Term(parts)


class LikelihoodFormula(Record):
    __slots__ = ()


class Basic(LikelihoodFormula):
    __slots__ = ("term", "rel", "bound")

    def __init__(self, term: Term, rel: Rel, bound: Rational):
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "bound", bound if type(bound) is Fraction else Fraction(bound))
        set_hash(self, None)


class LNot(LikelihoodFormula):
    __slots__ = ("sub",)

    def __init__(self, sub: LikelihoodFormula):
        object.__setattr__(self, "sub", sub)
        set_hash(self, None)


class LAnd(_NAry, LikelihoodFormula):
    __slots__ = ("parts",)


class LOr(_NAry, LikelihoodFormula):
    __slots__ = ("parts",)


def lconj_all(parts: Sequence[LikelihoodFormula]) -> LikelihoodFormula:
    if not parts:
        raise InputError("empty conjunction")
    return parts[0] if len(parts) == 1 else LAnd(*parts)


def ldisj_all(parts: Sequence[LikelihoodFormula]) -> LikelihoodFormula:
    if not parts:
        raise InputError("empty disjunction")
    return parts[0] if len(parts) == 1 else LOr(*parts)


def basics_of(f: LikelihoodFormula) -> list[Basic]:
    """The Basic subformulas of f, left to right."""
    out: list[Basic] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Basic):
            out.append(g)
        elif isinstance(g, LNot):
            stack.append(g.sub)
        elif isinstance(g, (LAnd, LOr)):
            stack += reversed(g.parts)
    return out


_DUAL = {LAnd: LOr, LOr: LAnd}


def normalize(f: LikelihoodFormula) -> LikelihoodFormula:
    """Equivalent formula using only >= and > in Basics and no negations.

    t = a   becomes  (t >= a) & (-t >= -a)
    t <= a  becomes  -t >= -a
    t < a   becomes  -t > -a
    !(t >= a) becomes -t > -a, and dually for the other relations.
    """

    def go(g: LikelihoodFormula, neg: bool) -> LikelihoodFormula:
        if isinstance(g, LNot):
            return go(g.sub, not neg)
        if isinstance(g, (LAnd, LOr)):
            node = _DUAL[type(g)] if neg else type(g)
            return node(*[go(part, neg) for part in g.parts])
        if isinstance(g, Basic):
            t, b = g.term, g.bound
            rel = g.rel
            if rel is Rel.LE:
                t, b, rel = t.negated(), -b, Rel.GE
            elif rel is Rel.LT:
                t, b, rel = t.negated(), -b, Rel.GT
            if rel is Rel.EQ:
                both = LAnd(Basic(t, Rel.GE, b), Basic(t.negated(), Rel.GE, -b))
                return go(both, neg)
            if not neg:
                return Basic(t, rel, b)
            # !(t >= b) == -t > -b ; !(t > b) == -t >= -b
            flipped = Rel.GT if rel is Rel.GE else Rel.GE
            return Basic(t.negated(), flipped, -b)
        raise InputError(f"not a likelihood formula: {g!r}")

    return go(f, False)


def dnf(f: LikelihoodFormula) -> list[list[Basic]]:
    """Disjunctive normal form over Basic literals.

    Requires f normalized (no LNot nodes); Basics are treated as opaque.
    The disjuncts of a disjunction are its parts' in turn; those of a
    conjunction are one disjunct of each part, concatenated, with the last
    part varying fastest.
    """
    if isinstance(f, Basic):
        return [[f]]
    if isinstance(f, LOr):
        return [d for part in f.parts for d in dnf(part)]
    if isinstance(f, LAnd):
        return [
            [b for d in combo for b in d]
            for combo in itertools.product(*[dnf(part) for part in f.parts])
        ]
    if isinstance(f, LNot):
        raise InputError("dnf requires a normalized formula (no negations)")
    raise InputError(f"not a likelihood formula: {f!r}")


# ---------------------------------------------------------------------------
# Canonical token stream (shared by the printer and the size measure)

_LEVEL = {Or: 1, And: 2, Not: 3, Prop: 4, Const: 4, LOr: 1, LAnd: 2, LNot: 3, Basic: 4}
_SYMBOL = {Not: "!", And: "&", Or: "|", LNot: "~", LAnd: "&", LOr: "|"}


def _tokens(f: Union[PropFormula, LikelihoodFormula], need: int) -> Iterator[str]:
    """The tokens of f, in parentheses if its level is below need."""
    level = _LEVEL[type(f)]
    parens = level < need
    if parens:
        yield "("
    if isinstance(f, Prop):
        yield f.name
    elif isinstance(f, Const):
        yield "true" if f.value else "false"
    elif isinstance(f, Basic):
        yield from _term_tokens(f.term)
        yield f.rel.value
        yield str(f.bound)
    elif isinstance(f, (Not, LNot)):
        yield _SYMBOL[type(f)]
        yield from _tokens(f.sub, 3)
    else:
        for i, part in enumerate(f.parts):
            if i:
                yield _SYMBOL[type(f)]
            yield from _tokens(part, level + 1)
    if parens:
        yield ")"


def _term_tokens(t: Term) -> Iterator[str]:
    for i, (coeff, arg) in enumerate(t.parts):
        if i == 0:
            if coeff < 0:
                yield "u-"
        else:
            yield "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if mag != 1:
            yield str(mag)
        yield "l"
        yield "("
        yield from _tokens(arg, 0)
        yield ")"


def canonical_tokens(f: Union[PropFormula, LikelihoodFormula]) -> list[str]:
    return list(_tokens(f, 0))


def size(f: Union[PropFormula, LikelihoodFormula]) -> int:
    """Symbol count of the canonical written form of f.

    Convention: every written token counts as one symbol, including
    parentheses; a rational coefficient or bound is a single symbol.
    """
    return len(canonical_tokens(f))
