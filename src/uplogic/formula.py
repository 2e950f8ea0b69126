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
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .errors import InputError, ResourceError

Rational = Union[Fraction, int]

DEFAULT_ATOM_CAP = 16


def atom_cap(default: int = DEFAULT_ATOM_CAP) -> int:
    """Max number of distinct propositions allowed in atom enumeration.

    Overridable via the UPLOGIC_ATOM_CAP environment variable, up to
    DEFAULT_ATOM_CAP.
    """
    raw = os.environ.get("UPLOGIC_ATOM_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"UPLOGIC_ATOM_CAP is not an integer: {raw!r}")
    if cap < 0:
        raise InputError(f"UPLOGIC_ATOM_CAP is negative: {raw!r}")
    if cap > DEFAULT_ATOM_CAP:
        raise InputError(f"UPLOGIC_ATOM_CAP is above the ceiling {DEFAULT_ATOM_CAP}: {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# Propositional formulas


class PropFormula:
    """Base class; subclasses are frozen dataclasses and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Prop(PropFormula):
    name: str

    def __post_init__(self):
        if not self.name:
            raise InputError("proposition name must be non-empty")


@dataclass(frozen=True, slots=True)
class Const(PropFormula):
    value: bool


@dataclass(frozen=True, slots=True)
class Not(PropFormula):
    sub: PropFormula


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


@dataclass(frozen=True, slots=True, init=False)
class And(_NAry, PropFormula):
    parts: tuple[PropFormula, ...]


@dataclass(frozen=True, slots=True, init=False)
class Or(_NAry, PropFormula):
    parts: tuple[PropFormula, ...]


TRUE = Const(True)
FALSE = Const(False)


def implies(a: PropFormula, b: PropFormula) -> PropFormula:
    return Or(Not(a), b)


def iff(a: PropFormula, b: PropFormula) -> PropFormula:
    return And(implies(a, b), implies(b, a))


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


def holds(phi: PropFormula, assignment: Mapping[str, bool]) -> bool:
    """Truth of phi under a world's assignment.  Propositions missing from
    the assignment are false."""
    return extension_mask(phi, {p: 1 for p, t in assignment.items() if t}, 1) == 1


# ---------------------------------------------------------------------------
# Atoms


@dataclass(frozen=True, slots=True)
class Atom:
    """One complete conjunction q1 & ... & qN with qi in {pi, !pi}."""

    props: tuple[str, ...]
    signs: tuple[bool, ...]

    def __post_init__(self):
        if len(self.props) != len(self.signs):
            raise InputError("props and signs length mismatch")

    def assignment(self) -> dict[str, bool]:
        return dict(zip(self.props, self.signs))

    def as_formula(self) -> PropFormula:
        lits = [Prop(p) if s else Not(Prop(p)) for p, s in zip(self.props, self.signs)]
        return conj_all(lits)


def atoms_of(props: Sequence[str]) -> list[Atom]:
    """All 2^N atoms over props, in lexicographic sign order (False first)."""
    if not props:
        raise InputError("props must be non-empty")
    if len(set(props)) != len(props):
        raise InputError("duplicate proposition name")
    if len(props) > atom_cap():
        raise ResourceError(f"{len(props)} propositions exceed the atom cap {atom_cap()}")
    ps = tuple(props)
    return [Atom(ps, signs) for signs in itertools.product((False, True), repeat=len(ps))]


def atom_columns(props: Sequence[str]) -> dict[str, int]:
    """Each proposition's column over the atoms of atoms_of(props): bit i is
    set where atom i makes it true.  The k-th of n propositions is bit n-1-k
    of i, set in runs of h = 2^(n-1-k) every 2h atoms; full // (2^h + 1) has
    ones in the low h bits of each 2h-bit block, and << h moves them up."""
    if len(props) > atom_cap():
        raise ResourceError(f"{len(props)} propositions exceed the atom cap {atom_cap()}")
    n = len(props)
    full = (1 << (1 << n)) - 1
    return {p: full // ((1 << h) + 1) << h
            for p, h in zip(props, (1 << (n - 1 - k) for k in range(n)))}


def atom_set(phi: PropFormula, props: Sequence[str]) -> frozenset[Atom]:
    """The atoms over props whose assignment makes phi true."""
    missing = [p for p in props_of(phi) if p not in props]
    if missing:
        raise InputError(f"unknown proposition(s): {', '.join(missing)}")
    atoms = atoms_of(props)
    mask = extension_mask(phi, atom_columns(props), (1 << len(atoms)) - 1)
    return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


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


@dataclass(frozen=True, slots=True)
class Term:
    """Linear combination sum_i coeff_i * l(arg_i), length >= 1."""

    parts: tuple[tuple[Fraction, PropFormula], ...]

    def __post_init__(self):
        if not self.parts:
            raise InputError("term must have at least one addend")
        object.__setattr__(
            self, "parts", tuple((Fraction(c), a) for c, a in self.parts)
        )

    def negated(self) -> "Term":
        return Term(tuple((-c, a) for c, a in self.parts))

    def args(self) -> list[PropFormula]:
        return [a for _, a in self.parts]


def term(*parts: tuple[Rational, PropFormula]) -> Term:
    return Term(tuple((Fraction(c), a) for c, a in parts))


class LikelihoodFormula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Basic(LikelihoodFormula):
    term: Term
    rel: Rel
    bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))


@dataclass(frozen=True, slots=True)
class LNot(LikelihoodFormula):
    sub: LikelihoodFormula


@dataclass(frozen=True, slots=True, init=False)
class LAnd(_NAry, LikelihoodFormula):
    parts: tuple[LikelihoodFormula, ...]


@dataclass(frozen=True, slots=True, init=False)
class LOr(_NAry, LikelihoodFormula):
    parts: tuple[LikelihoodFormula, ...]


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


def likelihood_args(f: LikelihoodFormula) -> list[PropFormula]:
    """All propositional arguments appearing under l(.) in f, in order."""
    return [arg for b in basics_of(f) for arg in b.term.args()]


def likelihood_props(f: LikelihoodFormula) -> list[str]:
    seen: set[str] = set()
    for arg in likelihood_args(f):
        seen.update(props_of(arg))
    return sorted(seen)


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
