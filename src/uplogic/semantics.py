"""Model checking: propositional extensions and satisfaction M |= f.

Propositions absent from a structure's declared list are false in every
world, so one structure can serve formulas over varying vocabularies.
Evaluation is exact rational arithmetic throughout; there is no tolerance.
Each call reads M's world i as bit i once, with a column of worlds per
proposition and each measure's support as (bit, mass) pairs.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import InputError
from .formula import (
    Basic,
    LAnd,
    LNot,
    LOr,
    LikelihoodFormula,
    PropFormula,
    Rel,
    Term,
    extension_mask,
)
from .structure import UpperProbStructure

_COMPARE = {Rel.GE: operator.ge, Rel.GT: operator.gt, Rel.LE: operator.le,
            Rel.LT: operator.lt, Rel.EQ: operator.eq}


class _Bits:
    def __init__(self, M: UpperProbStructure):
        self.full = (1 << len(M.worlds)) - 1
        bit = {w: 1 << i for i, w in enumerate(M.worlds)}
        names = {p for w in M.worlds for p in M.assignment[w]}
        self.columns = {p: sum(b for w, b in bit.items() if M.assignment[w].get(p)) for p in names}
        self.supports = [[(bit[w], m) for w, m in mu.items() if m] for mu in M.measures]

    def term(self, t: Term) -> Fraction:
        total = Fraction(0)
        for coeff, arg in t.parts:
            mask = extension_mask(arg, self.columns, self.full)
            total += coeff * max(sum((m for b, m in support if b & mask), Fraction(0))
                                 for support in self.supports)
        return total

    def holds(self, f: LikelihoodFormula) -> bool:
        if isinstance(f, Basic):
            return _COMPARE[f.rel](self.term(f.term), f.bound)
        if isinstance(f, LNot):
            return not self.holds(f.sub)
        if isinstance(f, LAnd):
            return all(self.holds(part) for part in f.parts)
        if isinstance(f, LOr):
            return any(self.holds(part) for part in f.parts)
        raise InputError(f"not a likelihood formula: {f!r}")


def extension(M: UpperProbStructure, phi: PropFormula) -> frozenset:
    """The set of worlds of M whose assignment satisfies phi."""
    bits = _Bits(M)
    mask = extension_mask(phi, bits.columns, bits.full)
    return frozenset(w for i, w in enumerate(M.worlds) if mask >> i & 1)


def eval_term(M: UpperProbStructure, t: Term) -> Fraction:
    """sum_i coeff_i * upper_of(M, extension(arg_i))."""
    return _Bits(M).term(t)


def evaluate(M: UpperProbStructure, f: LikelihoodFormula) -> bool:
    """The satisfaction relation M |= f."""
    return _Bits(M).holds(f)
