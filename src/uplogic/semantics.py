"""Model checking: propositional extensions and satisfaction M |= f.

Propositions absent from a structure's declared list are false in every
world, so one structure can serve formulas over varying vocabularies.
Evaluation is exact rational arithmetic throughout; there is no tolerance.
"""

from __future__ import annotations

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
    holds,
)
from .structure import UpperProbStructure, upper_of


def extension(M: UpperProbStructure, phi: PropFormula) -> frozenset:
    """The set of worlds of M whose assignment satisfies phi."""
    return frozenset(w for w in M.worlds if holds(phi, M.assignment[w]))


def eval_term(M: UpperProbStructure, t: Term) -> Fraction:
    """sum_i coeff_i * upper_of(M, extension(arg_i))."""
    total = Fraction(0)
    for coeff, arg in t.parts:
        total += coeff * upper_of(M, extension(M, arg))
    return total


_COMPARE = {
    Rel.GE: lambda x, b: x >= b,
    Rel.GT: lambda x, b: x > b,
    Rel.LE: lambda x, b: x <= b,
    Rel.LT: lambda x, b: x < b,
    Rel.EQ: lambda x, b: x == b,
}


def evaluate(M: UpperProbStructure, f: LikelihoodFormula) -> bool:
    """The satisfaction relation M |= f."""
    if isinstance(f, Basic):
        return _COMPARE[f.rel](eval_term(M, f.term), f.bound)
    if isinstance(f, LNot):
        return not evaluate(M, f.sub)
    if isinstance(f, LAnd):
        return all(evaluate(M, part) for part in f.parts)
    if isinstance(f, LOr):
        return any(evaluate(M, part) for part in f.parts)
    raise InputError(f"not a likelihood formula: {f!r}")
