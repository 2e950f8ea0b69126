"""Model checking: propositional extensions and satisfaction M |= f.

Propositions absent from a structure's declared list are false in every
world, so one structure can serve formulas over varying vocabularies.
Evaluation is exact rational arithmetic throughout; there is no tolerance.
Each call reads the structure's cached bitmask view: a column of worlds
per proposition and each measure's support as (bit, mass) pairs.
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
from .structure import UpperProbStructure, _unmask

_COMPARE = {Rel.GE: operator.ge, Rel.GT: operator.gt, Rel.LE: operator.le,
            Rel.LT: operator.lt, Rel.EQ: operator.eq}


def extension(M: UpperProbStructure, phi: PropFormula) -> frozenset:
    """The set of worlds of M whose assignment satisfies phi."""
    return _unmask(M.worlds, (extension_mask(phi, M.columns, M.full),))[0]


def eval_term(M: UpperProbStructure, t: Term) -> Fraction:
    """sum_i coeff_i * upper_of(M, extension(arg_i))."""
    columns, full = M.columns, M.full
    total = Fraction(0)
    for coeff, arg in t.parts:
        total += coeff * max(M.masses(extension_mask(arg, columns, full)))
    return total


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
