"""Propositional reasoning about upper probabilities of events.

Likelihood formulas constrain linear combinations of upper probabilities
l(phi) of propositional events, evaluated over finite sets of exact
rational probability measures.  The package offers parsing, model
checking, satisfiability and validity decision, tightest bounds,
(n,k)-cover machinery, and recognition of upper probability set
functions, all in exact arithmetic.
"""

from .covers import (
    CoverInstance,
    check_properties,
    l4_instances,
    search_violation,
    up3_check,
    verify_cover,
)
from .envelope import dominated_max, is_upper_probability
from .errors import (
    InputError,
    InternalCheckError,
    ResourceError,
    UplogicError,
    ValidationError,
)
from .formula import (
    FALSE,
    TRUE,
    And,
    Basic,
    Const,
    LAnd,
    LNot,
    LOr,
    LikelihoodFormula,
    Not,
    Or,
    Prop,
    PropFormula,
    Rel,
    Term,
    dnf,
    is_tautology,
    normalize,
    size,
)
from .parser import ParseError, parse_likelihood, parse_prop, parse_term, print_formula
from .semantics import eval_term, evaluate, extension
from .solver import BoundsResult, SatResult, SatVerdict, bounds, sat, valid
from .structure import (
    SetFunction,
    UpperProbStructure,
    load_set_function,
    load_structure,
    lower_of,
    save_set_function,
    save_structure,
    set_function_of,
    upper_of,
)

__version__ = "0.1.0"
