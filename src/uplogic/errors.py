"""Shared exception types for the uplogic package, and the size caps and
search budget past which an operation raises ResourceError.

The decision procedures are exponential in one number n: a formula's n
propositions have 2^n atoms, and a set function on n elements has 2^n
subsets.  CEILING bounds the 2^n tables built from n names (atoms, and a
structure's worlds); cap() is the n that sat, valid, bounds and envelope
accept, DEFAULT_CAP unless the UPLOGIC_ATOM_CAP environment variable sets
it, up to CEILING.  SEARCH_BUDGET bounds the work of the cover search and
the property checks.
"""

import os

CEILING = 16
DEFAULT_CAP = 12
SEARCH_BUDGET = 2_000_000


class UplogicError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UplogicError):
    """A caller-supplied value violates an operation's precondition."""


class ValidationError(UplogicError):
    """A loaded document violates a structural invariant."""


class ResourceError(UplogicError):
    """A configured size cap or search budget was exceeded."""


class InternalCheckError(UplogicError):
    """An internal self-check failed; indicates a bug, never bad input."""


def cap() -> int:
    """The largest n of propositions or ground elements that the
    exponential decision procedures accept: UPLOGIC_ATOM_CAP if it is
    set, DEFAULT_CAP if not."""
    raw = os.environ.get("UPLOGIC_ATOM_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"UPLOGIC_ATOM_CAP is not an integer: {raw!r}")
    if n < 0:
        raise InputError(f"UPLOGIC_ATOM_CAP is negative: {raw!r}")
    if n > CEILING:
        raise InputError(f"UPLOGIC_ATOM_CAP is above the ceiling {CEILING}: {raw!r}")
    return n


def check_cap(count: int, what: str, limit: int, name: str = "the cap") -> None:
    """ResourceError if count, a number of what, is over limit."""
    if count > limit:
        raise ResourceError(f"{count} {what} exceed {name} {limit}")
