"""Finite upper probability structures and candidate set functions.

File formats (JSON, rationals as "a/b" strings or bare integers):

Structure:
    {"props": ["p", "q"],
     "worlds": [{"id": "w0", "assign": {"p": true, "q": false}}, ...],
     "measures": [{"id": "m0", "dist": {"w0": "1/4", ...}}, ...]}
Worlds omitted from a dist get probability 0.  A world may assign only
propositions in props; one it leaves out is false there.

Set function:
    {"omega": ["a", "b", "c"],
     "v": {"": "0", "a": "3/8", "a,b": "1/2", ...}}
Subsets are keyed by comma-joined sorted element names, "" is the empty
set.  Omitted empty set / full set default to 0 / 1; every other subset
must be present, and each subset is given once, by one key that names
each of its elements once.  The reader makes one pass over the keys: each
key becomes a mask through an element -> bit dict and each value a
numerator and denominator, with no frozenset or Fraction.  It checks them
in integers, the count of subsets before anything of size 2^n is built,
and the table it builds is the set function itself (SetFunction).

This module alone maps worlds and subsets to bitmasks: world or ground
element i is bit i, and subsets are listed by size, then by element index
(subset_masks).  Upper and lower values are read from a structure's
cached supports (UpperProbStructure.masses), or from a set function's
integer table over one common denominator, which is its state.  A
structure's table is its upper envelope (set_function_of); its lower
probability is the dual, lower(S) = 1 - upper(complement of S), which is
the least mass any measure puts on S because each measure sums to 1.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from . import errors
from .errors import InputError, ValidationError
from .record import Record

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational_parts(raw: Union[str, int]) -> tuple[int, int]:
    """A JSON integer, or a string -?digits(/digits)? with a nonzero
    denominator, as (numerator, positive denominator)."""
    if isinstance(raw, str):
        if _RATIONAL.fullmatch(raw):
            num, _, den = raw.partition("/")
            try:
                parts = int(num), int(den or 1)
            except ValueError:  # past int()'s digit limit
                pass
            else:
                if parts[1]:
                    return parts
        raise ValidationError(f"not a rational: {raw!r}")
    if isinstance(raw, bool):
        raise ValidationError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return raw, 1
    raise ValidationError(f"not a rational: {raw!r} (floats are not accepted)")


def parse_rational(raw: Union[str, int]) -> Fraction:
    """A rational of a document (_rational_parts) as a Fraction."""
    return Fraction(*_rational_parts(raw))


def format_rational(x: Fraction) -> Union[str, int]:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Bitmasks: world or ground element i is bit i of a mask


def subset_sums(mass: Sequence[int]) -> list[int]:
    """The table of sums of mass over each subset, indexed by bitmask:
    entry m is the sum of mass[i] over the bits i of m."""
    acc = [0]
    for x in mass:  # the masks with bit i set follow those without it
        acc += [a + x for a in acc]
    return acc


def subset_masks(n: int) -> list[int]:
    """The bitmasks of the subsets of n elements, by size, then
    lexicographically by element index."""
    return [sum(1 << i for i in c) for r in range(n + 1)
            for c in itertools.combinations(range(n), r)]


def _mask(ground: Sequence[str], X) -> int:
    return sum(1 << i for i, g in enumerate(ground) if g in X)


def _unmask(ground: Sequence[str], masks: Iterable[int]) -> tuple[frozenset, ...]:
    return tuple(frozenset(g for i, g in enumerate(ground) if m >> i & 1) for m in masks)


class UpperProbStructure(Record):
    """Finite structure: worlds, truth assignment[w][p], measures, each world w -> mass.

    World i is bit i of a mask; full, columns and supports are the
    structure in that form, built on first use."""

    __slots__ = ("props", "worlds", "assignment", "measures", "measure_ids", "__dict__")

    def __init__(self, props: tuple[str, ...], worlds: tuple[str, ...], assignment: Mapping,
                 measures: tuple[Mapping[str, Fraction], ...], measure_ids: tuple[str, ...] = ()):
        ids = measure_ids or tuple(f"m{i}" for i in range(len(measures)))
        super().__init__(props, worlds, assignment, measures, ids)
        if not self.worlds:
            raise ValidationError("structure must have at least one world")
        if not self.measures:
            raise ValidationError("structure must have at least one measure")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValidationError("duplicate world id")
        if len(ids) != len(self.measures):
            raise ValidationError("measure_ids length mismatch")
        world_set = self.world_set
        declared = set(self.props)
        for w in self.worlds:
            if w not in self.assignment:
                raise ValidationError(f"world {w!r} has no truth assignment")
            for p in self.assignment[w]:
                if p not in declared:
                    raise ValidationError(f"world {w!r} assigns {p!r}, which is not in props")
        for mid, mu in zip(self.measure_ids, self.measures):
            total = Fraction(0)
            for w, mass in mu.items():
                if w not in world_set:
                    raise ValidationError(f"measure {mid!r} mentions unknown world {w!r}")
                if mass < 0:
                    raise ValidationError(f"measure {mid!r} assigns negative mass to {w!r}")
                total += mass
            if total != 1:
                raise ValidationError(f"measure {mid!r} sums to {total}, not 1")

    @cached_property
    def world_set(self) -> frozenset:
        return frozenset(self.worlds)

    @cached_property
    def full(self) -> int:
        """The mask of all worlds."""
        return (1 << len(self.worlds)) - 1

    @cached_property
    def columns(self) -> dict[str, int]:
        """Each proposition's column: the mask of the worlds where it is true."""
        return {p: sum(1 << i for i, w in enumerate(self.worlds) if self.assignment[w].get(p))
                for p in self.props}

    @cached_property
    def supports(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each measure as the (world bit, mass) pairs of its nonzero masses."""
        bit = {w: 1 << i for i, w in enumerate(self.worlds)}
        return tuple(tuple((bit[w], m) for w, m in mu.items() if m) for mu in self.measures)

    def mass(self, measure_index: int, world: str) -> Fraction:
        return self.measures[measure_index].get(world, Fraction(0))

    def masses(self, mask: int) -> Iterator[Fraction]:
        """Each measure's mass on the worlds in mask."""
        return (sum((m for b, m in support if b & mask), Fraction(0))
                for support in self.supports)


def _mask_of(M: UpperProbStructure, S: Iterable[str]) -> int:
    S = frozenset(S)
    unknown = S - M.world_set
    if unknown:
        raise InputError(f"unknown world id(s): {', '.join(sorted(unknown))}")
    return _mask(M.worlds, S)


def upper_of(M: UpperProbStructure, S: Iterable[str]) -> Fraction:
    """max over measures of the total mass on S (sup attained: P finite)."""
    return max(M.masses(_mask_of(M, S)))


def lower_of(M: UpperProbStructure, S: Iterable[str]) -> Fraction:
    return min(M.masses(_mask_of(M, S)))


class SetFunction(Record):
    """Total map from subsets of a finite ground set to rationals in [0,1].

    The set function is its integer table: upper[mask] / denominator is the
    value at the subset mask, bit i standing for ground[i], over the least
    common denominator of the values.  values and v(X) are Fractions made
    from the table; two set functions are equal when their grounds, in
    order, and their values are."""

    __slots__ = ("ground", "upper", "denominator", "__dict__")

    def __init__(self, ground: tuple[str, ...], values: Mapping[frozenset, Fraction]):
        super().__init__(ground, *_table(ground, values.items(), frozenset, _fraction_parts))

    def __hash__(self):  # the table is a list
        return hash((self.ground, tuple(self.upper), self.denominator))

    def __call__(self, X: Iterable[str]) -> Fraction:
        return Fraction(self.upper[self.mask(X)], self.denominator)

    def mask(self, X: Iterable[str]) -> int:
        """The mask of the subset X of the ground set: bit i for ground[i]."""
        X = frozenset(X)
        try:
            return sum(self._bits[g] for g in X)
        except KeyError:
            raise InputError(f"subset {sorted(X)} not within the ground set") from None

    @cached_property
    def _bits(self) -> dict[str, int]:
        return {g: 1 << i for i, g in enumerate(self.ground)}

    @cached_property
    def values(self) -> dict[frozenset, Fraction]:
        """The value at each subset, in subset_masks order."""
        masks = subset_masks(len(self.ground))
        return {X: Fraction(self.upper[m], self.denominator)
                for X, m in zip(_unmask(self.ground, masks), masks)}

    def subsets(self) -> tuple[frozenset, ...]:
        """Every subset of the ground set, in subset_masks order."""
        return _unmask(self.ground, subset_masks(len(self.ground)))


_fraction_parts = attrgetter("numerator", "denominator")


def _table(ground: Sequence[str], items: Iterable[tuple], names_of: Callable,
           parts_of: Callable) -> tuple[list[int], int]:
    """The table of the set function on ground that items gives, and its
    denominator L: upper[mask] / L is the value at the subset mask, over
    the least common denominator of the values.

    items are (key, value) pairs: names_of(key) lists the elements of the
    key's subset, and parts_of(value) is its value as (numerator, positive
    denominator).  The empty set and the ground set default to 0 and 1.
    ValidationError, checked in this order, unless each key names each
    element once, each subset is given once, ground names each element
    once, the keys and the defaults number 2^n, every key is within ground,
    and each value is in [0,1].  No table of 2^n entries is built before
    the count is checked.
    """
    bit: dict[str, int] = {}
    for i, g in enumerate(ground):
        bit.setdefault(g, 1 << i)
    repeated = len(bit) < len(ground)
    names = list(ground)  # the element at each bit, then those outside ground
    given: dict[int, tuple[int, int]] = {}
    bit_of = bit.__getitem__
    for key, raw in items:
        elements = names_of(key)
        try:  # a sum of distinct bits has one bit set per term
            mask = sum(map(bit_of, elements))
        except KeyError:
            mask = -1
        if mask < 0 or mask.bit_count() != len(elements):
            mask = 0
            for e in elements:
                b = bit.get(e)
                if b is None:  # outside ground: a bit of its own, refused below
                    b = bit[e] = 1 << len(names)
                    names.append(e)
                if mask & b:
                    raise ValidationError(f"subset key {key!r} names an element twice")
                mask |= b
        if mask in given:
            raise ValidationError(f"subset {{{_subset_key(_unmask(names, (mask,))[0])}}} "
                                  f"is given twice, the second time as {key!r}")
        given[mask] = parts_of(raw)
    if repeated:
        raise ValidationError("duplicate ground element")
    full = (1 << len(ground)) - 1
    count = len(given) + len({0, full} - given.keys())
    if count != full + 1:
        raise ValidationError(
            f"set function must be total: expected {full + 1} subsets, got {count}")
    L = lcm(*[den for _, den in given.values()])
    upper = [0] * (full + 1)
    upper[full] = L if full else 0
    for mask, (num, den) in given.items():
        if mask > full or not 0 <= num <= den:
            X = sorted(_unmask(names, (mask,))[0])
            if mask > full:
                raise ValidationError(f"subset {X} not within the ground set")
            raise ValidationError(f"value {Fraction(num, den)} at {X} outside [0,1]")
        upper[mask] = num * (L // den)
    return _lowest(upper, L)


def _lowest(upper: list[int], L: int) -> tuple[list[int], int]:
    """upper / L over the least common denominator of its values."""
    g = gcd(L, *upper)
    if g > 1:
        return [u // g for u in upper], L // g
    return upper, L


def set_function_of(M: UpperProbStructure) -> SetFunction:
    """The upper envelope of M's measures, as a total set function: its
    value at a set of worlds is the most mass any measure puts there.  A
    structure of more than errors.CEILING worlds is refused."""
    errors.check_cap(len(M.worlds), "worlds", errors.CEILING, "the set-function cap")
    L = lcm(*[m.denominator for support in M.supports for _, m in support])
    # per-measure cumulative mass by mask, then envelope
    totals = []
    for support in M.supports:
        mass = [0] * len(M.worlds)
        for b, m in support:
            mass[b.bit_length() - 1] = m.numerator * (L // m.denominator)
        totals.append(subset_sums(mass))
    upper = [max(t) for t in zip(*totals)]
    return _set_function(M.worlds, *_lowest(upper, L))


def _set_function(ground: tuple[str, ...], upper: list[int], L: int) -> SetFunction:
    """The set function with the table upper over L, in lowest terms, which
    the caller has checked."""
    v = object.__new__(SetFunction)
    Record.__init__(v, ground, upper, L)
    return v


# ---------------------------------------------------------------------------
# Serialization


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _load_json(data: Union[bytes, str], what: str) -> dict:
    """The document in data, which must be a JSON object, with no key given
    twice in one object."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data, object_pairs_hook=_once_each)
    except (ValueError, RecursionError) as e:  # JSON and UTF-8 errors included
        raise ValidationError(f"malformed {what} document: {e}")
    return _typed(doc, dict, f"a {what} document")


def _once_each(pairs: list) -> dict:
    """A JSON object's members, each key once (json.loads keeps the last)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValidationError(f"key {key!r} is given twice in one object")
    return doc


def _typed(x, kind: type, what: str):
    """x, which must be of the JSON type kind (dict, list, str or int;
    true and false are not ints here)."""
    if type(x) is not kind:
        raise ValidationError(f"{what} must be {_JSON_NAMES[kind]}")
    return x


def _field(doc: dict, key: str, kind: type, what: str):
    if key not in doc:
        raise ValidationError(f"missing field in {what} document: {key!r}")
    return _typed(doc[key], kind, f"{key!r}")


def _strings(xs: list, what: str) -> tuple[str, ...]:
    for x in xs:
        _typed(x, str, f"every entry of {what}")
    return tuple(xs)


def load_structure(data: Union[bytes, str]) -> UpperProbStructure:
    doc = _load_json(data, "structure")
    props = _strings(_field(doc, "props", list, "structure"), "'props'")
    world_docs = _field(doc, "worlds", list, "structure")
    measure_docs = _field(doc, "measures", list, "structure")
    worlds = []
    assignment = {}
    for i, wd in enumerate(world_docs):
        _typed(wd, dict, f"world {i}")
        if "id" not in wd:
            raise ValidationError(f"world {i} has no id")
        wid = _typed(wd["id"], str, f"the id of world {i}")
        worlds.append(wid)
        assign = _typed(wd.get("assign", {}), dict, f"the assign of world {wid!r}")
        for p, truth in assign.items():
            if not isinstance(truth, bool):
                raise ValidationError(f"world {wid!r}: assignment for {p!r} is not a boolean")
        assignment[wid] = {p: bool(t) for p, t in assign.items()}
    measures = []
    measure_ids = []
    for i, md in enumerate(measure_docs):
        _typed(md, dict, f"measure {i}")
        mid = _typed(md.get("id", f"m{i}"), str, f"the id of measure {i}")
        measure_ids.append(mid)
        dist = _typed(md.get("dist", {}), dict, f"the dist of measure {mid!r}")
        measures.append({w: parse_rational(x) for w, x in dist.items()})
    return UpperProbStructure(
        props=props,
        worlds=tuple(worlds),
        assignment=assignment,
        measures=tuple(measures),
        measure_ids=tuple(measure_ids),
    )


def structure_doc(M: UpperProbStructure) -> dict:
    """M as the JSON document that load_structure reads."""
    return {
        "props": list(M.props),
        "worlds": [{"id": w, "assign": dict(M.assignment[w])} for w in M.worlds],
        "measures": [
            {
                "id": mid,
                "dist": {w: format_rational(x) for w, x in mu.items() if x != 0},
            }
            for mid, mu in zip(M.measure_ids, M.measures)
        ],
    }


def save_structure(M: UpperProbStructure) -> str:
    return json.dumps(structure_doc(M), indent=2)


def _subset_key(X: frozenset) -> str:
    return ",".join(sorted(X))


def _key_names(key: str) -> list[str]:
    """The elements a subset key names: its comma-separated parts, empty
    ones dropped."""
    names = key.split(",")
    return [e for e in names if e] if "" in names else names


def load_set_function(data: Union[bytes, str]) -> SetFunction:
    """The set function of a document, read in one pass over its keys into
    its integer table (_table checks it)."""
    doc = _load_json(data, "set-function")
    ground = _strings(_field(doc, "omega", list, "set-function"), "'omega'")
    for g in ground:  # a subset key is its elements joined by commas
        if not g or "," in g:
            raise ValidationError(f"omega entry {g!r} cannot appear in a subset key")
    items = _field(doc, "v", dict, "set-function").items()
    return _set_function(ground, *_table(ground, items, _key_names, _rational_parts))


def save_set_function(v: SetFunction) -> str:
    doc = {
        "omega": list(v.ground),
        "v": {_subset_key(X): format_rational(val) for X, val in sorted(
            v.values.items(), key=lambda kv: (len(kv[0]), _subset_key(kv[0]))
        )},
    }
    return json.dumps(doc, indent=2)
