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
must be present.

This module alone maps worlds and subsets to bitmasks: world or ground
element i is bit i, and subsets are listed by size, then by element index
(subset_masks).  Upper and lower values are read from a structure's
cached supports (UpperProbStructure.masses) or from integer tables over
one common denominator (mask_tables).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import lp
from .errors import InputError, ResourceError, ValidationError

DEFAULT_WORLD_CAP = 16


def parse_rational(raw: Union[str, int]) -> Fraction:
    if isinstance(raw, bool):
        raise ValidationError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"not a rational: {raw!r}")
    raise ValidationError(f"not a rational: {raw!r} (floats are not accepted)")


def format_rational(x: Fraction) -> Union[str, int]:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Bitmasks: world or ground element i is bit i of a mask


def subset_sums(mass: Sequence[int]) -> list[int]:
    """The table of sums of mass over each subset, indexed by bitmask:
    entry m is the sum of mass[i] over the bits i of m."""
    acc = [0] * (1 << len(mass))
    for m in range(1, len(acc)):
        low = m & -m
        acc[m] = acc[m ^ low] + mass[low.bit_length() - 1]
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


@dataclass(frozen=True)
class UpperProbStructure:
    """Finite structure: worlds, per-world truth assignment, measure set.

    World i is bit i of a mask; full, columns and supports are the
    structure in that form, built on first use."""

    props: tuple[str, ...]
    worlds: tuple[str, ...]
    assignment: Mapping[str, Mapping[str, bool]]  # world id -> prop -> truth
    measures: tuple[Mapping[str, Fraction], ...]  # each world id -> mass
    measure_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.worlds:
            raise ValidationError("structure must have at least one world")
        if not self.measures:
            raise ValidationError("structure must have at least one measure")
        if len(set(self.worlds)) != len(self.worlds):
            raise ValidationError("duplicate world id")
        ids = self.measure_ids or tuple(f"m{i}" for i in range(len(self.measures)))
        object.__setattr__(self, "measure_ids", ids)
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


@dataclass(frozen=True)
class SetFunction:
    """Total map from subsets of a finite ground set to rationals in [0,1]."""

    ground: tuple[str, ...]
    values: Mapping[frozenset, Fraction]

    def __post_init__(self):
        if len(set(self.ground)) != len(self.ground):
            raise ValidationError("duplicate ground element")
        ground = frozenset(self.ground)
        vals = dict(self.values)
        vals.setdefault(frozenset(), Fraction(0))
        vals.setdefault(ground, Fraction(1))
        expected = 1 << len(self.ground)
        if len(vals) != expected:
            raise ValidationError(
                f"set function must be total: expected {expected} subsets, got {len(vals)}"
            )
        for X, v in vals.items():
            if not X <= ground:
                raise ValidationError(f"subset {sorted(X)} not within the ground set")
            if not (0 <= v <= 1):
                raise ValidationError(f"value {v} at {sorted(X)} outside [0,1]")
        object.__setattr__(self, "values", vals)

    def __call__(self, X: Iterable[str]) -> Fraction:
        X = frozenset(X)
        if X not in self.values:
            raise InputError(f"subset {sorted(X)} not within the ground set")
        return self.values[X]

    @cached_property
    def dominated(self) -> lp.LinearSystem:
        """The probability measures dominated by v, as a linear system over
        the ground elements: sum mu = 1, and mu(X) <= v(X) for every proper
        nonempty X.  Built once per set function."""
        ground = list(self.ground)
        full = frozenset(ground)
        constraints = [(dict.fromkeys(ground, 1), lp.Relation.EQ, 1)]
        for X, bound in self.values.items():
            if X and X != full:
                constraints.append((dict.fromkeys(X, -1), lp.Relation.GE, -bound))
        return lp.make_system(ground, constraints)

    def subsets(self) -> tuple[frozenset, ...]:
        """Every subset of the ground set, in subset_masks order."""
        return _unmask(self.ground, subset_masks(len(self.ground)))


def mask_tables(
    source: Union[UpperProbStructure, SetFunction],
) -> tuple[list[str], list[int], list[int], int]:
    """Ground elements, upper/lower value tables indexed by bitmask, and L.

    Bit i of a mask stands for ground[i].  Every value is an int over the
    common denominator L: upper[mask] / L is the upper value of the set.
    A structure of more than DEFAULT_WORLD_CAP worlds is refused.
    """
    if isinstance(source, SetFunction):
        ground = list(source.ground)
        n = len(ground)
        L = lcm(*[x.denominator for x in source.values.values()])
        upper = [0] * (1 << n)
        for X, val in source.values.items():
            upper[_mask(ground, X)] = val.numerator * (L // val.denominator)
        full = (1 << n) - 1
        lower = [L - upper[full ^ m] for m in range(1 << n)]
        return ground, upper, lower, L
    M = source
    if len(M.worlds) > DEFAULT_WORLD_CAP:
        raise ResourceError(
            f"{len(M.worlds)} worlds exceed the set-function cap {DEFAULT_WORLD_CAP}"
        )
    ground = list(M.worlds)
    L = lcm(*[m.denominator for support in M.supports for _, m in support])
    # per-measure cumulative mass by mask, then envelope
    totals = []
    for support in M.supports:
        mass = [0] * len(ground)
        for b, m in support:
            mass[b.bit_length() - 1] = m.numerator * (L // m.denominator)
        totals.append(subset_sums(mass))
    upper = [max(t) for t in zip(*totals)]
    lower = [min(t) for t in zip(*totals)]
    return ground, upper, lower, L


def set_function_of(M: UpperProbStructure) -> SetFunction:
    """The upper envelope of M's measures, as a total set function."""
    ground, upper, _, L = mask_tables(M)
    masks = subset_masks(len(ground))
    return SetFunction(M.worlds, {X: Fraction(upper[m], L)
                                  for X, m in zip(_unmask(ground, masks), masks)})


# ---------------------------------------------------------------------------
# Serialization


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _load_json(data: Union[bytes, str], what: str) -> dict:
    """The document in data, which must be a JSON object."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:  # JSON and UTF-8 errors included
        raise ValidationError(f"malformed {what} document: {e}")
    return _typed(doc, dict, f"a {what} document")


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


def load_set_function(data: Union[bytes, str]) -> SetFunction:
    doc = _load_json(data, "set-function")
    ground = _strings(_field(doc, "omega", list, "set-function"), "'omega'")
    values = {}
    for key, val in _field(doc, "v", dict, "set-function").items():
        elems = frozenset(e for e in key.split(",") if e)
        values[elems] = parse_rational(val)
    return SetFunction(ground=ground, values=values)


def save_set_function(v: SetFunction) -> str:
    doc = {
        "omega": list(v.ground),
        "v": {_subset_key(X): format_rational(val) for X, val in sorted(
            v.values.items(), key=lambda kv: (len(kv[0]), _subset_key(kv[0]))
        )},
    }
    return json.dumps(doc, indent=2)
