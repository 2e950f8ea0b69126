"""Finite upper probability structures and candidate set functions.

File formats (JSON, rationals as "a/b" strings or bare integers):

Structure:
    {"props": ["p", "q"],
     "worlds": [{"id": "w0", "assign": {"p": true, "q": false}}, ...],
     "measures": [{"id": "m0", "dist": {"w0": "1/4", ...}}, ...]}
Worlds omitted from a dist get probability 0.

Set function:
    {"omega": ["a", "b", "c"],
     "v": {"": "0", "a": "3/8", "a,b": "1/2", ...}}
Subsets are keyed by comma-joined sorted element names, "" is the empty
set.  Omitted empty set / full set default to 0 / 1; every other subset
must be present.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Union

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


@dataclass(frozen=True)
class UpperProbStructure:
    """Finite structure: worlds, per-world truth assignment, measure set."""

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
        for w in self.worlds:
            if w not in self.assignment:
                raise ValidationError(f"world {w!r} has no truth assignment")
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

    def mass(self, measure_index: int, world: str) -> Fraction:
        return self.measures[measure_index].get(world, Fraction(0))

    def measure_of(self, measure_index: int, S: Iterable[str]) -> Fraction:
        """The measure's mass on the set S, summed over its own entries."""
        S = frozenset(S)
        mu = self.measures[measure_index]
        return sum((m for w, m in mu.items() if w in S), Fraction(0))


def _check_subset(M: UpperProbStructure, S: Iterable[str]) -> frozenset:
    S = frozenset(S)
    unknown = S - M.world_set
    if unknown:
        raise InputError(f"unknown world id(s): {', '.join(sorted(unknown))}")
    return S


def upper_of(M: UpperProbStructure, S: Iterable[str]) -> Fraction:
    """max over measures of the total mass on S (sup attained: P finite)."""
    S = _check_subset(M, S)
    return max(M.measure_of(i, S) for i in range(len(M.measures)))


def lower_of(M: UpperProbStructure, S: Iterable[str]) -> Fraction:
    S = _check_subset(M, S)
    return min(M.measure_of(i, S) for i in range(len(M.measures)))


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

    def subsets(self) -> list[frozenset]:
        out = []
        for r in range(len(self.ground) + 1):
            for combo in itertools.combinations(self.ground, r):
                out.append(frozenset(combo))
        return out


def check_world_cap(M: UpperProbStructure) -> None:
    """Refuse a structure too large for tables over all subsets of worlds."""
    if len(M.worlds) > DEFAULT_WORLD_CAP:
        raise ResourceError(
            f"{len(M.worlds)} worlds exceed the set-function cap {DEFAULT_WORLD_CAP}"
        )


def set_function_of(M: UpperProbStructure) -> SetFunction:
    """The upper envelope of M's measures, as a total set function."""
    check_world_cap(M)
    values = {}
    for r in range(len(M.worlds) + 1):
        for combo in itertools.combinations(M.worlds, r):
            values[frozenset(combo)] = upper_of(M, combo)
    return SetFunction(tuple(M.worlds), values)


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
