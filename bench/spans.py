"""Spans around the calls into each layer of `uplogic`, recorded from outside.

Each public function is wrapped where its caller looks it up (the CLI calls
`solver.sat`, the solver calls its imported `dnf`, and so on), so the
program itself is unchanged.  Spans stay in memory as
[name, start_ns, end_ns, parent index, query id, info] and are written out
once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns


def _lp_size(args, out):
    system = args[0]
    strict = sum(c.rel.value == ">" for c in system.constraints)
    return [len(system.constraints), len(system.variables), strict]


def _count(args, out):
    return len(out)


# (module, attribute, span name, info taken from the arguments and result)
TARGETS = (
    ("uplogic.cli", "main", "cli", None),
    ("uplogic.parser", "parse_likelihood", "parser", None),
    ("uplogic.parser", "parse_term", "parser", None),
    ("uplogic.structure", "load_structure", "structure", None),
    ("uplogic.structure", "load_set_function", "structure", None),
    ("uplogic.structure", "save_structure", "structure", None),
    ("uplogic.solver", "sat", "solver", None),
    ("uplogic.solver", "valid", "solver", None),
    ("uplogic.solver", "bounds", "solver", None),
    ("uplogic.solver", "normalize", "formula.normalize", None),
    ("uplogic.solver", "dnf", "formula.dnf", _count),
    ("uplogic.solver", "evaluate", "semantics.evaluate", None),
    ("uplogic.lp", "make_system", "lp.make_system", None),
    ("uplogic.lp", "feasible", "lp.feasible", _lp_size),
    ("uplogic.lp", "optimize", "lp.optimize", _lp_size),
    ("uplogic.envelope", "is_upper_probability", "envelope", None),
    ("uplogic.envelope", "dominated_max", "envelope.dominated_max", None),
    ("uplogic.covers", "search_violation", "covers.search_violation", None),
    ("uplogic.covers", "check_properties", "covers.check_properties", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = -1
        self._originals = []
        for module, attr, _, _ in TARGETS:
            mod = importlib.import_module(module)
            self._originals.append((mod, attr, getattr(mod, attr)))

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[5] = info(args, out)
            return out

        return traced

    def install(self) -> None:
        for (mod, attr, fn), (_, _, name, info) in zip(self._originals, TARGETS):
            setattr(mod, attr, self._wrap(name, fn, info))

    def uninstall(self) -> None:
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "query", "info"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, n_queries: int) -> dict:
        """Per-query self times (ms) and counts by layer, over all spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        self_ms: dict = {}
        calls: dict = {}
        for s, c in zip(spans, child_ns):
            self_ms[s[0]] = self_ms.get(s[0], 0) + (s[2] - s[1] - c) / 1e6
            calls[s[0]] = calls.get(s[0], 0) + 1

        def under_solver(i: int) -> bool:
            while i >= 0:
                if spans[i][0] == "solver":
                    return True
                i = spans[i][3]
            return False

        lp_sizes = [s[5] for s in spans if s[0] in ("lp.feasible", "lp.optimize")]
        strict = [s[5][2] for s in spans if s[0] == "lp.optimize"]
        disjuncts = sum(s[5] for s in spans if s[0] == "formula.dnf")
        solved = sum(1 for i, s in enumerate(spans)
                     if s[0] in ("lp.feasible", "lp.optimize") and under_solver(s[3]))

        def per_query(d, *names):
            return sum(d.get(n, 0) for n in names) / n_queries

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        return {
            "cli.self_ms": (per_query(self_ms, "cli"), "ms"),
            "parser.ms": (per_query(self_ms, "parser"), "ms"),
            "structure.ms": (per_query(self_ms, "structure"), "ms"),
            "formula.normalize_ms": (per_query(self_ms, "formula.normalize"), "ms"),
            "formula.dnf_ms": (per_query(self_ms, "formula.dnf"), "ms"),
            "formula.dnf_disjuncts": (disjuncts / n_queries, "count"),
            "solver.self_ms": (per_query(self_ms, "solver"), "ms"),
            "solver.disjuncts_solved_ratio": (solved / disjuncts if disjuncts else 0.0, "ratio"),
            "semantics.evaluate_ms": (per_query(self_ms, "semantics.evaluate"), "ms"),
            "lp.make_system_ms": (per_query(self_ms, "lp.make_system"), "ms"),
            "lp.make_system_calls": (per_query(calls, "lp.make_system"), "count"),
            "lp.feasible_ms": (per_query(self_ms, "lp.feasible"), "ms"),
            "lp.feasible_calls": (per_query(calls, "lp.feasible"), "count"),
            "lp.rows_mean": (mean([s[0] for s in lp_sizes]), "rows"),
            "lp.cols_mean": (mean([s[1] for s in lp_sizes]), "columns"),
            "lp.optimize_ms": (per_query(self_ms, "lp.optimize"), "ms"),
            "lp.optimize_calls": (per_query(calls, "lp.optimize"), "count"),
            "lp.strict_rows_mean": (mean(strict), "rows"),
            "envelope.self_ms": (per_query(self_ms, "envelope", "envelope.dominated_max"), "ms"),
            "envelope.dominated_max_calls": (per_query(calls, "envelope.dominated_max"), "count"),
            "covers.search_violation_ms": (per_query(self_ms, "covers.search_violation"), "ms"),
            "covers.check_properties_ms": (per_query(self_ms, "covers.check_properties"), "ms"),
        }
