"""The uplogic benchmark: seeded CLI workloads with independently checked answers.

    python3 bench/run.py --workload solver --seed 1 --seconds 50 --trace 0

One process, one client, a closed loop: each query is one CLI verb run in
process through `uplogic.cli.main(["--json", ...])` with stdout captured, and
the next query starts when the previous one has answered and been checked.
The loop runs whole blocks of the workload's query list until --seconds have
passed.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  A query fails if it
raises or exits 2 or 3; a wrong answer stops the run with exit code 1.

Times are reported at a reference speed of the host.  The host is shared, and
its speed drifts: for tens of seconds at a time the same computation takes a
third less time.  So between queries, at most every SPEED_INTERVAL seconds,
the run times a fixed exact-arithmetic computation of its own (`reference`),
and every time it reports is scaled by REFERENCE_S over that computation's
mean time in the run.  The unscaled figures are printed above the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# Set-up samples per run, spread over the timed loop so that the median
# spans the run's drift in machine speed rather than one moment of it.
SETUP_SAMPLES = 41
# p90 needs at least ten queries beyond it.
MIN_QUERIES = 100
# The bounds answers of this many blocks are re-checked by sat queries.
METAMORPHIC_BLOCKS = 2
# Seconds between two timings of `reference`, and the time it is scaled to.
SPEED_INTERVAL = 0.1
REFERENCE_S = 0.003

# Timed in a fresh interpreter: the import of uplogic and the reading of the
# workload's input files (the set-function files; `solver` has none, so there
# it is the import alone).
SETUP_CODE = """
import os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import uplogic.cli
for entry in sorted(os.scandir(sys.argv[2]), key=lambda e: e.name):
    if entry.is_file():
        with open(entry.path, "rb") as fh:
            fh.read()
print(time.perf_counter() - t0)
"""


def import_program():
    """uplogic from this checkout's src/, never from anywhere else."""
    if not (SRC / "uplogic" / "__init__.py").is_file():
        sys.exit(f"error: no uplogic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uplogic.cli

    if Path(uplogic.__file__).resolve().parent != SRC / "uplogic":
        sys.exit(f"error: uplogic imported from {uplogic.__file__}, not from {SRC}")
    return uplogic.cli


def write_inputs(blocks, inputs: Path) -> None:
    inputs.mkdir(parents=True)
    for block in blocks:
        for q in block:
            for name, text in q.files.items():
                (inputs / name).write_text(text, encoding="utf-8")


class SetupSampler:
    """Times the set-up in fresh interpreters: one sample whenever
    `interval` seconds have passed since the last, between queries."""

    def __init__(self, inputs: Path, interval: float):
        self.inputs = inputs
        self.interval = interval
        self.samples = []
        self.last = -interval

    def sample(self) -> None:
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(self.inputs)],
                             capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(out.stdout.strip()))
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def reference() -> int:
    """Gauss-Jordan elimination on a fixed 8 x 9 rational matrix: the kind of
    arithmetic the program's exact LPs do, in the benchmark's own code."""
    n = 8
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 1)]
            for i in range(n)]
    rank = 0
    for c in range(n + 1):
        piv = next((r for r in range(rank, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(n):
            if r != rank and rows[r][c]:
                f = rows[r][c] / p[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], p)]
        rank += 1
    return rank


class HostSpeed:
    """Times `reference` between queries, once `interval` seconds have passed
    since the last timing, with the collector off so that the program's heap
    does not slow it.  Each timing is weighted by the time since the one
    before, so the mean follows the host's speed over the whole run."""

    def __init__(self, interval: float):
        self.interval = interval
        self.last = None
        self.weighted = self.weights = 0.0

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if self.last is not None and now - self.last < self.interval:
            return
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        seconds = time.perf_counter() - t0
        if enabled:
            gc.enable()
        weight = self.interval if self.last is None else now - self.last
        self.weighted += seconds * weight
        self.weights += weight
        self.last = time.perf_counter()

    def scale(self) -> float:
        """The factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_S / (self.weighted / self.weights)


class Client:
    """Runs queries through the CLI entry point and checks each answer."""

    def __init__(self, cli, inputs: Path):
        self.cli = cli
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def ask(self, q) -> tuple:
        """(exit code, parsed JSON, seconds), or None for a failed query."""
        self.attempted += 1
        witness = self.inputs / "witness" / "witness_measures.json"
        if q.verb == "envelope" and witness.exists():
            witness.unlink()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(["--json", *q.argv])
        except (Exception, SystemExit) as e:
            print(f"query failed: {q.argv[:2]}: {e!r}", file=sys.stderr)
            self.failed += 1
            return None
        seconds = time.perf_counter() - t0
        if rc in (2, 3):
            print(f"query failed with exit code {rc}: {err.getvalue().strip()}", file=sys.stderr)
            self.failed += 1
            return None
        try:
            doc = json.loads(out.getvalue())
            witness_doc = None
            if q.verb == "envelope" and witness.exists():
                witness_doc = json.loads(witness.read_text(encoding="utf-8"))
            oracle.check(q, rc, doc, witness_doc)
        except (json.JSONDecodeError, oracle.WrongAnswer) as e:
            raise oracle.WrongAnswer(f"{' '.join(q.argv)}: {e}") from None
        return rc, doc, seconds


def percentile(sorted_xs: list, p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    k = max(0, min(len(sorted_xs) - 1, math.ceil(p / 100 * len(sorted_xs)) - 1))
    return sorted_xs[k]


def timed_loop(client: Client, blocks, seconds: float, speed: HostSpeed,
               tracer=None, setup=None) -> tuple:
    """Whole blocks, cycling through the list, until `seconds` have passed
    and at least MIN_QUERIES have been answered, or four times `seconds`.

    Returns the per-query seconds and the answers to the first
    METAMORPHIC_BLOCKS blocks.  With a tracer, each query runs twice,
    untraced and traced in alternating order, and the second list holds the
    traced times.  Host speed samples, and with a SetupSampler set-up
    samples, are taken between queries, outside the timed calls.
    """
    plain, traced, answers = [], [], []
    start = time.perf_counter()
    done = 0
    while (elapsed := time.perf_counter() - start) < seconds or (
            len(plain) < MIN_QUERIES and elapsed < 4 * seconds):
        for i, q in enumerate(blocks[done % len(blocks)]):
            speed.maybe_sample()
            if setup is not None:
                setup.maybe_sample()
            if tracer is None:
                got = client.ask(q)
                if got is not None:
                    plain.append(got[2])
            else:
                order = (False, True) if (done + i) % 2 == 0 else (True, False)
                for on in order:
                    if on:
                        tracer.query += 1
                        tracer.install()
                    try:
                        got = client.ask(q)
                    finally:
                        if on:
                            tracer.uninstall()
                    if got is not None:
                        (traced if on else plain).append(got[2])
            if done < METAMORPHIC_BLOCKS:
                answers.append((q, got))
        done += 1
    return plain, traced, answers


def metamorphic(client: Client, answers) -> None:
    """Re-ask sat about bounds answers, outside the timed loop."""
    for q, got in answers:
        if q.verb == "bounds" and got is not None:
            for follow in oracle.bounds_followups(q.expect, got[1]):
                client.ask(follow)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and its set-up interpreters, the one whose
        # speed `reference` measures.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = import_program()
    print(f"python {platform.python_version()}, "
          f"gmpy2 {'used' if importlib.util.find_spec('gmpy2') else 'not installed'}, "
          f"src/ {src_lines()} lines")
    blocks = workloads.generate(args.workload, args.seed)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    tracer = setup = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    else:
        setup = SetupSampler(inputs, args.seconds / SETUP_SAMPLES)
    correct = True
    try:
        write_inputs(blocks, inputs)
        client = Client(cli, inputs)
        os.chdir(inputs)
        try:
            speed = HostSpeed(SPEED_INTERVAL)
            plain, traced, answers = timed_loop(client, blocks, args.seconds, speed, tracer, setup)
            metamorphic(client, answers)
            setup_s = setup.median() if setup else None
        except oracle.WrongAnswer as e:
            print(f"wrong answer: {e}", file=sys.stderr)
            correct = False
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if correct and tracer is None:
        times = sorted(plain)
        raw = {
            "setup_s": setup_s,
            "queries_per_s": len(times) / sum(times),
            "query_ms_p50": statistics.median(times) * 1000,
            "query_ms_p90": percentile(times, 90) * 1000,
        }
        scale = speed.scale()
        metrics = {
            "setup_s": (setup_s * scale, "s"),
            "queries_per_s": (raw["queries_per_s"] / scale, "1/s"),
            "query_ms_p50": (raw["query_ms_p50"] * scale, "ms"),
            "query_ms_p90": (raw["query_ms_p90"] * scale, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{len(times)} queries answered in {sum(times):.2f} s of query time")
        print(f"host speed scale {scale:.4f}; unscaled: "
              + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    elif correct:
        scale = speed.scale()
        metrics = {k: (v * scale if u == "ms" else v, u)
                   for k, (v, u) in tracer.layer_metrics(len(traced)).items()}
        metrics["trace.overhead_pct"] = ((sum(traced) / sum(plain) - 1) * 100, "%")
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"{len(traced)} traced queries; spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
