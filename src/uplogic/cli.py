"""Command-line surface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict (UNSAT,
INVALID, NO, false, no certificate found), 2 input error (a path that
cannot be read or written included), 3 resource error.  `--json`
switches every subcommand to a machine-readable document on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from . import covers, envelope, parser, semantics, solver, structure
from .errors import InputError, ResourceError, ValidationError
from .formula import basics_of
from .parser import ParseError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(args, human: str, doc: dict) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(human)


def _load_structure(path: str) -> structure.UpperProbStructure:
    with open(path, "rb") as fh:
        return structure.load_structure(fh.read())


def _load_set_function(path: str) -> structure.SetFunction:
    with open(path, "rb") as fh:
        return structure.load_set_function(fh.read())


def cmd_parse(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.expr
    if text is None:
        raise InputError("provide an expression or --file")
    ast = parser.parse_prop(text) if args.prop else parser.parse_likelihood(text)
    canonical = parser.print_formula(ast)
    _emit(args, canonical, {"canonical": canonical})
    return EXIT_OK


def cmd_check(args) -> int:
    M = _load_structure(args.model)
    f = parser.parse_likelihood(args.formula)
    verdict = semantics.evaluate(M, f)
    terms = [
        {
            "term": parser.print_term(b.term),
            "value": str(semantics.eval_term(M, b.term)),
        }
        for b in basics_of(f)
    ]
    lines = [str(verdict).lower()]
    lines += [f"  {t['term']} = {t['value']}" for t in terms]
    _emit(args, "\n".join(lines), {"satisfied": verdict, "terms": terms})
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_sat(args) -> int:
    f = parser.parse_likelihood(args.formula)
    result = solver.sat(f)
    is_sat = result.verdict is solver.SatVerdict.SAT
    if is_sat and args.model_out:
        with open(args.model_out, "w", encoding="utf-8") as fh:
            fh.write(structure.save_structure(result.model))
    doc = {"verdict": result.verdict.value, "stats": result.stats}
    if is_sat and args.json:
        doc["model"] = structure.structure_doc(result.model)
    _emit(args, result.verdict.value, doc)
    return EXIT_OK if is_sat else EXIT_NEGATIVE


def cmd_valid(args) -> int:
    f = parser.parse_likelihood(args.formula)
    result = solver.valid(f)
    if not result.valid and args.counter_out:
        with open(args.counter_out, "w", encoding="utf-8") as fh:
            fh.write(structure.save_structure(result.countermodel))
    doc = {"verdict": "VALID" if result.valid else "INVALID"}
    if not result.valid and args.json:
        doc["countermodel"] = structure.structure_doc(result.countermodel)
    _emit(args, doc["verdict"], doc)
    return EXIT_OK if result.valid else EXIT_NEGATIVE


def cmd_bounds(args) -> int:
    f = parser.parse_likelihood(args.formula)
    t = parser.parse_term(args.term)
    try:
        b = solver.bounds(f, t)
    except solver.UnsatInputError:
        _emit(args, "UNSAT", {"verdict": "UNSAT"})
        return EXIT_NEGATIVE
    lo_kind = "closed" if b.lower_attained else "open"
    hi_kind = "closed" if b.upper_attained else "open"
    human = f"{b.lower} ({lo_kind}) .. {b.upper} ({hi_kind})"
    _emit(
        args,
        human,
        {
            "lower": str(b.lower),
            "lower_attained": b.lower_attained,
            "upper": str(b.upper),
            "upper_attained": b.upper_attained,
        },
    )
    return EXIT_OK


def cmd_envelope(args) -> int:
    v = _load_set_function(args.function)
    result = envelope.is_upper_probability(v)
    if result.is_upper_probability:
        if args.witness_out:
            os.makedirs(args.witness_out, exist_ok=True)
            doc = {
                "measures": [
                    {
                        "id": f"m{i}",
                        "dist": {g: str(x) for g, x in sorted(mu.items())},
                    }
                    for i, mu in enumerate(result.witness)
                ]
            }
            path = os.path.join(args.witness_out, "witness_measures.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        _emit(args, "YES", {"verdict": "YES", "witness_count": len(result.witness)})
        return EXIT_OK
    failing = sorted(result.failing_set)
    human = f"NO at {{{','.join(failing)}}}: {result.failing_reason}"
    _emit(
        args,
        human,
        {
            "verdict": "NO",
            "failing_set": failing,
            "reason": result.failing_reason,
        },
    )
    return EXIT_NEGATIVE


def cmd_covers_verify(args) -> int:
    with open(args.certificate, "rb") as fh:
        cert = covers.load_certificate(fh.read())
    ground = [x for x in args.omega.split(",") if x]
    twice = [x for x, n in Counter(ground).items() if n > 1]
    if twice:
        raise InputError(f"--omega names {twice[0]!r} twice")
    v = _load_set_function(args.function) if args.function else None
    if v is not None and set(v.ground) != set(ground):
        raise InputError(f"--omega {{{','.join(sorted(ground))}}} is not the function's "
                         f"ground set {{{','.join(sorted(v.ground))}}}")
    ok = covers.verify_cover(cert, ground)
    doc = {"cover_valid": ok}
    lines = [f"cover valid: {str(ok).lower()}"]
    negative = not ok
    if ok and v is not None:
        holds = covers.up3_check(v, cert)
        doc["up3_holds"] = holds
        lines.append(f"cover inequality holds: {str(holds).lower()}")
        negative = not holds
    _emit(args, "\n".join(lines), doc)
    return EXIT_NEGATIVE if negative else EXIT_OK


def cmd_covers_search(args) -> int:
    v = _load_set_function(args.function)
    cert = covers.search_violation(v, args.m_max)
    if cert is None:
        _emit(
            args,
            f"none up to {args.m_max}",
            {"certificate": None, "m_max": args.m_max},
        )
        return EXIT_NEGATIVE
    _emit(args, covers.save_certificate(cert), {"certificate": covers.certificate_doc(cert)})
    return EXIT_OK


def cmd_props(args) -> int:
    if args.model:
        source = _load_structure(args.model)
    elif args.function:
        source = _load_set_function(args.function)
    else:
        raise InputError("provide --model or --function")
    if args.max_sets < 2:
        raise InputError("max_sets must be >= 2")
    report = covers.check_properties(source)
    lines = []
    doc = {}
    all_pass = True
    for prop in sorted(report):
        violation = report[prop]
        if violation is None:
            lines.append(f"property ({prop}): PASS")
            doc[str(prop)] = {"pass": True}
        else:
            all_pass = False
            sets = [sorted(S) for S in violation]
            lines.append(f"property ({prop}): FAIL at {sets}")
            doc[str(prop)] = {"pass": False, "violation": sets}
    _emit(args, "\n".join(lines), doc)
    return EXIT_OK if all_pass else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uplogic",
        description="Reasoning about upper probabilities of likelihood formulas.",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of a formula")
    p.add_argument("expr", nargs="?")
    p.add_argument("--file")
    p.add_argument("--prop", action="store_true", help="parse a propositional formula")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check", help="model-check a formula against a structure")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("--formula", required=True)
    p.add_argument("--model-out")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("valid", help="decide validity")
    p.add_argument("--formula", required=True)
    p.add_argument("--counter-out")
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("bounds", help="tightest bounds on a term")
    p.add_argument("--formula", required=True)
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("envelope", help="recognize an upper probability measure")
    p.add_argument("--function", required=True)
    p.add_argument("--witness-out")
    p.set_defaults(fn=cmd_envelope)

    p = sub.add_parser("covers", help="cover certificates")
    csub = p.add_subparsers(dest="covers_command", required=True)
    pv = csub.add_parser("verify", help="check a cover certificate")
    pv.add_argument("--certificate", required=True)
    pv.add_argument("--omega", required=True, help="comma-separated ground elements")
    pv.add_argument("--function")
    pv.set_defaults(fn=cmd_covers_verify)
    ps = csub.add_parser("search", help="search for a cover-inequality violation")
    ps.add_argument("--function", required=True)
    ps.add_argument("--m-max", type=int, required=True)
    ps.set_defaults(fn=cmd_covers_search)

    p = sub.add_parser("props", help="check envelope properties (1)-(6)")
    p.add_argument("--model")
    p.add_argument("--function")
    p.add_argument("--max-sets", type=int, default=3,
                   help="at least 2; pairs decide (1) and (2) on every family, "
                        "so it changes neither the report nor the work")
    p.set_defaults(fn=cmd_props)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InputError, ValidationError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as e:
        # an answer's number past the digits int() converts to text; the
        # readers reject such numbers in their input as input errors
        if "integer string conversion" not in str(e):
            raise
        print(f"error: the answer has a number of more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
