"""Seeded inputs for the benchmark, kept in the benchmark's own representation.

Everything here is independent of `uplogic`: formulas are tuples, rationals
are `fractions.Fraction`, and the ground truth of every query comes from how
it was built (a planted structure it holds at, or a refuted axiom instance
it contains), never from running the program.

Propositional formulas:  ("var", name) | ("not", f) | ("and", f, g) | ("or", f, g)
Likelihood formulas:     ("basic", terms, rel, bound) with terms a tuple of
                         (coefficient, prop); ("land", [parts]); ("lor", [parts]);
                         ("lnot", f)
A structure is (worlds, measures): worlds a list of {prop: bool} maps and
measures a list of per-world mass lists.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Optional

RELS = (">=", ">", "<=", "<", "=")
NEGATED_REL = {">=": "<", ">": "<=", "<=": ">", "<": ">="}
COEFFS = (Q(1), Q(1), Q(1), Q(2), Q(1, 2), Q(-1), Q(3, 2), Q(-2))
OFFSETS = (Q(1, 4), Q(1, 3), Q(1, 10), Q(1, 2), Q(1, 5))
DENOMINATORS = (6, 8, 10, 12)
ELEMENTS = "abcdef"


# ---------------------------------------------------------------------------
# Text, in the program's input syntax


def rat_text(x: Q) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def prop_text(f) -> str:
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag == "not":
        return "!" + prop_text(f[1])
    op = " & " if tag == "and" else " | "
    return "(" + prop_text(f[1]) + op + prop_text(f[2]) + ")"


def term_text(terms) -> str:
    out = []
    for i, (c, phi) in enumerate(terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else rat_text(mag) + " "
        addend = f"{coeff}l({prop_text(phi)})"
        if i == 0:
            out.append(("-" if c < 0 else "") + addend)
        else:
            out.append(f" {sign} {addend}")
    return "".join(out)


def like_text(f) -> str:
    tag = f[0]
    if tag == "basic":
        _, terms, rel, bound = f
        return f"{term_text(terms)} {rel} {rat_text(bound)}"
    if tag == "lnot":
        return "~(" + like_text(f[1]) + ")"
    op = " & " if tag == "land" else " | "
    return op.join("(" + like_text(g) + ")" if g[0] in ("land", "lor") else like_text(g)
                   for g in f[1])


# ---------------------------------------------------------------------------
# Evaluation in the benchmark's own representation


def prop_holds(f, assign: dict) -> bool:
    tag = f[0]
    if tag == "var":
        # the logic's convention: a proposition a world does not assign is false
        return assign.get(f[1], False)
    if tag == "not":
        return not prop_holds(f[1], assign)
    if tag == "and":
        return prop_holds(f[1], assign) and prop_holds(f[2], assign)
    return prop_holds(f[1], assign) or prop_holds(f[2], assign)


def upper(struct, phi) -> Q:
    worlds, measures = struct
    ext = [i for i, w in enumerate(worlds) if prop_holds(phi, w)]
    return max(sum((mu[i] for i in ext), Q(0)) for mu in measures)


def term_value(struct, terms) -> Q:
    return sum((c * upper(struct, phi) for c, phi in terms), Q(0))


def compare(x: Q, rel: str, b: Q) -> bool:
    return {">=": x >= b, ">": x > b, "<=": x <= b, "<": x < b, "=": x == b}[rel]


def like_holds(struct, f) -> bool:
    tag = f[0]
    if tag == "basic":
        return compare(term_value(struct, f[1]), f[2], f[3])
    if tag == "lnot":
        return not like_holds(struct, f[1])
    if tag == "land":
        return all(like_holds(struct, g) for g in f[1])
    return any(like_holds(struct, g) for g in f[1])


# ---------------------------------------------------------------------------
# Random pieces


def random_prop(rng: random.Random, props, depth: int = 2):
    if depth == 0 or rng.random() < 0.35:
        leaf = ("var", rng.choice(props))
        return ("not", leaf) if rng.random() < 0.3 else leaf
    tag = rng.choice(("and", "or", "and", "not"))
    if tag == "not":
        return ("not", random_prop(rng, props, depth - 1))
    return (tag, random_prop(rng, props, depth - 1), random_prop(rng, props, depth - 1))


def random_masses(rng: random.Random, n: int, d: Optional[int] = None,
                  support_size: Optional[int] = None) -> list:
    """A probability vector over n points with masses k/d, by default with d
    drawn from DENOMINATORS and a support of 1-5 points."""
    d = d or rng.choice(DENOMINATORS)
    counts = [0] * n
    support = rng.sample(range(n), support_size or rng.randint(1, min(n, 5)))
    for _ in range(d):
        counts[rng.choice(support)] += 1
    return [Q(c, d) for c in counts]


def planted_structure(rng: random.Random, props, n_measures: int):
    worlds = [dict(zip(props, signs))
              for signs in itertools.product((False, True), repeat=len(props))]
    return worlds, [random_masses(rng, len(worlds)) for _ in range(n_measures)]


def planted_basic(rng: random.Random, struct, args, n_terms: int, rels=RELS):
    """A basic formula over likelihood arguments drawn from `args` that
    holds at the planted structure."""
    terms = tuple((rng.choice(COEFFS), rng.choice(args)) for _ in range(n_terms))
    v = term_value(struct, terms)
    rel = rng.choice(rels)
    d = rng.choice(OFFSETS)
    if rel == "=":
        bound = v
    elif rel in (">=", ">"):
        bound = v - d if rel == ">" or rng.random() < 0.6 else v
    else:
        bound = v + d if rel == "<" or rng.random() < 0.6 else v
    return ("basic", terms, rel, bound)


def refuted_axiom(rng: random.Random, args):
    """The negation of a sound axiom instance for upper probabilities.

    complement:     l(a) + l(!a) >= 1          negated: c l(a) + c l(!a) < c
    monotonicity:   l(a & b) <= l(a)           negated: c l(a & b) - c l(a) > 0
    subadditivity:  l(a | b) <= l(a) + l(b)    negated: c l(a | b) - c l(a) - c l(b) > 0
    """
    a, b = rng.sample(args, 2)
    c = rng.choice((Q(1), Q(2), Q(1, 2)))
    kind = rng.choice(("complement", "monotonicity", "subadditivity"))
    if kind == "complement":
        return ("basic", ((c, a), (c, ("not", a))), "<", c)
    if kind == "monotonicity":
        return ("basic", ((c, ("and", a, b)), (-c, a)), ">", Q(0))
    return ("basic", ((c, ("or", a, b)), (-c, a), (-c, b)), ">", Q(0))


def negated_basic(b):
    _, terms, rel, bound = b
    if rel == "=":
        return ("lnot", b)
    return ("basic", terms, NEGATED_REL[rel], bound)


# ---------------------------------------------------------------------------
# Queries


@dataclass
class Query:
    """One CLI call. `argv` excludes the global --json flag; `files` maps a
    file name in the run's input directory to its content."""

    verb: str
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)


def _formula_query(verb: str, f, truth: str, planted=None, extra=()) -> Query:
    expect = {"formula": f, "truth": truth, "planted": planted}
    return Query(verb, [verb, "--formula=" + like_text(f), *extra], expect)


def arg_pool(rng: random.Random, props, n: int) -> list:
    """n distinct likelihood arguments; the LP has one measure per distinct
    argument extension, so n sets the size of each query's LP."""
    pool = []
    while len(pool) < n:
        phi = random_prop(rng, props)
        if phi not in pool:
            pool.append(phi)
    return pool


def sat_conj(rng: random.Random) -> list:
    """sat and valid on conjunctions of 2-8 basics over 4 propositions.

    Each normalized query is a single disjunct, so the LP kernel does the
    work.  Per size: a SAT and an UNSAT `sat`, and an INVALID and a VALID
    `valid` on the disjunction whose negation is the conjunction.
    """
    props = ("p", "q", "r", "s")
    out = []
    for size in range(2, 9):
        for n_args in (5, 6):
            for refuted in (False, True):
                struct = planted_structure(rng, props, rng.randint(1, 3))
                args = arg_pool(rng, props, n_args)
                basics = [planted_basic(rng, struct, args, rng.randint(1, 3))
                          for _ in range(size - refuted)]
                if refuted:
                    basics.insert(rng.randrange(size), refuted_axiom(rng, args))
                conj = ("land", basics)
                disj = ("lor", [negated_basic(b) for b in basics])
                if refuted:
                    out.append(_formula_query("sat", conj, "UNSAT"))
                    out.append(_formula_query("valid", disj, "VALID"))
                else:
                    out.append(_formula_query("sat", conj, "SAT", struct))
                    out.append(_formula_query("valid", disj, "INVALID", struct))
    return out


WIDE_K = (12, 13, 14, 15, 16)
DEEP_K = (3, 4, 5)


def _clauses(rng: random.Random, struct, args, k: int) -> list:
    """k two-way clauses of one-term basics; the first literal of each holds
    at the planted structure, so the first DNF disjunct is satisfiable."""
    return [("lor", [planted_basic(rng, struct, args, 1),
                     ("basic", ((Q(1), rng.choice(args)),),
                      rng.choice((">=", "<=", ">", "<")),
                      Q(rng.randint(1, 5), 6))])
            for _ in range(k)]


def sat_dnf(rng: random.Random) -> list:
    """sat on conjunctions of two-way clauses over 2-3 propositions.

    Wide SAT formulas (WIDE_K clauses) whose first disjunct is satisfiable,
    and deep UNSAT ones (DEEP_K clauses) ending in a refuted axiom instance
    as a unit clause, so every one of the 2^k disjuncts needs its own LP.
    """
    out = []
    for k in WIDE_K:
        for n_props in (2, 3):
            props = ("p", "q", "r")[:n_props]
            struct = planted_structure(rng, props, rng.randint(1, 2))
            f = ("land", _clauses(rng, struct, arg_pool(rng, props, 3), k))
            out.append(_formula_query("sat", f, "SAT", struct))
    for k in DEEP_K:
        for n_props in (2, 3):
            for _ in range(2):
                props = ("p", "q", "r")[:n_props]
                struct = planted_structure(rng, props, rng.randint(1, 2))
                args = arg_pool(rng, props, 3)
                f = ("land", _clauses(rng, struct, args, k) + [refuted_axiom(rng, args)])
                out.append(_formula_query("sat", f, "UNSAT"))
    return out


def bounds_queries(rng: random.Random) -> list:
    """bounds of a 1-2 addend term over planted conjunctions with strict rows."""
    props = ("p", "q", "r")
    out = []
    for size in (2, 3, 4, 5):
        for n_terms in (1, 2):
            for _ in range(3):
                struct = planted_structure(rng, props, rng.randint(1, 3))
                args = arg_pool(rng, props, 3)
                basics = [planted_basic(rng, struct, args, rng.randint(1, 2),
                                        rels=(">", "<") if i == 0 else RELS)
                          for i in range(size)]
                rng.shuffle(basics)
                f = ("land", basics)
                t = tuple((rng.choice(COEFFS), rng.choice(args)) for _ in range(n_terms))
                q = _formula_query("bounds", f, "SAT", struct, ("--term=" + term_text(t),))
                q.expect["term"] = t
                q.expect["planted_value"] = term_value(struct, t)
                out.append(q)
    return out


# ---------------------------------------------------------------------------
# Set functions: {frozenset: Fraction} over a ground tuple


def subsets(ground) -> list:
    return [frozenset(c) for r in range(len(ground) + 1)
            for c in itertools.combinations(ground, r)]


def envelope_of(ground, measures) -> dict:
    """v(A) = max_i mu_i(A) for measures given as {element: mass}."""
    return {A: max(sum((mu.get(g, Q(0)) for g in A), Q(0)) for mu in measures)
            for A in subsets(ground)}


def setfn_text(ground, v: dict) -> str:
    return json.dumps({"omega": list(ground),
                       "v": {",".join(sorted(A)): rat_text(x) for A, x in v.items()}})


def _break(rng: random.Random, ground, v: dict, kind: str) -> Optional[dict]:
    """v changed at one subset so that it violates a necessary condition
    of upper probabilities, or None if the drawn subsets cannot host it."""
    full = frozenset(ground)
    w = dict(v)
    proper = [A for A in v if A and A != full]
    eps = Q(1, rng.choice((12, 24, 60)))
    if kind == "monotonicity":          # v(A) > v(B) for A strictly inside B
        B = rng.choice(proper)
        A = B - {rng.choice(sorted(B))}
        if not A or v[B] + eps > 1:
            return None
        w[A] = v[B] + eps
    elif kind == "complement":          # v(A) + v(complement of A) < 1
        A = rng.choice(proper)
        if 1 - v[full - A] - eps < 0:
            return None
        w[A] = 1 - v[full - A] - eps
    else:                               # v(A u B) > v(A) + v(B), A and B disjoint
        A = rng.choice(proper)
        rest = sorted(full - A)
        B = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
        if A | B == full or v[A] + v[B] + eps > 1:
            return None
        w[A | B] = v[A] + v[B] + eps
    return w


def setfn_function(rng: random.Random, n: int, broken: Optional[str]) -> tuple:
    """(ground, v): the envelope of 1-3 planted measures, or, with `broken`
    naming a necessary condition, such an envelope changed to violate it."""
    ground = tuple(ELEMENTS[:n])
    while True:
        measures = [dict(zip(ground, random_masses(rng, n, 12, n))) for _ in range(2)]
        v = envelope_of(ground, measures)
        if broken is None:
            return ground, v
        w = _break(rng, ground, v, broken)
        if w is not None:
            return ground, w


# The cover search is exhaustive up to m-max.  Every violation that the NO
# functions are built with has a cover certificate of at most two sets, so the
# search must find one; m-max keeps it inside the default budget of 2,000,000.
M_MAX = {4: 3, 5: 2, 6: 2}
# props on families of three sets takes about 0.5 s per call at five elements
# and 3 s at six; families of two keep those calls near the cover search's.
MAX_SETS = {4: 3, 5: 2, 6: 2}


BREAKS = ("monotonicity", "complement", "subadditivity")


def setfn_queries(rng: random.Random, block: int) -> list:
    """envelope, covers search and props on set functions over 4-6 elements:
    per size two upper envelopes and one function breaking a necessary
    condition, the condition rotating with the size and the block."""
    out = []
    for i, n in enumerate((4, 5, 6)):
        for broken in (None, BREAKS[(block + i) % 3], None):
            ground, v = setfn_function(rng, n, broken)
            name = f"v{block}-{len(out) // 3}.json"
            expect = {"ground": ground, "v": v, "truth": "NO" if broken else "YES"}
            files = {name: setfn_text(ground, v)}
            out.append(Query("envelope", ["envelope", "--function", name,
                                          "--witness-out", "witness"], expect, files))
            out.append(Query("covers", ["covers", "search", "--function", name,
                                        "--m-max", str(M_MAX[n])], expect))
            out.append(Query("props", ["props", "--function", name,
                                       "--max-sets", str(MAX_SETS[n])], expect))
    return out


def solver_queries(rng: random.Random, block: int) -> list:
    """The three families of formula queries, in one block: the one-disjunct
    conjunctions that leave the work to the LP kernel, the clause
    conjunctions that blow up in eager DNF, and bounds on the strict path of
    lp.optimize."""
    return sat_conj(rng) + sat_dnf(rng) + bounds_queries(rng)


# name -> (generator of one block of queries given the block's index, blocks
# in the list); a run stops at a block boundary, so every block has the same
# make-up.  Two workloads, so that each run can last 50 seconds: this is what
# keeps run-to-run spreads within bounds on a machine whose speed drifts over
# minutes.
WORKLOADS = {
    "solver": (solver_queries, 24),
    "setfn": (setfn_queries, 12),
}


def generate(workload: str, seed: int) -> list:
    """The workload's blocks for this seed: lists of queries with the same
    make-up and fresh random content."""
    fn, n_blocks = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [fn(rng, b) for b in range(n_blocks)]
