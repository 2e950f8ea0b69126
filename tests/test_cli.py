import contextlib
import io
import itertools
import json
import os
import sys
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uplogic import cli
from uplogic.cli import main
from uplogic.formula import Rel
from uplogic.parser import MAX_NESTING, print_formula

from test_parser import basics, lforms

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
MARBLE = os.path.join(FIX, "marble.json")
TABLE = os.path.join(FIX, "table.json")
TABLE_UPPER = os.path.join(FIX, "table_upper.json")
VEPS = os.path.join(FIX, "veps.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_canonical_echo(self, capsys):
        code, out, _ = run(capsys, "parse", "l( p )>=1/2")
        assert code == 0
        assert out.strip() == "l(p) >= 1/2"

    def test_prop_mode(self, capsys):
        code, out, _ = run(capsys, "parse", "--prop", "p->q")
        assert code == 0
        assert out.strip() == "!p | q"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "l(p) >=")
        assert code == 2
        assert "error" in err

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("l(p) = 1\n")
        code, out, _ = run(capsys, "parse", "--file", str(f))
        assert code == 0 and out.strip() == "l(p) = 1"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "parse", "l(p)>0")
        assert code == 0
        assert json.loads(out) == {"canonical": "l(p) > 0"}


class TestParserReuse:
    def test_built_once_without_leaking_defaults(self, capsys, tmp_path, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "--json", "sat", "--formula", "l(p) >= 1/2",
                           "--model-out", str(model))
        assert code == 0 and json.loads(out)["verdict"] == "SAT" and model.exists()
        model.unlink()
        code, out, _ = run(capsys, "props", "--model", TABLE)
        assert code == 0 and out.startswith("property (1): PASS")
        code, out, _ = run(capsys, "sat", "--formula", "l(p) >= 1/2")
        assert (code, out) == (0, "SAT\n") and not model.exists()
        assert built == [1]
        cli._parser.cache_clear()


class TestNesting:
    """Deep formulas end in a parse error, never a RecursionError; long flat
    chains are not deep."""

    @pytest.mark.parametrize("formula", [
        "l(" + "!" * 500 + "p) >= 0",
        "(" * 1000 + "l(p) >= 0" + ")" * 1000,
        "l(" + " -> ".join(["p"] * 1000) + ") >= 0",
    ], ids=["500-negations", "1000-parentheses", "1000-implications"])
    def test_too_deep_is_a_parse_error(self, capsys, formula):
        code, out, err = run(capsys, "sat", "--formula", formula)
        assert code == 2 and out == ""
        assert err.startswith("error: parse error") and err.count("\n") == 1
        assert f"at most {MAX_NESTING} levels of nesting" in err

    @pytest.mark.parametrize("formula", [
        " & ".join(["l(p) >= 1/2"] * 1000),
        " | ".join(["l(p) >= 1/2"] * 1000),
        "l(" + " & ".join(["p"] * 1000) + ") >= 1/2",
    ], ids=["1000-conjuncts", "1000-disjuncts", "1000-operand-argument"])
    def test_long_flat_chain_answers(self, capsys, formula):
        assert run(capsys, "sat", "--formula", formula) == (0, "SAT\n", "")

    @pytest.mark.parametrize("verb", ["sat", "valid", "bounds"])
    def test_at_the_limit_answers(self, capsys, verb):
        k = MAX_NESTING - 1
        flat = [
            " & ".join(["l(p) >= 1/2"] * MAX_NESTING),
            " | ".join(["l(p) >= 1/2"] * MAX_NESTING),
            "l(" + " & ".join(["p"] * MAX_NESTING) + ") >= 0",
        ]
        nested = [
            "l(" + "!" * k + "p) >= 0",
            "~" * k + "l(p) >= 0",
            "(" * k + "l(p) >= 0" + ")" * k,
            "l(" + "(" * k + "p" + ")" * k + ") >= 0",
        ]
        term = ["--term", "l(p)"] if verb == "bounds" else []
        for f in flat + nested:
            assert run(capsys, verb, "--formula", f, *term)[0] in (0, 1)
            deeper = run(capsys, verb, "--formula", "~(" + f + ")", *term)
            if f in flat:
                assert deeper[0] in (0, 1)
            else:
                assert deeper[0] == 2 and "levels of nesting" in deeper[2]


class TestCheck:
    def test_true_verdict(self, capsys):
        code, out, _ = run(
            capsys, "check", "--model", MARBLE,
            "--formula", "l(red) = 3/10 & l(blue) <= 7/10",
        )
        assert code == 0
        assert out.startswith("true")
        assert "l(red) = 3/10" in out

    def test_false_verdict_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "check", "--model", MARBLE, "--formula", "l(red) > 1/2",
        )
        assert code == 1 and out.startswith("false")

    def test_missing_model_file(self, capsys):
        code, _, err = run(
            capsys, "check", "--model", "/nonexistent.json", "--formula", "l(p)>0",
        )
        assert code == 2


@pytest.mark.parametrize("case", [
    "parse-file-directory", "check-model-directory", "sat-model-out-directory",
    "witness-out-existing-file", "parse-file-not-utf8",
])
def test_unusable_path_is_an_input_error(capsys, tmp_path, case):
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1").write_bytes("l(p\u00e9) >= 0".encode("latin-1"))
    argv = {
        "parse-file-directory": ["parse", "--file", str(tmp_path)],
        "check-model-directory": ["check", "--model", str(tmp_path), "--formula", "l(p) >= 0"],
        "sat-model-out-directory": ["sat", "--formula", "l(p) >= 1/2",
                                    "--model-out", str(tmp_path)],
        "witness-out-existing-file": ["envelope", "--function", TABLE_UPPER,
                                      "--witness-out", str(tmp_path / "file")],
        "parse-file-not-utf8": ["parse", "--file", str(tmp_path / "latin1")],
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSatValid:
    def test_sat_writes_model(self, capsys, tmp_path):
        out_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "sat", "--formula", "l(p) >= 1/2 & l(!p) >= 3/4",
            "--model-out", str(out_path),
        )
        assert code == 0 and out.strip() == "SAT"
        from uplogic.parser import parse_likelihood
        from uplogic.semantics import evaluate
        from uplogic.structure import load_structure
        M = load_structure(out_path.read_text())
        assert evaluate(M, parse_likelihood("l(p) >= 1/2 & l(!p) >= 3/4"))

    def test_unsat_exit_1(self, capsys):
        code, out, _ = run(capsys, "sat", "--formula", "l(true) < 1")
        assert code == 1 and out.strip() == "UNSAT"

    def test_valid(self, capsys):
        code, out, _ = run(capsys, "valid", "--formula", "l(p) + l(!p) >= 1")
        assert code == 0 and out.strip() == "VALID"

    def test_lp_sizes_json(self, capsys):
        # one measure, p's, over four atom classes, with a column for every
        # class but the pivot class: q occurs only in an upper bound, so its
        # literal is a row on p's measure, and p's positive coefficient
        # needs no dominance row; p's <= 1 row and the two literal rows
        code, out, _ = run(capsys, "--json", "sat", "--formula", "l(p) >= 1/2 & l(q) <= 1/3")
        assert code == 0
        assert json.loads(out)["stats"]["lp_sizes"] == [{"variables": 3, "rows": 3}]

    def test_invalid_with_countermodel_json(self, capsys):
        code, out, _ = run(capsys, "--json", "valid", "--formula", "l(p) >= 1/2")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "INVALID" and "countermodel" in doc

    SMALL = "l(p) >= 1/3 & l(q) >= 1/3 & l(p & q) = 0 & l(p | q) <= 2/3"

    def test_printed_model_is_the_file_and_checks(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, out, _ = run(capsys, "--json", "sat", "--formula", self.SMALL,
                           "--model-out", str(path))
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)["model"]
        code, out, _ = run(capsys, "check", "--model", str(path), "--formula", self.SMALL)
        assert code == 0 and out.startswith("true\n")

    def test_countermodel_file_refutes_the_formula(self, capsys, tmp_path):
        path = tmp_path / "counter.json"
        f = "l(p) + l(q) - l(p | q) >= 1/2"
        code, _, _ = run(capsys, "valid", "--formula", f, "--counter-out", str(path))
        assert code == 1
        code, out, _ = run(capsys, "check", "--model", str(path), "--formula", f)
        assert code == 1 and out.startswith("false\n")


class TestBounds:
    def test_interval_format(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "l(p) > 1/3", "--term", "l(p)",
        )
        assert code == 0
        assert out.strip() == "1/3 (open) .. 1 (closed)"

    def test_unsat_formula(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--formula", "l(true) = 0", "--term", "l(p)",
        )
        assert code == 1 and out.strip() == "UNSAT"


class TestAtomCap:
    """UPLOGIC_ATOM_CAP overrides the cap on propositions and on ground
    elements; a bad value is an input error."""

    @pytest.mark.parametrize("raw", ["abc", "-1", "17", "1" + "0" * 30])
    def test_bad_value_exit_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("UPLOGIC_ATOM_CAP", raw)
        code, out, err = run(capsys, "sat", "--formula", "l(true) >= 0")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "UPLOGIC_ATOM_CAP" in err

    def test_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("UPLOGIC_ATOM_CAP", "1")
        code, _, err = run(capsys, "sat", "--formula", "l(p & q) >= 1/2")
        assert code == 3
        assert err.strip() == "error: 2 distinct propositions exceed the cap 1"

    def test_bounds_counts_the_term(self, capsys, monkeypatch):
        monkeypatch.setenv("UPLOGIC_ATOM_CAP", "1")
        code, _, _ = run(capsys, "bounds", "--formula", "l(p) >= 1/2", "--term", "l(p)")
        assert code == 0
        code, _, err = run(capsys, "bounds", "--formula", "l(p) >= 1/2", "--term", "l(q)")
        assert code == 3 and "2 distinct propositions" in err

    def test_envelope_exit_3(self, capsys, monkeypatch, tmp_path):
        omega = "abcd"
        v = {",".join(X): f"{len(X)}/4" for r in range(5) for X in itertools.combinations(omega, r)}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"omega": list(omega), "v": v}))
        assert run(capsys, "envelope", "--function", str(path))[0] == 0
        monkeypatch.setenv("UPLOGIC_ATOM_CAP", "3")
        code, out, err = run(capsys, "envelope", "--function", str(path))
        assert (code, out, err) == (3, "", "error: 4 ground elements exceed the cap 3\n")


class TestHugeNumbers:
    """A number of more digits than int() converts to or from text ends in
    an exit code and one line, not a traceback."""

    LIMIT = sys.get_int_max_str_digits()

    def test_a_literal_past_the_limit_exit_2(self, capsys):
        digits = self.LIMIT + 700
        code, out, err = run(capsys, "sat", "--formula", "l(p) >= 1/" + "7" * digits)
        assert (code, out) == (2, "")
        assert err == (f"error: parse error at line 1, column 11: expected a number "
                       f"of at most {self.LIMIT} digits, found {digits} digits\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_an_answer_past_the_limit_exit_3(self, capsys, json_flag):
        # each number is within the limit, their product is not
        d, e, f = ("1" + c * (self.LIMIT * 2 // 3) for c in "234")
        code, out, err = run(capsys, *json_flag, "bounds", "--formula", f"l(p) = {d}/{e}",
                             "--term", f"{f} l(p)")
        assert (code, out) == (3, "")
        assert err == f"error: the answer has a number of more than {self.LIMIT} digits\n"


class TestEnvelope:
    def test_yes_with_witness_dir(self, capsys, tmp_path):
        wdir = tmp_path / "w"
        code, out, _ = run(
            capsys, "envelope", "--function", TABLE_UPPER,
            "--witness-out", str(wdir),
        )
        assert code == 0 and out.strip() == "YES"
        doc = json.loads((wdir / "witness_measures.json").read_text())
        assert doc["measures"]

    def test_no_exit_1(self, capsys):
        code, out, _ = run(capsys, "envelope", "--function", VEPS)
        assert code == 1
        assert out.startswith("NO at {a,b,c}")


class TestCovers:
    def test_search_then_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "covers", "search", "--function", VEPS, "--m-max", "3",
        )
        assert code == 0
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["k"] == 0
        code, out, _ = run(
            capsys, "--json", "covers", "search", "--function", VEPS, "--m-max", "3",
        )
        assert code == 0 and json.loads(out) == {"certificate": doc}
        code, out, _ = run(
            capsys, "covers", "verify", "--certificate", str(cert),
            "--omega", "a,b,c,d", "--function", VEPS,
        )
        assert code == 1  # valid cover, inequality fails
        assert "cover valid: true" in out
        assert "cover inequality holds: false" in out

    # the certificate is read against --omega and the inequality against the
    # function, so the two ground sets must be one; a mismatch is the input's
    # fault, not the certificate's
    @pytest.mark.parametrize("omega, function_ground, shown", [
        ("a,b", [], "{}"),
        ("a,b", ["a", "c"], "{a,c}"),
        ("b,a", ["a", "b", "c"], "{a,b,c}"),
        ("a,b,c", ["a", "b"], "{a,b}"),
    ])
    def test_omega_is_not_the_function_ground(self, capsys, tmp_path, omega,
                                              function_ground, shown):
        cert, function = tmp_path / "cert.json", tmp_path / "v.json"
        cert.write_text(json.dumps({"sets": [["a"], ["b"]], "target": ["a"], "n": 1, "k": 0}))
        v = {",".join(X): "1/2" for r in range(len(function_ground) + 1)
             for X in itertools.combinations(function_ground, r)}
        v.update({",".join(function_ground): 1, "": 0})
        function.write_text(json.dumps({"omega": function_ground, "v": v}))
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, "covers", "verify", "--certificate", str(cert),
                                 "--omega", omega, "--function", str(function))
            want = ",".join(sorted(omega.split(",")))
            assert (code, out, err) == (
                2, "", f"error: --omega {{{want}}} is not the function's ground set {shown}\n")

    def test_search_none_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "covers", "search", "--function", TABLE_UPPER, "--m-max", "3",
        )
        assert code == 1 and out.strip() == "none up to 3"

    def test_one_element_any_m_max_exit_1(self, capsys, tmp_path):
        # one element has no nonempty proper subset: no multiset of size 1,
        # so none of any larger size, and the search stops at once
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"omega": ["a"], "v": {"": "0", "a": "1"}}))
        start = time.perf_counter()
        code, out, err = run(capsys, "covers", "search", "--function", str(path),
                             "--m-max", "1000000000")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "none up to 1000000000\n", "")

    def test_two_element_envelope_exit_3(self, capsys, tmp_path):
        # multisets of {a} and {b}: m + 1 of size m, each cleared at 4
        # instances, so the budget of 2,000,000 runs out near m = 1000
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"omega": ["a", "b"],
                                    "v": {"": "0", "a": "1/2", "b": "2/3", "a,b": "1"}}))
        start = time.perf_counter()
        code, out, err = run(capsys, "covers", "search", "--function", str(path),
                             "--m-max", "1000")
        assert time.perf_counter() - start < 15
        assert (code, out) == (3, "")
        assert err == "error: cover search budget of 2000000 instances exceeded\n"


class TestProps:
    def test_model_all_pass(self, capsys):
        code, out, _ = run(capsys, "props", "--model", TABLE)
        assert code == 0
        assert out.count("PASS") == 6

    def test_function_veps_all_pass(self, capsys):
        code, out, _ = run(capsys, "props", "--function", VEPS, "--max-sets", "3")
        assert code == 0

    def test_neither_source_exit_2(self, capsys):
        code, _, err = run(capsys, "props")
        assert code == 2

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "--json", "props", "--model", MARBLE)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"1", "2", "3", "4", "5", "6"}
        assert all(v["pass"] for v in doc.values())

    def test_world_cap_exit_3(self, capsys, tmp_path):
        worlds = [{"id": f"w{i}"} for i in range(18)]
        doc = {"props": [], "worlds": worlds, "measures": [{"dist": {"w0": 1}}]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "props", "--model", str(path), "--max-sets", "2")
        assert (code, out) == (3, "")
        assert err == "error: 18 worlds exceed the set-function cap 16\n"

    def test_work_budget_exit_3(self, capsys, tmp_path):
        # 16 worlds are inside the world cap, but the pairs of their 2^16
        # subsets are far past the budget: exit 3 before any loop
        worlds = [{"id": f"w{i}"} for i in range(16)]
        doc = {"props": [], "worlds": worlds, "measures": [{"dist": {"w0": 1}}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "props", "--model", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == "error: props needs 6485530433 pairs, over the budget of 2000000\n"

    def test_eight_worlds_answer_at_the_default(self, capsys, tmp_path):
        # 32,896 unordered, 65,536 ordered and 6,561 disjoint pairs of the
        # 2^8 subsets, inside the budget whatever --max-sets is
        worlds = [{"id": f"w{i}"} for i in range(8)]
        doc = {"props": [], "worlds": worlds, "measures": [{"dist": {"w0": 1}}]}
        path = tmp_path / "eight.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "props", "--model", str(path))
        assert (code, out.count("PASS"), err) == (0, 6, "")

    def test_max_sets_must_cover_pairs(self, capsys):
        code, out, err = run(capsys, "props", "--function", VEPS, "--max-sets", "1")
        assert (code, out, err) == (2, "", "error: max_sets must be >= 2\n")

    def test_deep_families_end_in_an_exit_code(self, capsys, tmp_path):
        # a family of 1500 sets is past Python's recursion limit; --max-sets
        # changes no work, so it answers as at the default
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"omega": ["a"], "v": {"": 0, "a": 1}}))
        code, out, err = run(capsys, "props", "--function", str(path), "--max-sets", "1500")
        assert (code, out.count("PASS"), err) == (0, 6, "")


class TestMalformedDocuments:
    """Every document shape ends in exit 2 with one line, never a traceback."""

    WORLD = {"id": "w0", "assign": {"p": True}}
    MEASURE = {"id": "m0", "dist": {"w0": "1"}}

    def structure(self, **fields):
        doc = {"props": ["p"], "worlds": [self.WORLD], "measures": [self.MEASURE]}
        doc.update(fields)
        return doc

    @pytest.mark.parametrize("case", [
        "world-without-id", "world-not-object", "measure-not-object",
        "dist-not-object", "props-string", "document-list", "undeclared-prop",
    ])
    def test_bad_structure(self, capsys, tmp_path, case):
        doc = {
            "world-without-id": self.structure(worlds=[{"assign": {"p": True}}]),
            "world-not-object": self.structure(worlds=["w0"]),
            "measure-not-object": self.structure(measures=[["w0", "1"]]),
            "dist-not-object": self.structure(measures=[{"dist": [1]}]),
            "props-string": self.structure(props="p"),
            "document-list": [self.structure()],
            "undeclared-prop": self.structure(worlds=[{"id": "w0", "assign": {"q": True}}]),
        }[case]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        for argv in (["props", "--model", str(path)],
                     ["check", "--model", str(path), "--formula", "l(p) >= 1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    # json.loads keeps the last of a repeated key: the second "w0" would
    # make the measure's mass 1/2 and the document a different structure
    REPEATED_WORLD = (
        '{"props": ["p"], "worlds": [{"id": "w0", "assign": {"p": true}}],'
        ' "measures": [{"id": "m0", "dist": {"w0": "1", "w0": "1/2"}}]}')

    def test_a_world_repeated_in_a_dist(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(self.REPEATED_WORLD)
        for argv in (["props", "--model", str(path)],
                     ["check", "--model", str(path), "--formula", "l(p) >= 1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: key 'w0' is given twice in one object\n"

    def test_the_good_structure_loads(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.structure()))
        assert run(capsys, "check", "--model", str(path), "--formula", "l(p) >= 1")[0] == 0

    @pytest.mark.parametrize("doc", [
        {"omega": ["a"], "v": ["0", "1"]},
        {"omega": "ab", "v": {"": 0, "a": "1/2", "b": "1/2", "a,b": 1}},
        {"omega": ["a", ["b"]], "v": {}},
        {"omega": ["a"]},
        "not an object",
        {"omega": ["a", "b"], "v": {"": 0, "a": "1/2", "b": "1/2", "a,b": 1, "b,a": "1/2"}},
        {"omega": ["a", "b"], "v": {"a": "1/2", "b": "1/2", "a,a": "1/2"}},
    ], ids=["v-list", "omega-string", "omega-entry-list", "no-v", "string",
            "subset-twice", "element-twice"])
    def test_bad_set_function(self, capsys, tmp_path, doc):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        for argv in (["props", "--function", str(path)],
                     ["envelope", "--function", str(path)],
                     ["covers", "search", "--function", str(path), "--m-max", "2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_key_repeated_in_v(self, capsys, tmp_path):
        # the first "a" makes v an envelope; the second used to win, and
        # envelope answered NO with exit 1
        path = tmp_path / "v.json"
        path.write_text('{"omega": ["a", "b"],'
                        ' "v": {"": "0", "a": "1/2", "b": "1/2", "a,b": "1", "a": "1/4"}}')
        for argv in (["props", "--function", str(path)],
                     ["envelope", "--function", str(path)],
                     ["covers", "search", "--function", str(path), "--m-max", "2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: key 'a' is given twice in one object\n"

    # a subset key joins its elements with commas, so no key can name these
    # entries; the reader used to blame the keys ("set function must be
    # total", or a subset not within the ground set)
    @pytest.mark.parametrize("entry", ["", "a,b", ","])
    def test_an_omega_entry_no_key_can_name(self, capsys, tmp_path, entry):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"omega": ["a", entry], "v": {"": 0, "a": "1/2", "a,b": 1}}))
        for argv in (["props", "--function", str(path)],
                     ["envelope", "--function", str(path)],
                     ["covers", "search", "--function", str(path), "--m-max", "2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: omega entry {entry!r} cannot appear in a subset key\n"

    # the reader refuses a repeated omega entry; --omega used to accept one
    @pytest.mark.parametrize("omega, twice", [("a,a,b", "a"), ("a,b,b", "b"), ("a,b,b,a", "a")])
    def test_an_element_twice_in_omega_option(self, capsys, tmp_path, omega, twice):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"sets": [["a"], ["b"]], "target": ["a"], "n": 1, "k": 0}))
        code, out, err = run(capsys, "covers", "verify", "--certificate", str(path),
                             "--omega", omega)
        assert (code, out, err) == (2, "", f"error: --omega names {twice!r} twice\n")

    # forms Fraction() reads that the syntax does not: decimals, exponents
    # ("1e-100000" has a denominator of 100,001 digits), "_", "+", spaces
    @pytest.mark.parametrize("raw", ["1e-100000", "0.5", "1_0", "+1", " 1", "1/-2", "1/0",
                                     "\u0663", "1/" + "7" * 5000])
    def test_a_rational_outside_the_syntax(self, capsys, tmp_path, raw):
        omega = "abc"
        v = {",".join(X): "1/2" for r in range(4) for X in itertools.combinations(omega, r)}
        v.update({"": 0, "a,b,c": 1, "a": raw})
        function, model = tmp_path / "v.json", tmp_path / "model.json"
        function.write_text(json.dumps({"omega": list(omega), "v": v}))
        model.write_text(json.dumps(self.structure(measures=[{"dist": {"w0": raw}}])))
        for argv in (["envelope", "--function", str(function)],
                     ["check", "--model", str(model), "--formula", "l(p) >= 1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: not a rational: {raw!r}\n")



    @pytest.mark.parametrize("doc", [
        {"sets": "ab", "target": "ab", "n": 1, "k": 0},
        {"sets": ["ab"], "target": ["a"], "n": 1, "k": 0},
        {"sets": [["a", 1]], "target": ["a"], "n": 1, "k": 0},
        {"sets": [["a"]], "target": "a", "n": 1, "k": 0},
        {"sets": [["a"]], "target": ["a"], "n": "1", "k": 0},
        {"sets": [["a"]], "target": ["a"], "n": 1, "k": 0.0},
        {"sets": [["a"]], "target": ["a"], "n": True, "k": 0},
        {"sets": [["a"]], "target": ["a"], "n": 1},
        [{"sets": [["a"]], "target": ["a"], "n": 1, "k": 0}],
    ], ids=["sets-string", "set-string", "element-int", "target-string",
            "n-string", "k-float", "n-bool", "no-k", "document-list"])
    def test_bad_certificate(self, capsys, tmp_path, doc):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "covers", "verify", "--certificate", str(path),
                             "--omega", "a,b")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# Arbitrary bytes, arbitrary JSON, and valid documents with one part
# replaced or deleted.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_GOOD_STRUCTURE = {
    "props": ["p", "q"],
    "worlds": [{"id": "w0", "assign": {"p": True}}, {"id": "w1", "assign": {"q": True}}],
    "measures": [{"id": "m0", "dist": {"w0": "1/2", "w1": "1/2"}}, {"dist": {"w1": 1}}],
}
_GOOD_FUNCTION = {"omega": ["a", "b"], "v": {"": 0, "a": "1/2", "b": "2/3", "a,b": 1}}
_GOOD_CERTIFICATE = {"sets": [["a"], ["a", "b"], ["b"]], "target": ["a"], "n": 1, "k": 1}


def _paths(doc, at=()):
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, sub in items:
        yield from _paths(sub, at + (key,))


@st.composite
def _damaged(draw, good):
    doc = json.loads(json.dumps(good))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(_json)
    else:
        del parent[path[-1]]
    return doc


def _exits_cleanly(argv) -> bool:
    """main ends in a documented exit code, errors in one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code in (2, 3):
        return err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code in (0, 1) and err.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(doc=_damaged(_GOOD_STRUCTURE) | _json | st.binary(max_size=40))
def test_any_model_file_ends_in_an_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    for argv in (["props", "--model", str(path), "--max-sets", "2"],
                 ["check", "--model", str(path), "--formula", "l(p) >= 1/2"]):
        assert _exits_cleanly(argv)


@settings(max_examples=150, deadline=None)
@given(doc=_damaged(_GOOD_FUNCTION) | _json | st.binary(max_size=40))
def test_any_function_file_ends_in_an_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("function") / "v.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    for argv in (["props", "--function", str(path), "--max-sets", "2"],
                 ["envelope", "--function", str(path)],
                 ["covers", "search", "--function", str(path), "--m-max", "2"]):
        assert _exits_cleanly(argv)


@settings(max_examples=150, deadline=None)
@given(doc=_damaged(_GOOD_CERTIFICATE) | _json | st.binary(max_size=40))
def test_any_certificate_file_ends_in_an_exit_code(tmp_path_factory, doc):
    folder = tmp_path_factory.mktemp("certificate")
    path, function = folder / "cert.json", folder / "v.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    function.write_text(json.dumps(_GOOD_FUNCTION))
    assert _exits_cleanly(["covers", "verify", "--certificate", str(path),
                           "--omega", "a,b", "--function", str(function)])


# Formula text: printed random formulas with coefficients up to 10**30, flat
# chains longer than MAX_NESTING, groups nested to just below and above it,
# and junk.  A chain has one connective and no = basics: valid negates it,
# and the negation of a chain of = under |, or of a chain mixing & and |, is
# a conjunction of two-way clauses whose 2**n disjuncts the solver walks one
# by one when each is infeasible.
_huge = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30))
_names = st.sampled_from(["p", "q"])
_basic_text = basics(_huge, _names).map(print_formula)
_inequality_text = basics(_huge, _names).filter(lambda b: b.rel is not Rel.EQ).map(print_formula)


def _flat(parts, sym, n):
    """n basics joined by sym, cycling through parts."""
    return f" {sym} ".join(itertools.islice(itertools.cycle(parts), n))


def _nested(f, shape, k):
    """f inside k groups or k negations, or an l(.) argument nested k groups
    deep with & and | in turn."""
    if shape == "(":
        return "(" * k + f + ")" * k
    if shape == "~":
        return "~" * k + "(" + f + ")"
    arg = "p"
    for i in range(k):
        arg = f"q {'&|'[i % 2]} ({arg})"
    return f"l({arg}) >= 1/2"


_formula_text = st.one_of(
    lforms(_huge, _names).map(print_formula),
    st.builds(_flat, st.lists(_inequality_text, min_size=1, max_size=2),
              st.sampled_from("&|"), st.integers(MAX_NESTING + 1, MAX_NESTING + 20)),
    st.builds(_nested, _basic_text, st.sampled_from(["(", "~", "l"]),
              st.integers(MAX_NESTING - 3, MAX_NESTING + 1)),
    st.text(alphabet="l()pq!~&|<>=+-/0123456789 ", max_size=40),
    st.text(max_size=20),
)


@settings(max_examples=40, deadline=None)
@given(text=_formula_text)
def test_any_formula_text_ends_in_an_exit_code(text):
    """Also under bad UPLOGIC_ATOM_CAP values, which only the verbs that
    enumerate atoms read."""
    for cap in (None, "abc", "17"):
        env = {} if cap is None else {"UPLOGIC_ATOM_CAP": cap}
        with mock.patch.dict(os.environ, env):
            for argv in (["sat", "--formula=" + text],
                         ["valid", "--formula=" + text],
                         ["bounds", "--formula=" + text, "--term=l(p)"],
                         ["check", "--model", os.path.join(FIX, "marble.json"),
                          "--formula=" + text],
                         ["parse", "--", text]):
                assert _exits_cleanly(argv)
