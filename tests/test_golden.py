"""The checked-in output golden, the comparator of the output rule, and the one runner
behind the golden and the digest.

``tools/output_golden.py`` is imported with ``tools/`` on the path.  The golden
holds each command line's exit code and parsed stdout and stderr; this tree
must reproduce it under the rule: strings, booleans, integers and ``null``
exactly, floats within 1e-12 relative, and the rounding-level deviation fields
within an absolute floor.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from spinlab import cli
from spinlab.gks import family_grid


@pytest.fixture(scope="module")
def golden_tool():
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    sys.path.insert(0, tools)
    try:
        yield importlib.import_module("output_golden")
    finally:
        sys.path.remove(tools)


def test_output_matches_the_golden(golden_tool):
    golden = json.loads(golden_tool.GOLDEN.read_text(encoding="utf-8"))
    assert golden_tool.check(golden, golden_tool.runs()) == []


def test_golden_covers_every_command_and_family(golden_tool):
    text = golden_tool.GOLDEN.read_text(encoding="utf-8")
    assert len(text) < 200_000
    golden = json.loads(text)
    argvs = [tuple(run["argv"]) for run in golden]
    for fmt in golden_tool.FORMATS:
        lines = [argv[:-2] for argv in argvs if argv[-2:] == ("--format", fmt)]
        assert {argv[0] for argv in lines} == {
            "analyze", "heisenberg", "verify-appendix", "sweep", "table1", "selftest"}
        assert {fam.label for fam in family_grid()} <= {
            argv[2] for argv in lines if argv[0] in ("analyze", "sweep")}
        assert {str(n) for n in range(2, 17)} <= {argv[2] for argv in lines if argv[0] == "heisenberg"}
        assert set(golden_tool.FAILING) <= set(lines)
    assert {run["code"] for run in golden} == {0, 2, 3}


def test_one_runner_reports_a_raise_and_drops_the_timing_line(golden_tool, monkeypatch):
    argv = ("analyze", "--algebra", "L3(6)", "--format", "json")
    golden = [golden_tool.record(argv)]
    assert golden[0]["code"] == 0

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_analyze", broken)  # cli.main looks commands up by name
    assert golden_tool.run(argv) == ("", "", "raised RuntimeError: boom")
    assert golden_tool.digest(argv) == hashlib.sha256(b"\0\0raised RuntimeError: boom").hexdigest()
    problems = golden_tool.check(golden, [golden_tool.record(argv)])
    assert problems[0] == f"{' '.join(argv)}: code: 0 != 'raised RuntimeError: boom'"

    timed = cli.cmd_heisenberg  # prints its runtime_seconds line after this note

    def noted(args):
        print("note: kept", file=sys.stderr)
        return timed(args)

    monkeypatch.setattr(cli, "cmd_heisenberg", noted)
    for fmt in golden_tool.FORMATS:
        argv = ("heisenberg", "--n", "2", "--format", fmt)
        stdout, stderr, code = golden_tool.run(argv)
        assert stdout and stderr == "note: kept\n" and code == 0
        blob = "\0".join((stdout, stderr, "0")).encode()
        assert golden_tool.digest(argv) == hashlib.sha256(blob).hexdigest()
        assert golden_tool.record(argv)["stderr"] == [["note:", "kept"]]


def test_comparator_keeps_the_output_rule(golden_tool):
    def mismatches(want, got, command="analyze", text=False):
        return golden_tool.compare(want, got, command, ("stdout",), text)

    assert mismatches({"x": 1.0, "n": 3, "ok": True, "r": None, "f": "L3(6)"},
                      {"x": 1.0 + 5e-13, "n": 3, "ok": True, "r": None, "f": "L3(6)"}) == []
    assert mismatches({"x": 1.0}, {"x": 1.0 + 5e-12}) != []
    assert mismatches({"x": 1}, {"x": 0.9999999999999998}) == []  # %.17g prints 1.0 as 1
    assert mismatches({"n": 3}, {"n": 4}) != []
    assert mismatches({"ok": True}, {"ok": 1}) != []
    assert mismatches({"r": None}, {"r": 0}) != []
    assert mismatches({"f": "L3(6)"}, {"f": "L3(5)"}) != []
    assert mismatches({"x": 0.0, "y": 1.0}, {"y": 1.0, "x": 0.0}) != []  # key order
    assert mismatches([[1e-16]], [[3e-15]]) != []  # no floor outside the rounding fields
    # the rounding-level fields, in JSON by key and in a table by column
    floor = golden_tool.ROUNDING_FLOOR
    va = {"results": [{"max_A_deviation": 1e-16, "samples": 20}]}
    assert mismatches(va, {"results": [{"max_A_deviation": 0.9 * floor, "samples": 20}]},
                      "verify-appendix") == []
    assert mismatches(va, {"results": [{"max_A_deviation": 2 * floor, "samples": 20}]},
                      "verify-appendix") != []
    assert mismatches(va, {"results": [{"max_A_deviation": 1e-16, "samples": 21}]},
                      "verify-appendix") != []
    row = golden_tool.parse_text("L3(2,-0.5)   1.70776e-16 2.22045e-16 False  yes")
    assert row == [["L3(", 2, ",", -0.5, ")", 1.70776e-16, 2.22045e-16, "False", "yes"]]
    moved = [row[0][:5] + [3e-15, 4e-15] + row[0][7:]]
    assert mismatches(row, moved, "verify-appendix", text=True) == []
    assert mismatches(row, moved, "analyze", text=True) != []
    check = golden_tool.parse_text("PASS  nomizu_torsion_free  deviation 1.33227e-15  (tol 1e-12)")
    assert check == [["PASS", "nomizu_torsion_free", "deviation", 1.33227e-15, "(tol", 1e-12, ")"]]
    moved = [check[0][:3] + [5e-14] + check[0][4:]]
    assert mismatches(check, moved, "selftest", text=True) == []
    assert mismatches(check, [check[0][:5] + [2e-12, ")"]], "selftest", text=True) != []  # tol
