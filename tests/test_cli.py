import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinlab.catalog import BianchiFamily, make_bianchi, make_heisenberg
from spinlab.serialize import algebra_to_obj

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("SPINLAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spinlab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_analyze_l31_identity():
    res = run_cli("analyze", "--algebra", "L3(1)", "--metric", "identity")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["distinct_count"] == 2
    assert data["gks_space_dim"] == 2
    assert data["symmetric"] is True
    np.testing.assert_allclose(data["A"], np.diag([-0.25, 0.25, 0.25]), atol=1e-14)


def test_analyze_inline_frame_p():
    metric = '{"frame_P":{"alpha":1,"beta":0,"gamma":0,"epsilon":1,"zeta":0,"iota":1}}'
    res = run_cli("analyze", "--algebra", "L3(2,-1)", "--metric", metric)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    np.testing.assert_allclose(data["eigenvalues"], [-0.5, 0.0, 0.5], atol=1e-12)
    assert data["distinct_count"] == 3


def test_analyze_abelian_from_files(tmp_path):
    alg_path = tmp_path / "abelian.json"
    alg_path.write_text(json.dumps({"dim": 3, "brackets": []}))
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps({"gram": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    res = run_cli("analyze", "--algebra", str(alg_path), "--metric", str(gram_path))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    np.testing.assert_array_equal(data["A"], np.zeros((3, 3)))
    assert data["dirac_eigenvalue"] == 0
    assert data["distinct_count"] == 1


def test_analyze_heisenberg_name():
    res = run_cli("analyze", "--algebra", "H(5)", "--metric", "identity")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["gks_space_dim"] is None
    np.testing.assert_allclose(sorted(data["eigenvalues"]), [-0.5, 0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_heisenberg_defaults_n3():
    res = run_cli("heisenberg", "--n", "3")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    np.testing.assert_allclose(data["lambda"], [0.25, 0.125, 1 / 12], rtol=1e-15)
    assert data["mu"] == pytest.approx(-11 / 24, rel=1e-15)
    assert data["distinct_count"] == 4
    assert data["solve_residual"] <= 1e-12
    assert "runtime_seconds" in res.stderr


def test_heisenberg_param_errors():
    assert run_cli("heisenberg", "--n", "0").returncode == 2
    assert run_cli("heisenberg", "--n", "2", "--a", "1,2,3").returncode == 2
    assert run_cli("heisenberg", "--n", "1", "--c", "-1").returncode == 2


def test_verify_appendix_small():
    res = run_cli("verify-appendix", "--samples", "10", "--seed", "1")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["all_pass"] is True
    assert len(data["results"]) == 13
    sym_verdicts = {r["family"]: r["symmetry_expected"] for r in data["results"]}
    assert sym_verdicts["L3(4,0)"] is True
    assert sym_verdicts["L3(4,0.5)"] is False
    assert sym_verdicts["L3(2,-1)"] is True


def test_table1_small():
    res = run_cli("table1", "--samples", "30", "--seed", "2")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    got = [(r["family"], r["case"], r["gk_dim"], r["r"]) for r in rows]
    assert got == [
        ("L3(-1)", "", 0, None),
        ("L3(1)", "", 2, 2),
        ("L3(2,x)", "x = -1", 2, 3),
        ("L3(2,x)", "x != -1", 0, None),
        ("L3(3)", "", 0, None),
        ("L3(4,x)", "x = 0", 2, 3),
        ("L3(4,x)", "x != 0", 0, None),
        ("L3(5)", "", 2, 3),
        ("L3(6)", "", 2, 3),
    ]


def test_sweep_l31():
    res = run_cli("sweep", "--algebra", "L3(1)", "--samples", "50", "--seed", "4")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["r_counts"] == {"2": 50}
    assert data["symmetric_count"] == 50


def test_selftest_passes():
    res = run_cli("selftest")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["all_pass"] is True
    names = {c["name"] for c in data["checks"]}
    assert "clifford_relations_nupto6" in names
    assert "spinorial_ricci_identity" in names


def test_selftest_unattainable_tolerance():
    res = run_cli("selftest", "--tol", "1e-15")
    assert res.returncode == 2
    data = json.loads(res.stdout)
    assert data["all_pass"] is False
    failed = [c for c in data["checks"] if not c["pass"]]
    assert failed
    for chk in failed:
        assert chk["deviation"] > 1e-15


def test_selftest_broken_clifford_control(broken_clifford_sign, capsys):
    from spinlab import cli

    assert cli.main(["selftest"]) == 2
    data = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["clifford_relations_nupto6"]["pass"] is False


def test_selftest_tol_prefix_overrides_and_default_keeps_per_check_tols(capsys, monkeypatch):
    from spinlab import cli
    from spinlab.selftest import run_selftest
    from spinlab.serialize import to_json

    monkeypatch.delenv("SPINLAB_SEED", raising=False)
    # argparse reads --to as a prefix of --tol
    for argv in (["selftest", "--to", "1e-15"], ["selftest", "--tol=1e-15"]):
        assert cli.main(argv) == 2, argv
        data = json.loads(capsys.readouterr().out)
        assert data["tol_override"] == 1e-15, argv
        assert {c["tol"] for c in data["checks"]} == {1e-15}, argv
    assert cli.main(["selftest"]) == 0
    assert capsys.readouterr().out == to_json(run_selftest(seed=1)) + "\n"


def test_determinism_byte_identical():
    for args in (
        ("analyze", "--algebra", "L3(5)", "--metric", "identity"),
        ("sweep", "--algebra", "L3(6)", "--samples", "25", "--seed", "9"),
        ("table1", "--samples", "10", "--seed", "3"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_env_seed_fallback():
    with_env = run_cli(
        "sweep", "--algebra", "L3(6)", "--samples", "20",
        env_extra={"SPINLAB_SEED": "11"},
    )
    with_flag = run_cli("sweep", "--algebra", "L3(6)", "--samples", "20", "--seed", "11")
    assert with_env.returncode == with_flag.returncode == 0
    assert with_env.stdout == with_flag.stdout
    negative = run_cli(
        "sweep", "--algebra", "L3(6)", "--samples", "20",
        env_extra={"SPINLAB_SEED": "-3"},
    )
    assert negative.returncode == 2
    assert "Traceback" not in negative.stderr


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.delenv("SPINLAB_SEED", raising=False)  # as run_cli runs a fresh process
    missing_dir = tmp_path / "missing" / "report.json"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    nested = "[" * 900 + "]" * 900
    one_40d = "[" * 40 + "1" + "]" * 40
    cases = [
        (("analyze", "--algebra", '{"dim": 3, "brackets": ['), 3),
        (("analyze", "--algebra", "no_such_file.json"), 3),
        (("analyze", "--algebra", "L3(2,7)"), 2),
        (("analyze", "--algebra", "L3(1)", "--output", str(missing_dir)), 3),
        (("table1", "--samples", "0"), 2),
        (("sweep", "--algebra", "L3(6)", "--samples", "-5"), 2),
        (("verify-appendix", "--samples", "0"), 2),
        (("sweep", "--algebra", "L3(6)", "--samples", "5", "--seed", "-1"), 2),
        (("selftest", "--seed", "-1"), 2),
        # selftest counts no distinct eigenvalues, so it takes no --gap-tol
        (("selftest", "--gap-tol", "1e300"), 2),
        # nor does verify-appendix: its closed-form eigenvalue check compares values only
        (("verify-appendix", "--gap-tol", "1e-7"), 2),
        (("analyze", "--algebra", "L3(1)", "--tol", "nan"), 2),
        (("analyze", "--algebra", "L3(1)", "--tol", "-1"), 2),
        (("analyze", "--algebra", "L3(1)", "--tol", "inf"), 2),
        (("sweep", "--algebra", "L3(6)", "--samples", "5", "--gap-tol", "nan"), 2),
        (("table1", "--samples", "5", "--gap-tol", "0"), 2),
        (("heisenberg", "--n", "2", "--a", "1,nan"), 2),
        (("heisenberg", "--n", "1", "--c", "inf"), 2),
        (("analyze", "--algebra", "L3(1)", "--metric", '{"frame_P": {"alpha": NaN}}'), 2),
        (("analyze", "--algebra", "L3(1)", "--metric",
          '{"frame_P": [[1, 0, 0], [0, 1, Infinity], [0, 0, 1]]}'), 2),
        (("analyze", "--algebra", "L3(1)", "--metric",
          '{"gram": [[1, 0, 0], [0, NaN, 0], [0, 0, 1]]}'), 2),
        # spinor modules past the size cap are refused before allocation
        (("heisenberg", "--n", "40"), 2),
        (("analyze", "--algebra", "H(81)"), 2),
        (("heisenberg", "--n", "1", "--a", "1e-200", "--b", "1e-200", "--c", "1e200"), 2),
        (("analyze", "--algebra", '{"dim": -3, "brackets": []}'), 3),
        (("analyze", "--algebra", '{"dim": 0, "brackets": []}'), 3),
        # a one-dimensional algebra is refused by its dimension, not by a slot count
        (("analyze", "--algebra", '{"dim": 1, "brackets": []}'), 2),
        # a metric document holds one of gram and frame_P, and no other key
        (("analyze", "--algebra", "L3(2,-1)", "--metric",
          '{"gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "frame_P": {"alpha": 2, "beta": 0.5}}'), 3),
        (("analyze", "--algebra", '{"dim": 1e400, "brackets": []}'), 3),
        (("analyze", "--algebra",
          '{"dim": 3, "brackets": [{"i": 1e400, "j": 2, "coeffs": [0, 0, 0]}]}'), 3),
        # dimensions and bracket indices are JSON integers: no floats, no booleans
        (("analyze", "--algebra",
          '{"dim": 3.9, "brackets": [{"i": 2, "j": 3, "coeffs": [1, 0, 0]}]}'), 3),
        (("analyze", "--algebra", '{"dim": true, "brackets": []}'), 3),
        (("analyze", "--algebra", '{"dim": 3.0, "brackets": []}'), 3),
        # non-finite structure constants
        (("analyze", "--algebra",
          '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, NaN]}]}'), 2),
        (("analyze", "--algebra",
          '{"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": [-Infinity, 0, 0]}]}'), 2),
        (("analyze", "--algebra",
          '{"dim": 3, "brackets": [{"i": 2.7, "j": 3, "coeffs": [1, 0, 0]}]}'), 3),
        (("analyze", "--algebra",
          '{"dim": 3, "brackets": [{"i": 2, "j": false, "coeffs": [1, 0, 0]}]}'), 3),
        # JSON algebras past the spinor size cap, refused before the dim^3 tensor
        (("analyze", "--algebra", '{"dim": 1000000, "brackets": []}'), 2),
        (("analyze", "--algebra", '{"dim": 35, "brackets": []}'), 2),
        # sample counts past the cap, refused before anything is drawn
        (("sweep", "--algebra", "L3(6)", "--samples", "100000000000000"), 2),
        (("table1", "--samples", "100000000000000"), 2),
        (("verify-appendix", "--samples", "100000000000000"), 2),
        # reports that overflow, and frames whose guard residual overflows
        (("analyze", "--algebra", "L3(6)", "--metric",
          '{"gram": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}'), 2),
        (("analyze", "--algebra", "L3(1)", "--metric",
          '{"frame_P": {"alpha": 1e200, "iota": 1e-200}}'), 2),
        # a Gram entry near the float maximum: symmetrising it must not overflow; the report does
        (("analyze", "--algebra", "L3(1)", "--metric",
          '{"gram": [[1e308, 0, 0], [0, 1, 0], [0, 0, 1]]}'), 2),
        (("analyze", "--algebra", "H(5)", "--metric",
          '{"gram": [[1e308, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], '
          '[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]}'), 2),
        # JSON nested past the parser's recursion limit, inline and from a file
        (("analyze", "--algebra", "[" * 100_000), 3),
        (("analyze", "--algebra", str(deep)), 3),
        # nested lists with more axes than numpy iterates over
        (("analyze", "--algebra", "L3(1)", "--metric", '{"gram": %s}' % nested), 3),
        (("analyze", "--algebra", "L3(1)", "--metric", '{"frame_P": %s}' % nested), 3),
        (("analyze", "--algebra", "L3(1)", "--metric", '{"gram": %s}' % one_40d), 2),
        # a valid but loose --tol that splits a table1 row's symmetry verdicts
        (("table1", "--samples", "7", "--tol", "0.5"), 2),
        # non-finite family parameters, and one whose A overflows
        (("sweep", "--algebra", "L3(4,nan)", "--samples", "5"), 2),
        (("sweep", "--algebra", "L3(4,inf)", "--samples", "5"), 2),
        (("sweep", "--algebra", "L3(4,8.9e307)", "--samples", "5", "--seed", "1"), 2),
        # the upper side of that seed's overflow boundary, near 6.18e307
        (("sweep", "--algebra", "L3(4,6.25e307)", "--samples", "5", "--seed", "1"), 2),
    ]
    # every line runs in this process; one line per exit path of cli.main runs in a
    # fresh process too (malformed JSON, a missing --output directory and the deep JSON
    # file exit 3, a domain error 2), as does the overflow boundary pair below
    fresh = {
        ("analyze", "--algebra", '{"dim": 3, "brackets": ['),
        ("analyze", "--algebra", "L3(1)", "--output", str(missing_dir)),
        ("analyze", "--algebra", str(deep)),
        ("analyze", "--algebra", "L3(2,7)"),
    }
    assert fresh <= {args for args, _ in cases}
    for args, code in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every warning, as a fresh process prints it
            got, out, err = _run_in_process(args)  # an exception fails the test
        err += "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                       for w in caught)
        runs = [(got, out, err)]
        if args in fresh:
            res = run_cli(*args)
            runs.append((res.returncode, res.stdout, res.stderr))
        for got, out, err in runs:
            assert got == code, args
            assert out == "", args
            assert "Traceback" not in err, args
            assert len(err.strip().splitlines()) == 1, args
    # both sides of the boundary: a finite report below it, the one overflow line above it
    below = run_cli("sweep", "--algebra", "L3(4,6.1e307)", "--samples", "5", "--seed", "1")
    assert below.returncode == 0 and json.loads(below.stdout)["symmetric_count"] == 0
    above = run_cli("sweep", "--algebra", "L3(4,6.25e307)", "--samples", "5", "--seed", "1")
    assert above.stderr.strip() == (
        "error: A is not finite: the structure constants are out of floating-point range")


def test_usage_errors_are_one_line_with_exit_2(capsys):
    from spinlab import cli

    for argv, message in (
        (["heisenberg", "--n", "2", "--b", "-1,1"], "argument --b: expected one argument"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["heisenberg"], "the following arguments are required: --n"),
        ([], "the following arguments are required: command"),
        (["table1", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
    ):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message), argv
        assert len(err.splitlines()) == 1, argv
    # with "=" the value reaches the parameter check
    assert cli.main(["heisenberg", "--n", "2", "--b=-1,1"]) == 2
    assert capsys.readouterr().err.startswith("error: Heisenberg metric parameters")
    for argv in (["-h"], ["heisenberg", "--help"]):
        assert cli.main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert out.startswith("usage: spinlab") and err == "", argv


def test_jacobi_failure_exit(tmp_path):
    bad = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": [0, 1, 0]},
            {"i": 2, "j": 3, "coeffs": [0, 0, 1]},
        ],
    }
    path = tmp_path / "notlie.json"
    path.write_text(json.dumps(bad))
    res = run_cli("analyze", "--algebra", str(path))
    assert res.returncode == 2
    assert "not a Lie algebra" in res.stderr
    # [e1, e2] = 1e200 e1 is a Lie algebra whose Jacobi sum overflows (c * c)
    huge = '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [1e200, 0, 0]}]}'
    res = run_cli("analyze", "--algebra", huge)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: the structure constants are out of floating-point range\n"
    assert run_cli("analyze", "--algebra", huge.replace("1e200", "1e100")).returncode == 0


def test_non_spd_gram_exit(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}))
    res = run_cli("analyze", "--algebra", "L3(1)", "--metric", str(path))
    assert res.returncode == 2


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "analyze", "--algebra", "L3(1)", "--metric", "identity", "--output", str(out)
    )
    assert res.returncode == 0
    assert res.stdout == ""
    data = json.loads(out.read_text())
    assert data["gks_space_dim"] == 2


def test_table_format_renders():
    res = run_cli("analyze", "--algebra", "L3(1)", "--format", "table")
    assert res.returncode == 0
    assert "A (orthonormal frame):" in res.stdout
    assert "gks_space_dim: 2" in res.stdout


def test_non_finite_report_rejected():
    res = run_cli(
        "analyze", "--algebra", "L3(6)", "--format", "table",
        "--metric", '{"gram": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}',
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: report is not finite (commutator_norm)")


def test_in_process_main_matches_fresh_processes(capsys, monkeypatch):
    from spinlab import cli

    runs = [
        (("sweep", "--algebra", "L3(6)", "--samples", "20"), {"SPINLAB_SEED": "11"}),
        (("sweep", "--algebra", "L3(6)", "--samples", "20"), {}),
        (("table1", "--samples", "5"), {"SPINLAB_SEED": "4"}),
        (("verify-appendix", "--samples", "3", "--seed", "2"), {"SPINLAB_SEED": "9"}),
        (("analyze", "--algebra", "L3(5)", "--format", "table"), {}),
        (("heisenberg", "--n", "2"), {"SPINLAB_SEED": "3"}),
        (("selftest", "--seed", "-1"), {}),
        (("table1", "--samples", "5"), {}),
    ]
    for args, env in runs:
        monkeypatch.delenv("SPINLAB_SEED", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code = cli.main(list(args))
        out = capsys.readouterr().out
        fresh = run_cli(*args, env_extra=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), args
    assert cli.build_parser.cache_info().misses == 1

    def double(args):  # a table1 payload that names its seed
        row = {"family": f"patched {args.seed}", "case": "", "gk_dim": 0, "r": None,
               "degenerate_fraction": None}
        return {"seed": args.seed, "rows": [row]}, 0

    monkeypatch.setattr(cli, "cmd_table1", double)
    assert cli.main(["table1", "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["family"] == "patched 5"
    assert cli.main(["table1", "--seed", "5", "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["patched", "5", "0", "-", "-"]


def test_eigen_analysis_follows_the_symmetry_verdict(capsys, monkeypatch):
    from spinlab import cli, gks

    # a loose --tol counts a non-symmetric A as symmetric; it is then analysed
    # under the same rule instead of being refused by a fixed one
    assert cli.main(["sweep", "--algebra", "L3(3)", "--samples", "5", "--tol", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["symmetric_count"] >= 1
    assert cli.main(["analyze", "--algebra", "L3(3)", "--tol", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["distinct_count"] is not None
    # at the default --tol the verdict is stricter than the old fixed rule
    # (sym_tol = 1e-8), so every default-tolerance output stays as it was
    runs = [("sweep", "--algebra", fam, "--samples", "30", "--seed", "5")
            for fam in ("L3(-1)", "L3(1)", "L3(2,-1)", "L3(3)", "L3(4,0)", "L3(5)", "L3(6)")]
    runs += [("table1", "--samples", "10"), ("analyze", "--algebra", "L3(5)"),
             ("analyze", "--algebra", "H(7)", "--format", "table")]
    now = []
    for args in runs:
        assert cli.main(list(args)) == 0, args
        now.append(capsys.readouterr().out)
    fixed = gks.eigen_analysis
    monkeypatch.setattr(gks, "eigen_analysis", lambda a, gap_tol, sym_tol: fixed(a, gap_tol))
    for args, out in zip(runs, now):
        assert cli.main(list(args)) == 0, args
        assert capsys.readouterr().out == out, args


def _run_in_process(argv):
    """``cli.main`` in this process: (exit code, stdout, stderr); an exception propagates."""
    from spinlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_heisenberg_tol_reaches_the_symmetry_check_and_leaves_stdout(monkeypatch):
    from spinlab import cli

    seen = []
    analyse = cli.eigen_analysis

    def spy(a, gap_tol, sym_tol):
        seen.append(sym_tol)
        return analyse(a, gap_tol, sym_tol=sym_tol)

    monkeypatch.setattr(cli, "eigen_analysis", spy)
    for params in (("--n", "3"),
                   ("--n", "5", "--a", "0.3,2,1.1,7,0.9", "--b", "1.5,0.2,3,1,1", "--c", "2.5")):
        outs = set()
        for fmt in ("json", "table"):
            for tol in ("1e-12", "1e-9", "0.5"):
                argv = ("heisenberg", *params, "--format", fmt, "--tol", tol)
                code, out, _ = _run_in_process(argv)
                assert code == 0
                outs.add(out)
        # the ladder A is exactly diagonal, so no tolerance changes a byte
        assert len(outs) == 2, params
    assert seen == [1e-12, 1e-9, 0.5] * 4


def _heisenberg_reference(n, a, b, c, fmt):
    """The ``heisenberg`` command's stdout by way of ``heisenberg_metric`` and the
    one-metric solve: the reference for its structure-constant route."""
    from spinlab.catalog import heisenberg_metric, heisenberg_spectrum
    from spinlab.clifford import Spinor
    from spinlab.gks import DEFAULT_GAP_TOL, DEFAULT_TOL, eigen_analysis, solve_endomorphism
    from spinlab.serialize import format_table_float, to_json

    a_solved, residual = solve_endomorphism(heisenberg_metric(n, a, b, c), Spinor.one(n))
    vals, distinct = eigen_analysis(a_solved, DEFAULT_GAP_TOL, sym_tol=DEFAULT_TOL)
    lam, mu = heisenberg_spectrum(a, b, c)
    lam, mu = lam.tolist(), float(mu)
    dirac = float(np.trace(a_solved))
    if fmt == "json":
        return to_json({
            "n": n, "a": a.tolist(), "b": b.tolist(), "c": c,
            "lambda": lam, "mu": mu, "eigenvalues": [float(v) for v in vals],
            "distinct_count": distinct, "solve_residual": residual, "dirac_eigenvalue": dirac,
        }) + "\n"
    return "\n".join([
        f"n: {n}",
        "lambda: " + ", ".join(format_table_float(v) for v in lam),
        f"mu: {format_table_float(mu)}",
        "eigenvalues: " + ", ".join(format_table_float(v) for v in vals),
        f"distinct_count: {distinct}",
        f"solve_residual: {format_table_float(residual)}",
        f"dirac_eigenvalue: {format_table_float(dirac)}",
    ]) + "\n"


def test_heisenberg_builds_no_algebra_and_matches_the_metric_route(monkeypatch):
    from spinlab import algebra
    from spinlab.catalog import heisenberg_params

    cases = [((), n, heisenberg_params(n)) for n in range(1, 17)]
    for n, c in ((8, 2.5), (9, 2.5), (16, 0.7)):  # the output digest's non-default lines
        a = [format(1 + 0.37 * p, ".2f") for p in range(1, n + 1)]
        b = [format(2.3 - 0.11 * p, ".2f") for p in range(1, n + 1)]
        flags = ("--a", ",".join(a), "--b", ",".join(b), "--c", str(c))
        cases.append((flags, n, heisenberg_params(n, list(map(float, a)), list(map(float, b)), c)))
    _run_in_process(("heisenberg", "--n", "1"))  # the parser and modules are built and cached
    built = {cls: 0 for cls in (algebra.LieAlgebra, algebra.MetricLieAlgebra)}
    for cls in built:
        def counting(self, cls=cls, post=cls.__post_init__):
            built[cls] += 1
            post(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for flags, n, params in cases:
        for fmt in ("json", "table"):
            built.update(dict.fromkeys(built, 0))
            argv = ("heisenberg", "--n", str(n), *flags, "--format", fmt)
            code, out, _ = _run_in_process(argv)
            assert (code, list(built.values())) == (0, [0, 0]), (n, fmt)
            assert out == _heisenberg_reference(n, *params, fmt), (n, fmt)
            assert list(built.values()) == [1, 1]  # the counters do count


def test_heisenberg_refuses_too_many_slots_before_building_anything():
    _run_in_process(("heisenberg", "--n", "1"))  # the parser and modules are built and cached
    tracemalloc.start()
    try:
        code, out, err = _run_in_process(("heisenberg", "--n", "1048576"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        "error: spinors with 1048576 slots (dimension 2097153) exceed the "
        "supported maximum of 16 slots (dimension 33)\n"
    )
    assert peak < 1 << 20


def test_table1_split_row_names_counts_and_tol():
    code, out, err = _run_in_process(("table1", "--samples", "7", "--tol", "0.5"))
    assert (code, out) == (2, "")
    assert err == (
        "error: --tol 0.5 splits the symmetry verdicts of row L3(-1): "
        "3 of 7 samples symmetric; a row needs all or none\n"
    )


def test_schema_errors_exit_3(monkeypatch):
    monkeypatch.delenv("SPINLAB_SEED", raising=False)
    bracket = '{"i": 2, "j": 3, "coeffs": [1, 0, 0]}'
    cases = [
        # frame_P matrices with a non-numeric or a missing entry
        ("L3(6)", '{"frame_P": [[1, "a", 0], [0, 1, 0], [0, 0, 1]]}'),
        ("L3(6)", '{"frame_P": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
        ("L3(6)", '{"frame_P": [[1, 0, 0], [0, [1], 0], [0, 0, 1]]}'),
        ("L3(6)", '{"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
        # booleans, strings and null where a real number belongs
        ("L3(6)", '{"frame_P": {"alpha": true}}'),
        ("L3(6)", '{"frame_P": {"beta": null}}'),
        ("L3(6)", '{"frame_P": [[1, 0, 0], [0, true, 0], [0, 0, 1]]}'),
        ("L3(6)", '{"gram": [[true, 0, 0], [0, 1, 0], [0, 0, 1]]}'),
        ("L3(6)", '{"gram": [[1, 0, 0], [0, 1, 0], [0, 0, "2"]]}'),
        ('{"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": [true, 0, 0]}]}', "identity"),
        ('{"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": ["1", 0, 0]}]}', "identity"),
        # an integer literal past the float range
        ("L3(6)", '{"gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1%s]]}' % ("0" * 400)),
        # a bracket pair given twice
        ('{"dim": 3, "brackets": [%s, %s]}' % (bracket, bracket), "identity"),
        ('{"dim": 3, "brackets": [%s, {"i": 2, "j": 3, "coeffs": [0, 1, 0]}]}' % bracket,
         "identity"),
    ]
    for algebra, metric in cases:
        for fmt in ("json", "table"):
            args = ("analyze", "--algebra", algebra, "--metric", metric, "--format", fmt)
            code, out, err = _run_in_process(args)
            assert (code, out) == (3, ""), args
            assert len(err.splitlines()) == 1 and err.startswith("error: "), args


# ---- in-process CLI fuzzing ------------------------------------------------

_FAMILIES = ("L3(-1)", "L3(1)", "L3(2,-1)", "L3(2,0.5)", "L3(3)", "L3(4,0)", "L3(5)", "L3(6)")
_GREEK = ("alpha", "beta", "gamma", "epsilon", "zeta", "iota")
_NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(-4.0, 4.0), st.sampled_from([0.5, 1e-300, 1e300, -1e300])
)
# JSON values that are not numbers, planted where the schema wants a number
_NOT_NUMBERS = st.sampled_from([True, False, None, "1", "a", [1.0], {"x": 1}])
# at most one fault is planted per command line: schema faults exit 3, flag faults 2
_FAULTS = (None,) * 5 + ("coeffs", "duplicate", "dim", "metric entry", "metric ragged", "flag")


@st.composite
def _algebra_doc(draw, fault, lie):
    """An ``--algebra`` value and its dimension; ``lie`` keeps to Lie algebras."""
    kinds = ["name", "catalog", "abelian"] + ([] if lie else ["random"])
    kind = draw(st.sampled_from(kinds))
    if kind == "name" and fault not in ("coeffs", "duplicate", "dim"):
        name = draw(st.sampled_from(_FAMILIES + ("H(3)", "H(5)", "H(9)")))
        return name, 3 if name.startswith("L3") else int(name[2:-1])
    if kind in ("name", "catalog"):
        alg = draw(st.one_of(
            st.sampled_from(_FAMILIES).map(lambda f: make_bianchi(BianchiFamily.parse(f))),
            st.integers(1, 4).map(make_heisenberg),
        ))
        doc = algebra_to_obj(alg)
        scale = draw(st.sampled_from([1.0, 2.5, 1e-3]))
        for entry in doc["brackets"]:
            entry["coeffs"] = [scale * v for v in entry["coeffs"]]
    elif kind == "abelian":
        doc = {"dim": draw(st.integers(2 if fault in ("coeffs", "duplicate") else 1, 9)),
               "brackets": []}
    else:
        dim = draw(st.integers(2, 9))
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
        doc = {"dim": dim, "brackets": [
            {"i": i, "j": j, "coeffs": draw(st.lists(_NUMBERS, min_size=dim, max_size=dim))}
            for i, j in chosen
        ]}
    dim, brackets = doc["dim"], doc["brackets"]
    if fault in ("coeffs", "duplicate") and not brackets:
        brackets.append({"i": 1, "j": 2, "coeffs": [0.0] * dim})
    if fault == "coeffs":
        coeffs = draw(st.sampled_from(brackets))["coeffs"]
        coeffs[draw(st.integers(0, dim - 1))] = draw(_NOT_NUMBERS)
    elif fault == "duplicate":
        first = draw(st.sampled_from(brackets))
        again = draw(st.lists(_NUMBERS, min_size=dim, max_size=dim))
        brackets.insert(draw(st.integers(0, len(brackets))),
                        {"i": first["i"], "j": first["j"], "coeffs": again})
    elif fault == "dim":
        doc["dim"] = draw(st.sampled_from([True, float(dim), str(dim)]))
    return json.dumps(doc), dim


@st.composite
def _metric_doc(draw, dim, fault):
    """A ``--metric`` value for a ``dim``-dimensional algebra; True when it breaks the schema."""
    kinds = ["gram", "frame_matrix", "frame_named"] + ([] if fault else ["identity"])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return "identity", False
    if kind == "frame_named":
        keys = draw(st.lists(st.sampled_from(_GREEK), unique=True, min_size=bool(fault)))
        doc = {k: draw(_NUMBERS) for k in keys}
        if fault:
            doc[draw(st.sampled_from(keys))] = draw(_NOT_NUMBERS)
        return json.dumps({"frame_P": doc}), bool(fault) or dim != 3
    size = max(1, dim + draw(st.sampled_from([0] * 6 + [-1, 1])))
    diag = st.sampled_from([0.5, 1.0, 3.0, 1.0, 2.0, -1.0, 1e-300])
    off = st.sampled_from([0.0, 0.0, 0.0, 0.1, -0.1, 0.3, -4.0, 1e300])
    rows = [[draw(diag) if c == r else (0.0 if kind == "frame_matrix" and c < r
             else draw(off)) for c in range(size)] for r in range(size)]
    if kind == "gram":
        rows = [[rows[min(r, c)][max(r, c)] for c in range(size)] for r in range(size)]
    if fault == "metric ragged" and size >= 2:
        rows[draw(st.integers(0, size - 1))].append(1.0)
    elif fault:
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(_NOT_NUMBERS)
    return json.dumps({"gram" if kind == "gram" else "frame_P": rows}), bool(fault)


@st.composite
def _cli_case(draw):
    """One command line and the exit codes it may end with."""
    fault = draw(st.sampled_from(_FAULTS))
    command = "analyze" if fault not in (None, "flag") else draw(
        st.sampled_from(["analyze", "analyze", "analyze", "sweep", "table1", "heisenberg"])
    )
    codes = {0, 2}
    if command == "analyze":
        metric_fault = fault if fault in ("metric entry", "metric ragged") else None
        # a JSON algebra is checked for Jacobi (exit 2) before the metric is read
        algebra, dim = draw(_algebra_doc(fault, lie=metric_fault is not None))
        metric, bad_metric = draw(_metric_doc(dim, metric_fault))
        args = ["analyze", "--algebra", algebra, "--metric", metric]
        if fault in ("coeffs", "duplicate", "dim") or bad_metric:
            codes = {3}
    elif command == "heisenberg":
        args = ["heisenberg", "--n", str(draw(st.integers(-1, 4)))]
        for flag in ("--a", "--b"):
            values = draw(st.lists(st.sampled_from(["1", "0.25", "4", "0", "-1", "nan", "x"]),
                                   min_size=1, max_size=4))
            if draw(st.booleans()):  # "=": argparse reads "-1,1" after a space as a flag
                args.append(f"{flag}={','.join(values)}")
        if draw(st.booleans()):
            args.append("--c=" + draw(st.sampled_from(["1", "0.5", "-1", "inf"])))
    else:
        args = [command, "--samples", draw(st.sampled_from(["-1", "0", "1", "7", "20"]))]
        if command == "sweep":
            args += ["--algebra", draw(st.sampled_from(_FAMILIES))]
    flags = {
        "--tol": draw(st.sampled_from([None, None, "1e-9", "1e-3", "0.5"])),
        "--gap-tol": draw(st.sampled_from([None, None, "1e-7", "1e-3", "0.5"])),
        "--seed": draw(st.sampled_from([None, "0", "5"])),
        "--format": draw(st.sampled_from(["json", "table"])),
    }
    if fault == "flag":
        flag = draw(st.sampled_from(["--tol", "--gap-tol", "--seed"]))
        bad = ["-1", "-7"] if flag == "--seed" else ["0", "-1", "nan", "inf", "-1e-9"]
        flags[flag] = draw(st.sampled_from(bad))
        codes = {2}  # flags are checked before anything is read
    args += [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    return args, codes


def _assert_finite(value):
    if isinstance(value, dict):
        for v in value.values():
            _assert_finite(v)
    elif isinstance(value, list):
        for v in value:
            _assert_finite(v)
    elif isinstance(value, float):
        assert np.isfinite(value)


@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_cli_case())
def test_cli_fuzz_ends_in_a_report_or_one_error_line(monkeypatch, case):
    """Every input exits 0 with a finite report, or 2 or 3 with one stderr line.

    Planted schema faults (non-numbers where numbers belong, ragged matrices,
    repeated bracket pairs, non-integer dimensions) must exit 3.
    """
    monkeypatch.delenv("SPINLAB_SEED", raising=False)
    args, codes = case
    code, out, err = _run_in_process(args)
    assert code in codes, (code, err)
    if code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    elif "--format=json" in args:
        _assert_finite(json.loads(out))
    else:
        assert not re.search(r"\b(nan|inf)\b", out), out
