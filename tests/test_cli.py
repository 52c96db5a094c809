import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_selftest_broken_clifford_control():
    res = run_cli("selftest", "--break-clifford-sign")
    assert res.returncode == 2
    data = json.loads(res.stdout)
    by_name = {c["name"]: c for c in data["checks"]}
    assert by_name["clifford_relations_nupto6"]["pass"] is False


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


def test_exit_codes(tmp_path):
    missing_dir = tmp_path / "missing" / "report.json"
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
        # reports that overflow, and frames whose guard residual overflows
        (("analyze", "--algebra", "L3(6)", "--metric",
          '{"gram": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}'), 2),
        (("analyze", "--algebra", "L3(1)", "--metric",
          '{"frame_P": {"alpha": 1e200, "iota": 1e-200}}'), 2),
    ]
    for args, code in cases:
        res = run_cli(*args)
        assert res.returncode == code, args
        assert res.stdout == "", args
        assert "Traceback" not in res.stderr, args
        assert len(res.stderr.strip().splitlines()) == 1, args


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
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "cmd_table1", lambda args: (f"patched {args.seed}", 0))
    assert cli.main(["table1", "--seed", "5"]) == 0
    assert capsys.readouterr().out == "patched 5\n"
