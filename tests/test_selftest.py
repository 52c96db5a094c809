import numpy as np
from test_connection import ricci_spinorial_loop

from spinlab import cli
from spinlab.algebra import FrameChange, metric_from_frame_change, random_frames
from spinlab.catalog import (
    BianchiFamily,
    heisenberg_gk_eigenvalues,
    heisenberg_metric,
    is_symmetric_family,
    make_bianchi,
    reference_eigenvalues,
    reference_ricci_3d,
)
from spinlab.clifford import Spinor, get_module
from spinlab.connection import curvature, metricity_violation, nomizu, torsion_violation
from spinlab.gks import (
    dirac_trace_3d,
    eigen_analysis,
    solve_endomorphism,
    sweep_frames,
    symmetry_conditions_3d,
)
from spinlab.selftest import (
    FAMILY_GRID,
    _catalog_jacobi,
    _check,
    _clifford_relations,
    _heisenberg_sweep,
    _skew_vector_pairs,
    closed_form_deviations,
    family_grid,
    run_selftest,
    verify_appendix,
)


def equivariance_per_pair(seed, n_max=4, pairs=100):
    """One draw and one dense commutator per pair: the loop ``_equivariance`` replaces."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, n_max + 1):
        mod = get_module(n)
        d = mod.dim_frame
        mats = [mod.vector_matrix(i) for i in range(1, d + 1)]
        for _ in range(pairs):
            g = rng.uniform(-1.0, 1.0, size=(d, d))
            omega = g - g.T
            v = rng.uniform(-1.0, 1.0, size=d)
            lift = mod.spin_lift(omega)
            ev = sum(v[i] * mats[i] for i in range(d))
            target = omega @ v
            et = sum(target[i] * mats[i] for i in range(d))
            worst = max(worst, float(np.max(np.abs(lift @ ev - ev @ lift - et))))
    return worst


def run_selftest_per_sample(seed):
    """The suite with one metric at a time through ``MetricLieAlgebra`` and the
    per-direction spinorial loop: the reference for the stacked ``run_selftest``."""
    checks = [
        _check("clifford_relations_nupto6", _clifford_relations(6), 1e-12),
        _check("spin_lift_equivariance_n_upto4", equivariance_per_pair([seed, 1]), 1e-12),
        _check("catalog_jacobi", _catalog_jacobi(), 1e-10),
    ]
    torsion = metricity = spinorial = ricci_dev = dirac_dev = 0.0
    closed_dev = np.zeros(3)
    for idx, fam in enumerate(family_grid()):
        alg = make_bianchi(fam)
        rng = np.random.default_rng([[seed, 2], idx])
        for _ in range(20):
            p = FrameChange.random(3, rng)
            mla = metric_from_frame_change(alg, p)
            nm, c = nomizu(mla), mla.ortho_c
            a_solved, _ = solve_endomorphism(mla, Spinor.one(1))
            metricity = max(metricity, metricity_violation(nm))
            torsion = max(torsion, torsion_violation(nm, mla))
            for psi in (Spinor.one(1), Spinor.basis(1, 1)):
                spinorial = max(spinorial, ricci_spinorial_loop(nm, c, psi))
            closed_dev = np.maximum(closed_dev, closed_form_deviations(fam, p, a_solved, c))
            dirac_dev = max(dirac_dev, abs(float(np.trace(a_solved)) - dirac_trace_3d(c)))
            if is_symmetric_family(fam):
                ric = curvature(nm, mla).ricci
                ref = reference_ricci_3d(c)
                rscale = max(1.0, float(np.max(np.abs(ref))))
                ricci_dev = max(ricci_dev, float(np.max(np.abs(ric - ref))) / rscale)
    checks += [
        _check("nomizu_torsion_free", torsion, 1e-12),
        _check("nomizu_metricity", metricity, 1e-12),
        _check("spinorial_ricci_identity", spinorial, 1e-9),
        _check("solver_vs_family_closed_form", closed_dev[0], 1e-9),
        _check("solver_vs_explicit_3d_form", closed_dev[2], 1e-10),
        _check("asymmetry_vs_closed_form", closed_dev[1], 1e-10),
        _check("ricci_vs_closed_form_symmetric", ricci_dev, 1e-9),
        _check("dirac_trace_identity", dirac_dev, 1e-12),
    ]
    heis_dev = 0.0
    for params in _heisenberg_sweep([seed, 3]):
        a_solved, _ = solve_endomorphism(heisenberg_metric(params), Spinor.one(params.n))
        lam_vals, mu = heisenberg_gk_eigenvalues(params)
        expected = np.diag([mu] + [v for lv in lam_vals for v in (lv, lv)])
        heis_dev = max(heis_dev, float(np.max(np.abs(a_solved - expected))))
    checks.append(_check("heisenberg_eigenvalue_ladder", heis_dev, 1e-10))
    return checks


def test_bulk_equivariance_draw_matches_per_pair_draws():
    for d in (3, 5, 9):
        one, bulk = np.random.default_rng([7, d]), np.random.default_rng([7, d])
        omega, v = _skew_vector_pairs(bulk, d, 30)
        for omega_k, v_k in zip(omega, v):
            g = one.uniform(-1.0, 1.0, size=(d, d))
            np.testing.assert_array_equal(omega_k, g - g.T)
            np.testing.assert_array_equal(v_k, one.uniform(-1.0, 1.0, size=d))
        assert bulk.uniform() == one.uniform()


def test_stacked_selftest_matches_per_sample_suite():
    for seed in range(1, 6):
        stacked = run_selftest(seed=seed)["checks"]
        reference = run_selftest_per_sample(seed)
        assert [c["name"] for c in stacked] == [c["name"] for c in reference]
        for got, want in zip(stacked, reference):
            assert got["tol"] == want["tol"] and got["pass"] == want["pass"] is True, got
            assert abs(got["deviation"] - want["deviation"]) <= 1e-15, (seed, got, want)


def verify_appendix_per_sample(samples, seed, tol, gap_tol):
    """One frame change, symmetry verdict and eigen analysis per sample: the
    reference for ``verify_appendix``'s single pass."""
    results = []
    for idx, (tag, x) in enumerate(FAMILY_GRID):
        fam = BianchiFamily(tag, x)
        expected_sym = is_symmetric_family(fam)
        frames = random_frames(3, np.random.default_rng([seed, idx]), samples)
        batch = sweep_frames(make_bianchi(fam), frames, tol, gap_tol)
        devs = np.zeros(3)
        eigen_dev = None
        verdicts_ok = bool(np.all(batch.symmetric == expected_sym))
        for frame, ortho_c, a_solved in zip(frames, batch.ortho_c, batch.A):
            p = FrameChange(frame)
            devs = np.maximum(devs, closed_form_deviations(fam, p, a_solved, ortho_c))
            verdicts_ok &= symmetry_conditions_3d(ortho_c, tol) == expected_sym
            closed = reference_eigenvalues(fam, p)
            if closed is not None:
                solved_vals, _ = eigen_analysis(a_solved, gap_tol)
                ref_vals = np.sort(np.asarray(closed))
                escale = max(1.0, float(np.max(np.abs(ref_vals))))
                dev = float(np.max(np.abs(solved_vals - ref_vals))) / escale
                eigen_dev = dev if eigen_dev is None else max(eigen_dev, dev)
        a_dev, asym_dev, explicit_dev = (float(v) for v in devs)
        entry_pass = (
            a_dev <= tol
            and asym_dev <= tol
            and explicit_dev <= tol
            and verdicts_ok
            and (eigen_dev is None or eigen_dev <= tol)
        )
        results.append(
            {
                "family": fam.label,
                "samples": samples,
                "max_A_deviation": a_dev,
                "max_asymmetry_deviation": asym_dev,
                "max_explicit_A_deviation": explicit_dev,
                "max_eigenvalue_deviation": eigen_dev,
                "symmetry_expected": expected_sym,
                "symmetry_verdicts_ok": verdicts_ok,
                "pass": entry_pass,
            }
        )
    all_pass = all(r["pass"] for r in results)
    return {"samples": samples, "seed": seed, "tol": tol, "results": results, "all_pass": all_pass}


def test_verify_appendix_matches_per_sample_loop():
    for seed in range(1, 6):
        payload = verify_appendix(10, seed, 1e-9, 1e-7)
        assert payload == verify_appendix_per_sample(10, seed, 1e-9, 1e-7), seed
        assert payload["all_pass"] is True
        eigen = [r["max_eigenvalue_deviation"] is not None for r in payload["results"]]
        assert sum(eigen) == 3  # L3(1), L3(2,-1) and L3(4,0) have closed-form eigenvalues
    failing = verify_appendix(10, 3, 1e-300, 1e-7)
    assert failing == verify_appendix_per_sample(10, 3, 1e-300, 1e-7)
    assert not any(r["pass"] for r in failing["results"])


def test_verify_appendix_command_formats_the_payload(capsys):
    for extra, code in (((), 0), (("--tol", "1e-300"), 2)):
        argv = ["verify-appendix", "--samples", "10", "--seed", "4", *extra]
        assert cli.main(argv) == code
        payload = verify_appendix(10, 4, float(extra[-1]) if extra else 1e-9, 1e-7)
        assert capsys.readouterr().out == cli.to_json(payload) + "\n"
        assert cli.main([*argv, "--format", "table"]) == code
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 2 + len(FAMILY_GRID)
        assert table[-1] == f"all_pass: {code == 0}"
