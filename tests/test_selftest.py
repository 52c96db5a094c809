import sys
import tracemalloc

import numpy as np
from test_clifford import relations_dense
from test_connection import ricci_spinorial_loop
from test_gks import GRID_SAMPLES, grid_layout

from spinlab import algebra, catalog, cli, gks, selftest
from spinlab.algebra import FrameChange, metric_from_frame_change, random_frames
from spinlab.catalog import (
    BianchiFamily,
    heisenberg_metric,
    heisenberg_params,
    heisenberg_spectrum,
    is_symmetric_family,
    make_bianchi,
    reference_A,
    reference_asymmetry,
    reference_eigenvalues,
    reference_ricci_3d,
)
from spinlab.clifford import Spinor, elementary_skews, get_module
from spinlab.connection import curvature, metricity_violation, nomizu, torsion_violation
from spinlab.gks import (
    GRID_PASS_FRAMES,
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    genericity_sweep,
    solve_endomorphism,
    sweep_frames,
    symmetry_conditions_3d,
)
from spinlab.selftest import (
    _EQUIVARIANCE_N_MAX,
    FAMILY_GRID,
    _HEISENBERG_N_MAX,
    _HEISENBERG_PER_N,
    _catalog_jacobi,
    _check,
    _dense_bases,
    _equivariance,
    _skew_vector_pairs,
    closed_form_sweep,
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


def equivariance_stacked(seed, n_max=4, pairs=100):
    """One bulk draw per module size, lifted by ``spin_lift`` and acted on by
    ``apply_combo`` on the rows of the identity, transposed: the dense route
    ``_equivariance`` combines from its cached bases."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, n_max + 1):
        mod = get_module(n)
        eye = np.eye(mod.dim_spinor)
        omega, v = _skew_vector_pairs(rng, mod.dim_frame, pairs)
        lift = mod.spin_lift(omega)
        ev = mod.apply_combo(v[:, None], eye).swapaxes(-1, -2)
        et = mod.apply_combo((omega @ v[..., None])[:, None, :, 0], eye).swapaxes(-1, -2)
        worst = max(worst, float(np.max(np.abs(lift @ ev - ev @ lift - et))))
    return worst


def family_deviations(fam, frames, a, ortho_c):
    """The three closed-form deviations of one family's frame or ``(N, 3, 3)`` stack,
    from the closed forms of the family itself (a scalar ``x``): the reference for
    ``closed_form_deviations``, which hands a same-tag run its ``x`` as a column."""

    def worst(m):
        return np.max(np.abs(m), axis=(-2, -1))

    ref = reference_A(fam, frames)
    asym = (a - a.swapaxes(-1, -2)) - reference_asymmetry(fam, frames)
    rel = worst(a - ref) / np.maximum(1.0, worst(ref))
    return np.stack([rel, worst(asym), worst(a - explicit_A_3d(ortho_c))], axis=-1)


def _heisenberg_sweep(seed):
    """The ladder's metrics one ``(n, a, b, c)`` at a time, by rung, the default
    first: the per-metric reference for ``run_selftest``'s one draw per rung."""
    rng = np.random.default_rng(seed)
    out = [(n, *heisenberg_params(n)) for n in range(1, _HEISENBERG_N_MAX + 1)]
    for n in range(1, _HEISENBERG_N_MAX + 1):
        for _ in range(_HEISENBERG_PER_N):
            a = np.exp(rng.uniform(-1.0, 1.0, size=n))
            b = np.exp(rng.uniform(-1.0, 1.0, size=n))
            c = float(np.exp(rng.uniform(-1.0, 1.0)))
            out.append((n, *heisenberg_params(n, a, b, c)))
    return out


def run_selftest_per_sample(seed):
    """The suite with one metric at a time through ``MetricLieAlgebra`` and the
    per-direction spinorial loop: the reference for the stacked ``run_selftest``."""
    checks = [
        _check("clifford_relations_nupto6", max(relations_dense(n)[1] for n in range(1, 7)), 1e-12),
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
            closed_dev = np.maximum(closed_dev, family_deviations(fam, p.matrix, a_solved, c))
            dirac_dev = max(dirac_dev, abs(float(np.trace(a_solved)) - dirac_trace_3d(c)))
            if is_symmetric_family(fam):
                ric = curvature(nm, mla)
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
    for n, a, b, c in _heisenberg_sweep([seed, 3]):
        a_solved, _ = solve_endomorphism(heisenberg_metric(n, a, b, c), Spinor.one(n))
        lam_vals, mu = heisenberg_spectrum(a, b, c)
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


def test_equivariance_bases_combine_bit_for_bit():
    # exact products summed in pair order: the same deviation as the spin_lift route,
    # to the last bit, whatever BLAS adds the matmul
    for seed in range(1, 51):
        assert _equivariance([seed, 1]) == equivariance_stacked([seed, 1]), seed
    rng = np.random.default_rng(5)
    for n in range(1, _EQUIVARIANCE_N_MAX + 1):
        mod = get_module(n)
        d, s = mod.dim_frame, mod.dim_spinor
        b, a, lifts, actions = _dense_bases(mod)
        assert all(not arr.flags.writeable for arr in (b, a, lifts, actions))
        a_ref, b_ref, skew = elementary_skews(d)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(b, b_ref)
        g = rng.uniform(-1.0, 1.0, size=(d, d))
        np.testing.assert_array_equal(np.tensordot((g - g.T)[b, a], skew, 1), g - g.T)
        lifts, actions = (x.view(complex).reshape(-1, s, s).swapaxes(-1, -2) for x in (lifts, actions))
        assert len(lifts) == d * (d - 1) // 2 and len(actions) == d
        for k, e_ba in enumerate(skew):
            np.testing.assert_array_equal(lifts[k], mod.spin_lift(e_ba))
        for i in range(d):
            np.testing.assert_array_equal(actions[i], mod.vector_matrix(i + 1))


def test_equivariance_bases_follow_the_module_cache(clifford_sign_fault):
    # the dense bases are keyed on the module, so emptying the module cache alone
    # brings a fault in and takes it out again
    clean = _equivariance([1, 1])
    assert clean <= 1e-12
    with clifford_sign_fault():
        assert _equivariance([1, 1]) > 1.0
    assert _equivariance([1, 1]) == clean


def test_catalog_jacobi_checks_the_cached_grid_algebras_on_every_call(monkeypatch):
    checked = []
    check = selftest.check_jacobi

    def recording(alg, *args):
        checked.append(alg)
        return check(alg, *args)

    monkeypatch.setattr(selftest, "check_jacobi", recording)
    for _ in range(2):
        checked.clear()
        assert _catalog_jacobi() == 0.0
        grid = [alg.c for alg in checked[: len(FAMILY_GRID)]]
        np.testing.assert_array_equal(grid, [make_bianchi(fam).c for fam in family_grid()])
        assert [alg.dim for alg in checked[len(FAMILY_GRID) :]] == [3, 5, 7, 9]


def test_run_selftest_builds_one_ricci_stack_per_grid_pass(monkeypatch):
    # the spinorial identity on both basis spinors and the closed-form Ricci check
    # read the same curvature stack
    from spinlab import connection

    calls = []

    def counting(nm, mla):
        calls.append(nm.shape)
        return curvature(nm, mla)

    monkeypatch.setattr(connection, "curvature", counting)
    monkeypatch.setattr(selftest, "curvature", counting)
    assert selftest.run_selftest(seed=4)["all_pass"]
    assert calls == [(13, 20, 3, 3, 3)]


def test_stacked_selftest_matches_per_sample_suite():
    for seed in range(1, 6):
        stacked = run_selftest(seed=seed)["checks"]
        reference = run_selftest_per_sample(seed)
        assert [c["name"] for c in stacked] == [c["name"] for c in reference]
        for got, want in zip(stacked, reference):
            assert got["tol"] == want["tol"] and got["pass"] == want["pass"] is True, got
            assert abs(got["deviation"] - want["deviation"]) <= 1e-15, (seed, got, want)


def test_ladder_draws_each_rung_in_one_call_with_the_per_metric_stream(monkeypatch):
    stacks, solve = [], selftest.solve_heisenberg

    def recording(a, b, c):
        stacks.append((a, b, c))
        return solve(a, b, c)

    monkeypatch.setattr(selftest, "solve_heisenberg", recording)
    for seed in (1, 2, 17, 1234567):
        stacks.clear()
        run_selftest(seed=seed)
        ladder = _heisenberg_sweep([seed, 3])
        assert [a.shape for a, _, _ in stacks] == [
            (1 + _HEISENBERG_PER_N, n) for n in range(1, _HEISENBERG_N_MAX + 1)
        ]
        for n, (a, b, c) in enumerate(stacks, start=1):
            rung = [abc for m, *abc in ladder if m == n]  # the default first, then the draws
            for k, got in enumerate((a, b, c[:, None])):
                want = np.array([np.atleast_1d(p[k]) for p in rung])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, n, "abc"[k])


def test_run_selftest_builds_no_per_metric_heisenberg_objects(monkeypatch):
    run_selftest(seed=1)  # per-process constants first
    built = {cls: 0 for cls in (algebra.LieAlgebra, algebra.MetricLieAlgebra)}
    for cls in built:
        def counting(self, cls=cls, post=cls.__post_init__):
            built[cls] += 1
            post(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for seed in (1, 2):
        built.update(dict.fromkeys(built, 0))
        run_selftest(seed=seed)
        # the only algebras are catalog_jacobi's H(3)..H(9), no metric object at all
        assert list(built.values()) == [4, 0], built
    catalog.heisenberg_metric(2)  # the counters do count
    assert list(built.values()) == [5, 1]


def verify_appendix_per_sample(samples, seed, tol):
    """One frame change, symmetry verdict and eigen analysis per sample: the
    reference for ``verify_appendix``'s single pass."""
    results = []
    for idx, (tag, x) in enumerate(FAMILY_GRID):
        fam = BianchiFamily(tag, x)
        expected_sym = is_symmetric_family(fam)
        frames = random_frames(3, np.random.default_rng([seed, idx]), samples)
        batch = sweep_frames(make_bianchi(fam), frames)
        devs = np.zeros(3)
        eigen_dev = None
        verdicts_ok = True
        for frame, ortho_c, a_solved in zip(frames, batch.ortho_c, batch.A):
            devs = np.maximum(devs, family_deviations(fam, frame, a_solved, ortho_c))
            verdicts_ok &= bool(gks._symmetric(a_solved, tol)) == expected_sym
            verdicts_ok &= symmetry_conditions_3d(ortho_c, tol) == expected_sym
            closed = reference_eigenvalues(fam, frame)
            if closed is not None:
                solved_vals, _ = eigen_analysis(a_solved)
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
        payload = verify_appendix(10, seed, 1e-9)
        assert payload == verify_appendix_per_sample(10, seed, 1e-9), seed
        assert payload["all_pass"] is True
        eigen = [r["max_eigenvalue_deviation"] is not None for r in payload["results"]]
        assert sum(eigen) == 3  # L3(1), L3(2,-1) and L3(4,0) have closed-form eigenvalues
    failing = verify_appendix(10, 3, 1e-300)
    assert failing == verify_appendix_per_sample(10, 3, 1e-300)
    assert not any(r["pass"] for r in failing["results"])


def test_eigen_analysis_runs_only_where_a_reducer_reads_eigenvalues(monkeypatch):
    # the sweep engine only solves: the selftest grid pass reads no eigenvalue,
    # verify_appendix reads those of the closed-form families in one call, and a one-pass
    # sweep counts its symmetric samples in one call.  The spy sits on gks._spectrum, the
    # eigenvalue step of both eigen_analysis and the _r_tally reducer, which judges
    # symmetry once a pass and so skips eigen_analysis's guard
    stacks, guarded, spectrum, analyse = [], [], gks._spectrum, gks.eigen_analysis

    def spy(a, *args, **kwargs):
        stacks.append(np.array(a))
        return spectrum(a, *args, **kwargs)

    def analyse_spy(a, *args, **kwargs):
        guarded.append(np.array(a))
        return analyse(a, *args, **kwargs)

    bound = [name for name, module in sorted(sys.modules.items())
             if name.startswith("spinlab") and getattr(module, "eigen_analysis", None) is analyse]
    assert {"spinlab.gks", "spinlab.selftest", "spinlab.cli"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "eigen_analysis", analyse_spy)
    monkeypatch.setattr(gks, "_spectrum", spy)
    run_selftest(seed=1)
    assert stacks == []
    verify_appendix(10, 1, 1e-9)
    closed = {idx: fam for idx, fam in enumerate(family_grid())
              if reference_eigenvalues(fam, np.eye(3)) is not None}
    assert [fam.label for fam in closed.values()] == ["L3(1)", "L3(2,-1)", "L3(4,0)"]
    want = [sweep_frames(make_bianchi(fam), random_frames(3, np.random.default_rng([1, idx]), 10)).A
            for idx, fam in closed.items()]
    assert len(stacks) == 1
    np.testing.assert_array_equal(stacks[0], want)
    stacks.clear()
    genericity_sweep(BianchiFamily("L3(6)"), 10, 1)
    assert len(stacks) == 1 and stacks[0].shape == (10, 3, 3)
    # a report keeps the guarded call: one eigen_analysis, on its own A
    guarded.clear()
    frame = FrameChange(np.array([[1.3, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    report = gks.full_report(metric_from_frame_change(make_bianchi(BianchiFamily("L3(6)")), frame))
    assert report.is_symmetric and len(guarded) == 1
    np.testing.assert_array_equal(guarded[0], report.A)


def test_closed_form_sweep_matches_per_family_sweeps():
    # both sides of the pass boundary, boundaries inside a same-tag run, and two
    # chunks a family; the reducer checks each chunk against its family's one draw
    fams = family_grid()
    for samples in GRID_SAMPLES:
        layout, done = [], [0] * len(fams)  # per family, the samples reduced so far

        def check(pass_fams, frames, batch, devs):
            layout.append((tuple(pass_fams), frames.shape[1]))
            for k, fam in enumerate(pass_fams):
                idx = fams.index(fam)
                chunk = np.s_[done[idx] : done[idx] + frames.shape[1]]
                done[idx] += frames.shape[1]
                want_frames = random_frames(3, np.random.default_rng([3, idx]), samples)[chunk]
                want = sweep_frames(make_bianchi(fam), want_frames)
                np.testing.assert_array_equal(frames[k], want_frames)
                for name, arr in vars(want).items():
                    np.testing.assert_array_equal(getattr(batch, name)[k], arr, err_msg=name)
                np.testing.assert_array_equal(
                    devs[k], family_deviations(fam, want_frames, want.A, want.ortho_c)
                )
            return np.array([[fams.index(fam), frames.shape[1]] for fam in pass_fams])

        rows = closed_form_sweep(3, samples, check)
        assert [(len(f), n) for f, n in layout] == grid_layout(samples)
        assert [fam for f, n in layout if n == layout[0][1] for fam in f] == fams
        assert done == [samples] * len(fams)
        # one row per family and chunk, in grid order: (families, chunks, k)
        chunks = [n for f, n in layout if f == layout[0][0]]
        assert rows.shape == (len(fams), len(chunks), 2)
        np.testing.assert_array_equal(rows[..., 0].T, [range(len(fams))] * len(chunks))
        np.testing.assert_array_equal(rows[..., 1], [chunks] * len(fams))


def test_verify_appendix_matches_per_sample_loop_across_split_runs():
    # eight families a pass: the pass boundary falls inside the L3(4,x) run
    samples = GRID_PASS_FRAMES // 8
    assert verify_appendix(samples, 2, 1e-9) == verify_appendix_per_sample(samples, 2, 1e-9)


def test_chunked_verify_appendix_matches_one_pass_of_every_frame(monkeypatch):
    # each family in chunks of 64, 64, 64 and 8 frames, against one pass of all 13 x 200
    # frames, at a passing and a failing tolerance
    for tol in (1e-9, 1e-300):
        monkeypatch.setattr(gks, "GRID_PASS_FRAMES", 64)
        chunked = verify_appendix(200, 5, tol)
        monkeypatch.setattr(gks, "GRID_PASS_FRAMES", 13 * 200)
        assert cli.to_json(chunked) == cli.to_json(verify_appendix(200, 5, tol))
        assert chunked["all_pass"] is (tol == 1e-9)


def test_a_nan_deviation_in_an_early_chunk_fails_its_family(monkeypatch):
    deviations, calls = selftest.closed_form_deviations, []

    def nan_in_first_chunk(fams, frames, a, ortho_c):
        devs = deviations(fams, frames, a, ortho_c)
        if not calls:
            devs[0, 0, 0] = np.nan  # family 0, first of its four chunks
        calls.append(frames.shape[1])
        return devs

    monkeypatch.setattr(selftest, "closed_form_deviations", nan_in_first_chunk)
    monkeypatch.setattr(gks, "GRID_PASS_FRAMES", 64)
    payload = verify_appendix(200, 5, 1e-9)
    assert calls[:4] == [64, 64, 64, 8]
    first, *rest = payload["results"]
    assert np.isnan(first["max_A_deviation"]) and first["pass"] is False
    assert all(r["pass"] for r in rest) and payload["all_pass"] is False


def test_sweep_peak_memory_does_not_grow_with_the_sample_count():
    # no pass holds more than GRID_PASS_FRAMES frames (about 4 MB of peak here); one
    # sweep_frames pass of 50,000 frames alone peaks near 50 MB
    fam = BianchiFamily("L3(6)")
    genericity_sweep(fam, 10, 1)  # build the per-process constants outside the trace
    verify_appendix(10, 1, 1e-9)
    runs = (lambda: genericity_sweep(fam, 50_000, 1), lambda: verify_appendix(10_000, 1, 1e-9))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, peak


def test_verify_appendix_command_formats_the_payload(capsys):
    for extra, code in (((), 0), (("--tol", "1e-300"), 2)):
        argv = ["verify-appendix", "--samples", "10", "--seed", "4", *extra]
        assert cli.main(argv) == code
        payload = verify_appendix(10, 4, float(extra[-1]) if extra else 1e-9)
        assert capsys.readouterr().out == cli.to_json(payload) + "\n"
        assert cli.main([*argv, "--format", "table"]) == code
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 2 + len(FAMILY_GRID)
        assert table[-1] == f"all_pass: {code == 0}"
