import numpy as np
import pytest

from spinlab.algebra import (
    FrameChange,
    LieAlgebra,
    _frame_indices,
    frame_structure,
    metric_from_frame_change,
    orthonormalize,
    random_frames,
)
from spinlab.catalog import (
    BianchiFamily,
    heisenberg_metric,
    heisenberg_params,
    heisenberg_spectrum,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
    reference_ricci_3d,
)
from spinlab.clifford import Spinor, get_module
from spinlab.connection import nomizu
from spinlab.errors import (
    InvalidMetricError,
    SpinlabError,
    InvalidSpinorError,
    StructureError,
    UnsupportedDimensionError,
)
from spinlab import gks
from spinlab.gks import (
    FAMILY_GRID,
    GRID_PASS_FRAMES,
    TABLE1_ROWS,
    FrameSweep,
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    full_report,
    genericity_sweep,
    gk_equation_residual,
    solve_endomorphism,
    solve_symmetric_endomorphism,
    sweep_frames,
    symmetry_conditions_3d,
    table1_rows,
)
from spinlab.selftest import verify_appendix
from spinlab.serialize import to_json


def unit_h3():
    return heisenberg_metric(1, (1.0,), (1.0,), 1.0)


def family_metric(tag, x=None, seed=None, p=None):
    fam = BianchiFamily(tag, x)
    alg = make_bianchi(fam)
    if p is None:
        p = (
            FrameChange(np.eye(3))
            if seed is None
            else FrameChange.random(3, np.random.default_rng(seed))
        )
    return fam, p, metric_from_frame_change(alg, p)


def test_solve_h3_unit():
    a, residual = solve_endomorphism(unit_h3(), Spinor.one(1))
    np.testing.assert_allclose(a, np.diag([-0.25, 0.25, 0.25]), atol=1e-14)
    assert residual <= 1e-12


def test_solve_heisenberg_ladder():
    for n in (2, 3, 4):
        params = heisenberg_params(n)
        mla = heisenberg_metric(n, *params)
        a, residual = solve_endomorphism(mla, Spinor.one(n))
        lam, mu = heisenberg_spectrum(*params)
        expected = np.diag([mu] + [v for lv in lam for v in (lv, lv)])
        np.testing.assert_allclose(a, expected, atol=1e-12)
        assert residual <= 1e-12
        _, distinct = eigen_analysis(a)
        assert distinct == n + 1


def test_heisenberg_ladder_random_parameters():
    rng = np.random.default_rng(2718)
    for n in range(1, 9):
        for _ in range(20):
            params = heisenberg_params(
                n,
                np.exp(rng.uniform(-1, 1, size=n)),
                np.exp(rng.uniform(-1, 1, size=n)),
                float(np.exp(rng.uniform(-1, 1))),
            )
            a, residual = solve_endomorphism(heisenberg_metric(n, *params), Spinor.one(n))
            lam, mu = heisenberg_spectrum(*params)
            expected = np.diag([mu] + [v for lv in lam for v in (lv, lv)])
            assert np.max(np.abs(a - expected)) <= 1e-10
            assert residual <= 1e-10


def test_solver_works_past_dense_operator_cutoff():
    # n = 9 (dim 19, spinor dimension 512) exceeds the dense-operator limit;
    # the matrix-free application path must still solve exactly
    params = heisenberg_params(9)
    a, residual = solve_endomorphism(heisenberg_metric(9, *params), Spinor.one(9))
    lam, mu = heisenberg_spectrum(*params)
    expected = np.diag([mu] + [v for lv in lam for v in (lv, lv)])
    np.testing.assert_allclose(a, expected, atol=1e-12)
    assert residual <= 1e-12
    _, distinct = eigen_analysis(a)
    assert distinct == 10


def test_solve_l3_minus1_not_symmetric():
    _, _, mla = family_metric("L3(-1)")
    a, residual = solve_endomorphism(mla, Spinor.one(1))
    np.testing.assert_allclose(
        a, np.array([[0.0, 0, 0], [0, 0, 0], [-0.5, 0, 0]]), atol=1e-14
    )
    assert residual <= 1e-12
    assert np.max(np.abs(a - a.T)) == pytest.approx(0.5, abs=1e-14)


def test_solve_rejects_bad_spinors():
    mla = unit_h3()
    with pytest.raises(InvalidSpinorError):
        solve_endomorphism(mla, Spinor(1, np.zeros(2)))
    with pytest.raises(InvalidSpinorError):
        solve_endomorphism(mla, Spinor.one(2))


def test_even_dimension_rejected():
    alg = LieAlgebra(2, np.zeros((2, 2, 2)))
    mla = orthonormalize(alg, np.eye(2))
    with pytest.raises(UnsupportedDimensionError):
        full_report(mla)
    with pytest.raises(UnsupportedDimensionError):
        solve_endomorphism(mla, Spinor.one(1))


def test_explicit_A_spot_values():
    h3 = unit_h3()
    a = explicit_A_3d(h3.ortho_c)
    np.testing.assert_allclose(a, np.diag([-0.25, 0.25, 0.25]), atol=1e-15)
    assert np.trace(a) == pytest.approx(0.25)
    np.testing.assert_array_equal(explicit_A_3d(np.zeros((3, 3, 3))), np.zeros((3, 3)))
    l36 = make_bianchi(BianchiFamily("L3(6)"))
    np.testing.assert_allclose(explicit_A_3d(l36.c), 0.25 * np.eye(3), atol=1e-15)
    with pytest.raises(UnsupportedDimensionError):
        explicit_A_3d(np.zeros((5, 5, 5)))


def test_explicit_A_agrees_with_solver():
    rng = np.random.default_rng(97)
    for tag, x in [("L3(-1)", None), ("L3(2,x)", 0.5), ("L3(5)", None), ("L3(6)", None)]:
        alg = make_bianchi(BianchiFamily(tag, x))
        for _ in range(10):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            a, _ = solve_endomorphism(mla, Spinor.one(1))
            np.testing.assert_allclose(a, explicit_A_3d(mla.ortho_c), atol=1e-10)


def test_symmetry_conditions():
    assert symmetry_conditions_3d(unit_h3().ortho_c)
    _, _, mla = family_metric("L3(3)", seed=5)
    assert not symmetry_conditions_3d(mla.ortho_c)
    _, _, mla = family_metric("L3(2,x)", x=-1.0)
    assert symmetry_conditions_3d(mla.ortho_c)
    _, _, mla = family_metric("L3(2,x)", x=0.5)
    assert not symmetry_conditions_3d(mla.ortho_c)


def test_symmetry_conditions_match_matrix_symmetry():
    rng = np.random.default_rng(3)
    for fam_tag, x in [("L3(-1)", None), ("L3(1)", None), ("L3(2,x)", -1.0),
                       ("L3(2,x)", 1.0), ("L3(3)", None), ("L3(4,x)", 0.0),
                       ("L3(4,x)", 2.0), ("L3(5)", None), ("L3(6)", None)]:
        alg = make_bianchi(BianchiFamily(fam_tag, x))
        for _ in range(5):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            a = explicit_A_3d(mla.ortho_c)
            direct = np.max(np.abs(a - a.T)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
            assert symmetry_conditions_3d(mla.ortho_c) == direct


def test_stacked_symmetry_conditions_match_per_sample_calls():
    seen = set()
    for idx, (tag, x) in enumerate(FAMILY_GRID):
        frames = random_frames(3, np.random.default_rng([11, idx]), 20)
        oc = sweep_frames(make_bianchi(BianchiFamily(tag, x)), frames).ortho_c
        for tol in (1e-9, 1e-300, 1.0):
            stacked = symmetry_conditions_3d(oc, tol)
            assert stacked.shape == (20,) and stacked.dtype == bool
            per_sample = [symmetry_conditions_3d(c, tol) for c in oc]
            assert all(type(v) is bool for v in per_sample)
            assert stacked.tolist() == per_sample, (tag, x, tol)
            seen.update(per_sample)
    assert seen == {True, False}
    with pytest.raises(UnsupportedDimensionError):
        symmetry_conditions_3d(np.zeros((4, 3, 3)))


def test_3d_forms_refuse_every_other_shape():
    for form in (explicit_A_3d, symmetry_conditions_3d, dirac_trace_3d, reference_ricci_3d):
        for shape in ((5, 5, 5), (4, 3, 3, 2)):  # one metric of dimension 5, a stack of d = 2
            with pytest.raises(UnsupportedDimensionError, match="needs dimension 3"):
                form(np.ones(shape))


def test_eigen_analysis():
    vals, r = eigen_analysis(np.diag([-0.25, 0.25, 0.25]))
    np.testing.assert_allclose(vals, [-0.25, 0.25, 0.25])
    assert r == 2
    _, p, mla = family_metric("L3(2,x)", x=-1.0)
    a, _ = solve_endomorphism(mla, Spinor.one(1))
    vals, r = eigen_analysis(a)
    np.testing.assert_allclose(vals, [-0.5, 0.0, 0.5], atol=1e-14)
    assert r == 3
    a, _ = solve_endomorphism(heisenberg_metric(4), Spinor.one(4))
    _, r = eigen_analysis(a)
    assert r == 5
    with pytest.raises(StructureError):
        eigen_analysis(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_full_report_l31_random():
    fam, p, mla = family_metric("L3(1)", seed=42)
    report = full_report(mla)
    assert report.gks_space_dim == 2
    assert report.distinct_count == 2
    assert report.commutator_norm <= 1e-10
    assert report.basis_residual is not None and report.basis_residual <= 1e-10
    assert report.solve_residual <= 1e-12


def test_full_report_l33_zero_space():
    fam, p, mla = family_metric("L3(3)", seed=8)
    report = full_report(mla)
    assert report.gks_space_dim == 0
    assert not report.is_symmetric
    assert report.eigenvalues is None and report.distinct_count is None
    np.testing.assert_allclose(report.asymmetry, reference_asymmetry(fam, p.matrix), atol=1e-10)


def test_full_report_unit_h3():
    report = full_report(unit_h3())
    assert report.dirac_eigenvalue == pytest.approx(0.25, abs=1e-14)
    np.testing.assert_allclose(report.ricci, np.diag([0.5, -0.5, -0.5]), atol=1e-14)
    assert report.commutator_norm == 0.0
    assert report.gks_space_dim == 2


def test_basis_reverification_gates_the_space_dimension(monkeypatch):
    _, _, mla = family_metric("L3(1)", seed=42)
    assert full_report(mla).gks_space_dim == 2
    monkeypatch.setattr(gks, "gk_equation_residual", lambda *args, **kwargs: 1.0)
    report = full_report(mla)
    assert report.is_symmetric and report.solve_residual <= gks.DEFAULT_TOL
    assert report.basis_residual == 1.0
    assert report.gks_space_dim == 0


def test_full_report_higher_dim_reports_spinor_only():
    mla = heisenberg_metric(2)
    report = full_report(mla)
    assert report.gks_space_dim is None
    assert report.is_symmetric and report.solve_residual <= gks.DEFAULT_TOL
    assert report.distinct_count == 3
    d = report.to_dict()
    assert list(d.keys()) == [
        "A",
        "solve_residual",
        "symmetric",
        "asymmetry",
        "eigenvalues",
        "distinct_count",
        "dirac_eigenvalue",
        "ricci",
        "commutator_norm",
        "gks_space_dim",
    ]


def test_gk_equation_residual_both_basis_spinors():
    for tag, x in [("L3(1)", None), ("L3(2,x)", -1.0), ("L3(4,x)", 0.0),
                   ("L3(5)", None), ("L3(6)", None)]:
        fam, p, mla = family_metric(tag, x=x, seed=77)
        a, _ = solve_endomorphism(mla, Spinor.one(1))
        assert gk_equation_residual(mla, a, Spinor.one(1)) <= 1e-10
        assert gk_equation_residual(mla, a, Spinor.basis(1, 1)) <= 1e-10


def _per_column_gk_residual(mla, a, psi):
    """The Killing-equation misfit one column at a time on every spinor row,
    with ``apply_combo`` for ``A``: the reference for ``gk_equation_residual``."""
    mod = get_module(psi.n)
    nm = nomizu(mla)
    worst = 0.0
    for i in range(mla.dim):
        rhs = mod.apply_spin_lift(nm[i], psi.coeffs)
        lhs = mod.apply_combo(a[:, i], psi.coeffs)
        denom = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / denom)
    return worst


def test_gk_equation_residual_matches_per_column_reference():
    rng = np.random.default_rng(606)
    cases = []
    for tag, x in FAMILY_GRID:
        alg = make_bianchi(BianchiFamily(tag, x))
        mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
        cases += [(mla, Spinor.one(1)), (mla, Spinor.basis(1, 1))]
    for n in range(1, 7):
        mla = heisenberg_metric(
            n,
            np.exp(rng.uniform(-1, 1, size=n)),
            np.exp(rng.uniform(-1, 1, size=n)),
            float(np.exp(rng.uniform(-1, 1))),
        )
        dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        cases += [(mla, Spinor.one(n)), (mla, Spinor.basis(n, n)), (mla, Spinor(n, dense))]
    exact = 0
    for mla, psi in cases:
        solved, _ = solve_endomorphism(mla, Spinor.one(psi.n))
        for a in (solved, solved + rng.normal(size=solved.shape)):
            ref = _per_column_gk_residual(mla, a, psi)
            assert abs(gk_equation_residual(mla, a, psi) - ref) <= 1e-12 * max(1.0, ref)
            exact += ref <= 1e-12
    # the unit-spinor A solves every 3-d equation on both basis spinors
    # (symmetry is the further condition) and each ladder on its unit spinor,
    # and at n = 1 on all three spinors; every other case has a misfit
    assert exact == 2 * len(FAMILY_GRID) + 6 + 2
    with pytest.raises(InvalidSpinorError):
        gk_equation_residual(unit_h3(), np.eye(3), Spinor(1, np.zeros(2)))


def test_dual_map_is_the_exact_fit_of_the_basis_duals():
    # the sweep's A = C'.ravel() @ T rests on three exact facts about the nine basis duals
    basis = gks._from_dual(np.eye(9).reshape(9, 3, 3))
    _, misfit, residual = gks._fit(*gks._project(basis, Spinor.one(1), None))
    assert np.all(misfit == 0.0) and np.all(residual == 0.0)
    t = gks._dual_map()
    assert t.shape == (9, 9) and not t.flags.writeable
    assert set(t.ravel().tolist()) <= {0.0, 0.25, -0.25, -0.5}
    np.testing.assert_array_equal(t, explicit_A_3d(basis).reshape(9, 9))
    assert gks._dual_map() is t  # once per process
    with pytest.raises(ValueError, match="read-only"):
        t[0, 0] = 1.0


def test_sweep_tensors_follow_the_module_cache(clifford_sign_fault):
    # the dual map is built from the module on first use; the fault helper empties it
    # with the module cache, which brings a fault in and takes it out again
    alg = make_bianchi(BianchiFamily("L3(6)"))
    frames = random_frames(3, np.random.default_rng(6), 8)
    clean = sweep_frames(alg, frames).A
    with clifford_sign_fault():
        faulty = sweep_frames(alg, frames).A
    assert np.all(np.isfinite(faulty)) and not np.array_equal(faulty, clean)
    np.testing.assert_array_equal(sweep_frames(alg, frames).A, clean)


def test_symmetric_solve_certifies_obstruction():
    # symmetric family: constrained solve recovers the endomorphism
    _, _, mla = family_metric("L3(5)", seed=19)
    a, _ = solve_endomorphism(mla, Spinor.one(1))
    a_sym, residual = solve_symmetric_endomorphism(mla, Spinor.one(1))
    np.testing.assert_allclose(a_sym, a, atol=1e-10)
    assert residual <= 1e-10
    # non-symmetric family: misfit equals the Frobenius norm of the skew half
    _, _, mla = family_metric("L3(3)", seed=19)
    a, _ = solve_endomorphism(mla, Spinor.one(1))
    a_sym, residual = solve_symmetric_endomorphism(mla, Spinor.one(1))
    assert residual > 1e-3
    assert residual == pytest.approx(np.linalg.norm(0.5 * (a - a.T)), rel=1e-10)
    np.testing.assert_allclose(a_sym, 0.5 * (a + a.T), atol=1e-10)


def _oracle_inputs():
    """(exact GK spinor expected, metric, spinor) over the three oracle sets."""
    rng = np.random.default_rng(404)
    for tag, x in FAMILY_GRID:
        fam = BianchiFamily(tag, x)
        alg = make_bianchi(fam)
        for _ in range(5):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            yield is_symmetric_family(fam), mla, Spinor.one(1)
    for n in range(1, 9):
        yield True, heisenberg_metric(n), Spinor.one(n)
    for n in range(1, 5):
        for _ in range(5):
            mla = heisenberg_metric(
                n,
                np.exp(rng.uniform(-1, 1, size=n)),
                np.exp(rng.uniform(-1, 1, size=n)),
                float(np.exp(rng.uniform(-1, 1))),
            )
            coeffs = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            yield False, mla, Spinor(n, coeffs)


def _moment_and_rhs(mla, psi):
    """The Killing system realified on every row, real parts over imaginary parts: the
    real least-squares reference, independent of ``gks._fit``."""
    mod = get_module(psi.n)
    nm = nomizu(mla)
    cols = np.column_stack(
        [mod.apply_spin_lift(nm[i], psi.coeffs) for i in range(mla.dim)]
    )
    m = mod.moment_matrix(psi)
    return np.vstack([m.real, m.imag]), np.vstack([cols.real, cols.imag])


def _stacked_symmetric_lstsq(m, rhs):
    """Least-squares solve over symmetric matrices with all directions stacked."""
    rows, d = m.shape
    pairs = [(k, l) for k in range(d) for l in range(k, d)]
    big = np.zeros((rows * d, len(pairs)))
    for col, (k, l) in enumerate(pairs):
        for i in range(d):
            block = slice(rows * i, rows * (i + 1))
            if l == i:
                big[block, col] += m[:, k]
            if k == i and k != l:
                big[block, col] += m[:, l]
    target = rhs.T.ravel()
    sol = np.linalg.lstsq(big, target, rcond=None)[0]
    a_sym = np.zeros((d, d))
    for col, (k, l) in enumerate(pairs):
        a_sym[k, l] = a_sym[l, k] = sol[col]
    return a_sym, float(np.linalg.norm(big @ sol - target))


def test_projection_matches_least_squares_oracle():
    for exact, mla, psi in _oracle_inputs():
        m, rhs = _moment_and_rhs(mla, psi)
        ref = np.linalg.lstsq(m, rhs, rcond=None)[0]
        a, residual = solve_endomorphism(mla, psi)
        assert np.max(np.abs(a - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        col_res = np.linalg.norm(m @ ref - rhs, axis=0)
        ref_res = np.max(col_res / np.maximum(1.0, np.linalg.norm(rhs, axis=0)))
        assert abs(residual - ref_res) <= 1e-12
        if exact:
            assert residual <= 1e-12


def test_symmetric_projection_matches_stacked_least_squares():
    for _, mla, psi in _oracle_inputs():
        m, rhs = _moment_and_rhs(mla, psi)
        ref, ref_res = _stacked_symmetric_lstsq(m, rhs)
        a_sym, residual = solve_symmetric_endomorphism(mla, psi)
        assert np.max(np.abs(a_sym - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        assert abs(residual - ref_res) <= 1e-12 * max(1.0, ref_res)


def _dense_project(mla, psi):
    """The projection on all ``2**(n+1)`` realified rows: the reference for the
    reachable-row solve of ``solve_endomorphism`` and ``solve_symmetric_endomorphism``."""
    m, rhs = _moment_and_rhs(mla, psi)
    norm2 = psi.norm**2
    a = m.T @ rhs / norm2
    return a, rhs, m @ a - rhs, norm2


def _basis_spinor_inputs():
    """(metric, spinor) with basis spinors of nonzero mask and sparse spinors."""
    rng = np.random.default_rng(505)
    for tag, x in FAMILY_GRID:
        alg = make_bianchi(BianchiFamily(tag, x))
        mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
        yield mla, Spinor.basis(1, 1)
    for n in range(1, 8):
        mla = heisenberg_metric(
            n,
            np.exp(rng.uniform(-1, 1, size=n)),
            np.exp(rng.uniform(-1, 1, size=n)),
            float(np.exp(rng.uniform(-1, 1))),
        )
        for slots in ((1,), (n,), tuple(range(1, n + 1)), tuple(range(1, n + 1, 2))):
            yield mla, Spinor.basis(n, *sorted(set(slots)))
        coeffs = np.zeros(2**n, dtype=complex)
        picks = rng.choice(2**n, size=min(3, 2**n), replace=False)
        coeffs[picks] = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
        yield mla, Spinor(n, coeffs)


def test_reachable_row_projection_matches_dense_projection():
    strict = 0
    cases = [(mla, psi) for _, mla, psi in _oracle_inputs()] + list(_basis_spinor_inputs())
    for mla, psi in cases:
        ref, rhs, misfit, norm2 = _dense_project(mla, psi)
        scale = max(1.0, np.max(np.abs(ref)))
        a, residual = solve_endomorphism(mla, psi)
        assert np.max(np.abs(a - ref)) <= 1e-12 * scale
        col_res = np.linalg.norm(misfit, axis=0)
        ref_res = np.max(col_res / np.maximum(1.0, np.linalg.norm(rhs, axis=0)))
        assert abs(residual - ref_res) <= 1e-12
        a_sym, sym_res = solve_symmetric_endomorphism(mla, psi)
        skew = 0.5 * (ref - ref.T)
        ref_sym_res = np.sqrt(np.sum(misfit**2) + norm2 * np.sum(skew**2))
        assert np.max(np.abs(a_sym - 0.5 * (ref + ref.T))) <= 1e-12 * scale
        assert abs(sym_res - ref_sym_res) <= 1e-12 * max(1.0, ref_sym_res)
        strict += get_module(psi.n).reachable_rows(psi) is not None
    # a strict subset of the rows: the ladder and the basis spinors for n >= 3,
    # and the 3-entry spinor at n = 7
    assert strict == 6 + 4 * 5 + 1


def _stacked_projection_cases():
    """(metrics, spinor): a Heisenberg stack per n = 1..7, with the unit spinor, two
    basis spinors and a sparse complex one, and a 3-d stack over the grid families."""
    rng = np.random.default_rng(1515)
    for n in range(1, 8):
        params = [heisenberg_params(n)] + [
            heisenberg_params(
                n,
                np.exp(rng.uniform(-1, 1, size=n)),
                np.exp(rng.uniform(-1, 1, size=n)),
                float(np.exp(rng.uniform(-1, 1))),
            )
            for _ in range(4)
        ]
        mlas = [heisenberg_metric(n, *p) for p in params]
        coeffs = np.zeros(2**n, dtype=complex)
        picks = rng.choice(2**n, size=min(3, 2**n), replace=False)
        coeffs[picks] = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
        for psi in (Spinor.one(n), Spinor.basis(n, 1), Spinor.basis(n, *range(1, n + 1)),
                    Spinor(n, coeffs)):
            yield mlas, psi
    mlas = [
        metric_from_frame_change(make_bianchi(BianchiFamily(tag, x)), FrameChange.random(3, rng))
        for tag, x in FAMILY_GRID
        for _ in range(3)
    ]
    for psi in (Spinor.one(1), Spinor.basis(1, 1), Spinor(1, np.array([0.6 - 0.3j, -0.2 + 0.7j]))):
        yield mlas, psi


def test_stacked_projection_matches_per_metric_solves():
    strict = 0
    for mlas, psi in _stacked_projection_cases():
        stack = np.stack([mla.ortho_c for mla in mlas])
        a, residual = solve_endomorphism(stack, psi)
        d = mlas[0].dim
        assert a.shape == (len(mlas), d, d) and residual.shape == (len(mlas),)
        for k, mla in enumerate(mlas):
            ref, ref_res = solve_endomorphism(mla, psi)
            assert type(ref_res) is float
            assert a[k].tobytes() == ref.tobytes(), (d, k)
            assert residual[k] == ref_res, (d, k)
            one, one_res = solve_endomorphism(mla.ortho_c, psi)  # one metric's constants
            assert type(one_res) is float and one_res == ref_res
            assert one.tobytes() == ref.tobytes(), (d, k)
        strict += get_module(psi.n).reachable_rows(psi) is not None
    # a strict subset of the rows for n >= 3, except the 3-entry spinor below n = 7;
    # every row for n <= 2 and for the 3-d stack
    assert strict == 3 * 5 + 1


def test_asymmetry_matches_table_and_ignores_most_of_the_frame():
    rng = np.random.default_rng(55)
    for tag, x in [("L3(-1)", None), ("L3(2,x)", 0.5), ("L3(3)", None), ("L3(4,x)", 1.5)]:
        fam = BianchiFamily(tag, x)
        alg = make_bianchi(fam)
        for _ in range(10):
            p = FrameChange.random(3, rng)
            mla = metric_from_frame_change(alg, p)
            a, _ = solve_endomorphism(mla, Spinor.one(1))
            np.testing.assert_allclose(
                a - a.T, reference_asymmetry(fam, p.matrix), atol=1e-10
            )
    # sharper independence statement: same iota, everything else different
    fam = BianchiFamily("L3(4,x)", 1.5)
    alg = make_bianchi(fam)
    pa = FrameChange(np.array([[2.0, 0.9, -0.4], [0.0, 0.3, 0.8], [0.0, 0.0, 1.1]]))
    pb = FrameChange(np.array([[0.5, -0.2, 0.6], [0.0, 1.7, -0.9], [0.0, 0.0, 1.1]]))
    aa, _ = solve_endomorphism(metric_from_frame_change(alg, pa), Spinor.one(1))
    ab, _ = solve_endomorphism(metric_from_frame_change(alg, pb), Spinor.one(1))
    np.testing.assert_allclose(aa - aa.T, ab - ab.T, atol=1e-12)


def test_dirac_trace_identity():
    rng = np.random.default_rng(23)
    for tag, x in [("L3(-1)", None), ("L3(2,x)", -1.0), ("L3(5)", None), ("L3(6)", None)]:
        alg = make_bianchi(BianchiFamily(tag, x))
        for _ in range(10):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            a, _ = solve_endomorphism(mla, Spinor.one(1))
            assert abs(np.trace(a) - dirac_trace_3d(mla.ortho_c)) <= 1e-12


def test_solver_matches_reference_A():
    rng = np.random.default_rng(31)
    for tag, x in [("L3(-1)", None), ("L3(1)", None), ("L3(2,x)", -0.5),
                   ("L3(3)", None), ("L3(4,x)", 0.5), ("L3(5)", None), ("L3(6)", None)]:
        fam = BianchiFamily(tag, x)
        alg = make_bianchi(fam)
        for _ in range(10):
            p = FrameChange.random(3, rng)
            mla = metric_from_frame_change(alg, p)
            a, _ = solve_endomorphism(mla, Spinor.one(1))
            ref = reference_A(fam, p.matrix)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(a - ref)) <= 1e-9 * scale


def test_frame_change_example_downstream_A():
    # alpha=2, beta=3, epsilon=iota=1 gives det(P)/(4 alpha^2) = 1/8
    fam, p, mla = family_metric(
        "L3(1)", p=FrameChange(np.array([[2.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    )
    a, _ = solve_endomorphism(mla, Spinor.one(1))
    np.testing.assert_allclose(a, np.diag([-0.125, 0.125, 0.125]), atol=1e-14)


def _scalar_frame(dim, rng):
    """The frame sampler drawn one scalar at a time: diagonal, then row-major."""
    m = np.diag(np.exp(rng.uniform(-1.0, 1.0, size=dim)))
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i, j] = rng.uniform(-1.0, 1.0)
    return m


def _fresh_index_frames(dim, rng, count):
    """``random_frames`` with its index arrays built afresh on every draw."""
    draws = rng.uniform(-1.0, 1.0, size=(count, dim + dim * (dim - 1) // 2))
    frames = np.zeros((count, dim, dim))
    frames[:, np.arange(dim), np.arange(dim)] = np.exp(draws[:, :dim])
    rows, cols = np.triu_indices(dim, 1)
    frames[:, rows, cols] = draws[:, dim:]
    return frames


def test_batched_sampler_reproduces_the_draw_order():
    for dim in (3, 5, 33):
        for seed in (0, 1, [7, 2, 1]):
            frames = random_frames(dim, np.random.default_rng(seed), 40)
            rng = np.random.default_rng(seed)
            one_at_a_time = [FrameChange.random(dim, rng).matrix for _ in range(40)]
            rng = np.random.default_rng(seed)
            scalar = [_scalar_frame(dim, rng) for _ in range(40)]
            fresh = _fresh_index_frames(dim, np.random.default_rng(seed), 40)
            np.testing.assert_array_equal(frames, one_at_a_time)
            np.testing.assert_array_equal(frames, scalar)
            np.testing.assert_array_equal(frames, fresh)


def test_sampler_index_arrays_are_read_only_and_unchanged_by_use():
    for dim in (3, 5, 33):
        random_frames(dim, np.random.default_rng(dim), 7)
        diag, rows, cols = _frame_indices(dim)
        assert _frame_indices(dim)[0] is diag  # built once per dim
        np.testing.assert_array_equal(diag, np.arange(dim))
        np.testing.assert_array_equal(np.stack([rows, cols]), np.triu_indices(dim, 1))
        for idx in (diag, rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 1


def test_sweep_frames_matches_scalar_pipeline():
    rng = np.random.default_rng(606)
    for tag, x in FAMILY_GRID:
        alg = make_bianchi(BianchiFamily(tag, x))
        frames = random_frames(3, rng, 25)
        batch = sweep_frames(alg, frames)
        counts = []
        for k, frame in enumerate(frames):
            mla = metric_from_frame_change(alg, FrameChange(frame))
            a, residual = solve_endomorphism(mla, Spinor.one(1))
            assert np.max(np.abs(batch.A[k] - a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(batch.ortho_c[k] - mla.ortho_c)) <= 1e-12 * max(
                1.0, np.max(np.abs(mla.ortho_c))
            )
            assert residual <= 1e-12  # in dimension 3 every frame direction is solved exactly
            # the verdicts a reducer takes from the solve: _symmetric, then eigen_analysis
            report = full_report(mla)
            symmetric, distinct = _verdicts(batch.A[k : k + 1])
            assert symmetric[0] == report.is_symmetric
            assert distinct[0] == (report.distinct_count or 0)
            counts.append(report.distinct_count or 0)
        # the r tally of genericity_sweep and table1_rows, bins 0..3
        one_pass = FrameSweep(batch.dual[None], batch.A[None])  # (1, N) arrays
        tally = gks._r_tally(1e-9, 1e-7)(None, frames[None], one_pass)[0]
        assert tally.tolist() == np.bincount(counts, minlength=4).tolist()
    with pytest.raises(UnsupportedDimensionError, match="frame sweep needs dimension 3"):
        sweep_frames(make_heisenberg(2), random_frames(5, rng, 2))


def test_stacked_solve_matches_per_metric_solves_in_dimension_5():
    # the d = 5 stack goes through frame_structure and one solve_endomorphism call
    alg, rng = make_heisenberg(2), np.random.default_rng(606)
    frames = random_frames(5, rng, 25)
    _, ortho_c = frame_structure(alg, frames)
    a, residual = solve_endomorphism(ortho_c, Spinor.one(2))
    assert a.shape == (25, 5, 5) and residual.shape == (25,)
    for k, frame in enumerate(frames):
        mla = metric_from_frame_change(alg, FrameChange(frame))
        a_k, residual_k = solve_endomorphism(mla, Spinor.one(2))
        assert np.max(np.abs(a[k] - a_k)) <= 1e-12 * max(1.0, np.max(np.abs(a_k)))
        assert np.max(np.abs(ortho_c[k] - mla.ortho_c)) <= 1e-12 * max(
            1.0, np.max(np.abs(mla.ortho_c))
        )
        assert abs(residual[k] - residual_k) <= 1e-12
        report = full_report(mla)
        symmetric, distinct = _verdicts(a[k : k + 1])
        assert symmetric[0] == report.is_symmetric
        assert distinct[0] == (report.distinct_count or 0)


def _wide_frames(rng, n):
    """Upper-triangular frames further from the identity than ``random_frames``: diagonal
    log-uniform on ``[e^-2, e^2]``, upper entries uniform on ``[-3, 3]``."""
    frames = np.zeros((n, 3, 3))
    frames[:, range(3), range(3)] = np.exp(rng.uniform(-2.0, 2.0, (n, 3)))
    frames[:, (0, 0, 1), (1, 2, 2)] = rng.uniform(-3.0, 3.0, (n, 3))
    return frames


def test_dual_kernel_matches_frame_structure():
    # the closed inverse and the dual product against the per-index contraction, per sample
    rng, cs = np.random.default_rng(2024), gks._grid_stack()[2]
    antisym = rng.uniform(-2.0, 2.0, (40, 3, 3, 3))
    stacks = [(cs, random_frames(3, rng, 13 * 200).reshape(13, 200, 3, 3)),
              (antisym - antisym.swapaxes(1, 2), random_frames(3, rng, 2000).reshape(40, 50, 3, 3))]
    for c, frames in stacks:
        batch = sweep_frames(c, frames)
        _, want = frame_structure(c[:, None], frames)
        scale = np.max(np.abs(want), axis=(-3, -2, -1))
        assert np.all(np.max(np.abs(batch.ortho_c - want), axis=(-3, -2, -1)) <= 1e-14 * scale)
        diag = batch.ortho_c[..., range(3), range(3), :]
        assert np.all(diag == 0.0) and not np.any(np.signbit(diag))  # +0.0, not 0 * negative
        np.testing.assert_array_equal(batch.ortho_c, -batch.ortho_c.swapaxes(-3, -2))
        a, _ = solve_endomorphism(want, Spinor.one(1))
        a_scale = np.max(np.abs(a), axis=(-2, -1))
        assert np.all(np.max(np.abs(batch.A - a), axis=(-2, -1)) <= 1e-14 * a_scale)


def test_sweep_A_is_exactly_symmetric_where_the_dual_is():
    # a unimodular algebra has a symmetric dual C; its A is symmetric to the last bit
    rng = np.random.default_rng(31)
    sym = rng.uniform(-2.0, 2.0, (20, 3, 3))
    duals = [sym + sym.swapaxes(-1, -2)] + [
        make_bianchi(BianchiFamily(tag, x)).c[(1, 2, 0), (2, 0, 1), :][None]
        for tag, x in FAMILY_GRID if is_symmetric_family(BianchiFamily(tag, x))]
    for dual in duals:
        frames = _wide_frames(rng, len(dual) * 30).reshape(len(dual), 30, 3, 3)
        a = sweep_frames(gks._from_dual(dual), frames).A
        np.testing.assert_array_equal(a, a.swapaxes(-1, -2))
        assert np.all(gks._symmetric(a, 1e-300))


def test_sweep_frames_keeps_the_orthonormality_guard():
    alg = make_bianchi(BianchiFamily("L3(6)"))
    bad = np.array([[1.0, 1e8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidMetricError):
        metric_from_frame_change(alg, FrameChange(bad))
    frames = random_frames(3, np.random.default_rng(5), 6)
    frames[3] = bad
    with pytest.raises(InvalidMetricError):
        sweep_frames(alg, frames)


def test_sweep_frames_refuses_a_frame_with_a_lower_entry():
    # the closed inverse reads the upper triangle only; the guard catches the rest
    alg = make_bianchi(BianchiFamily("L3(6)"))
    frames = random_frames(3, np.random.default_rng(5), 6)
    frames[2, 2, 0] = 0.5
    with pytest.raises(InvalidMetricError, match="frame is not gram-orthonormal"):
        sweep_frames(alg, frames)


def test_frame_sweep_scatters_ortho_c_from_the_dual_on_first_read():
    cs = gks._grid_stack()[2]
    frames = random_frames(3, np.random.default_rng(8), 13 * 6).reshape(13, 6, 3, 3)
    batch = sweep_frames(cs, frames)
    assert batch.dual.shape == (13, 6, 3, 3) and "ortho_c" not in vars(batch)
    oc = batch.ortho_c
    assert batch.ortho_c is oc  # kept after the first read
    want = gks._from_dual(batch.dual)
    assert oc.shape == (13, 6, 3, 3, 3) and oc.tobytes() == want.tobytes()  # bit for bit


def test_r_sweeps_never_scatter_ortho_c_and_verify_appendix_scatters_once_a_pass(monkeypatch):
    calls, scatter = [], gks._from_dual
    monkeypatch.setattr(gks, "_from_dual", lambda dual: calls.append(dual.shape) or scatter(dual))
    table1_rows(10, 1, 1e-7, 1e-9)
    for name in ("L3(6)", "L3(2,0.25)"):  # a grid member and a family off the grid
        genericity_sweep(BianchiFamily.parse(name), GRID_PASS_FRAMES + 3, 2)
    assert calls == []
    verify_appendix(20, 1, 1e-9)  # one pass of 13 families, whose ortho_c two reducers read
    assert calls == [(13, 20, 3, 3)]
    calls.clear()
    verify_appendix(400, 1, 1e-9)  # ten families, then three
    assert calls == [(10, 400, 3, 3), (3, 400, 3, 3)]


def test_r_tally_skips_the_spectrum_of_a_pass_with_no_symmetric_sample(monkeypatch):
    calls, spectrum = [], gks._spectrum
    monkeypatch.setattr(
        gks, "_spectrum", lambda a, gap_tol: calls.append(len(a)) or spectrum(a, gap_tol)
    )
    stats = genericity_sweep(BianchiFamily("L3(3)"), 30, 4)
    assert calls == [] and stats["symmetric_count"] == 0 and stats["modal_r"] is None
    stats = genericity_sweep(BianchiFamily("L3(6)"), 30, 4)
    assert calls == [30] and stats["symmetric_count"] == 30


def test_full_report_refuses_a_non_finite_nomizu_map():
    # the overflow of L3(4,1e308) makes every Nomizu entry NaN; the report stops before
    # any spin lift, as the CLI's errstate lets it
    with np.errstate(all="ignore"):
        mla = orthonormalize(make_bianchi(BianchiFamily("L3(4,x)", 1e308)), np.eye(3))
        assert np.isnan(nomizu(mla)).all()
        with pytest.raises(StructureError, match="Nomizu map is not finite: the structure"):
            full_report(mla)


def _verdicts(a, tol=1e-9, gap_tol=1e-7):
    """Per entry of an ``A`` stack: the ``_symmetric`` verdict at ``tol`` and the distinct
    count of ``eigen_analysis``, 0 where ``A`` is not symmetric."""
    symmetric = gks._symmetric(a, tol)
    distinct = np.zeros(symmetric.shape, dtype=int)
    distinct[symmetric] = eigen_analysis(a[symmetric], gap_tol, sym_tol=tol)[1]
    return symmetric, distinct


def _per_sample_genericity_sweep(family, samples, seed, gap_tol=1e-7, tol=1e-9):
    """Reference sweep: one ``full_report`` per drawn frame change."""
    alg = make_bianchi(family)
    rng = np.random.default_rng(seed)
    r_counts: dict[int, int] = {}
    symmetric_count = 0
    for _ in range(samples):
        p = FrameChange.random(3, rng)
        report = full_report(metric_from_frame_change(alg, p), tol=tol, gap_tol=gap_tol)
        if report.is_symmetric:
            symmetric_count += 1
            r = int(report.distinct_count)
            r_counts[r] = r_counts.get(r, 0) + 1
    below = sum(cnt for r, cnt in r_counts.items() if r < 3)
    modal_r = max(r_counts, key=lambda r: (r_counts[r], r)) if r_counts else None
    return {
        "family": family.label,
        "samples": samples,
        "symmetric_count": symmetric_count,
        "modal_r": modal_r,
        "r_counts": {str(r): r_counts[r] for r in sorted(r_counts)},
        "fraction_r_lt_3": below / symmetric_count if symmetric_count else None,
    }


def test_genericity_sweep_matches_per_sample_loop():
    # the configurations of the sweep tests here and in the CLI tests, then
    # every grid family over the seeds those tests use
    cases = [
        (BianchiFamily("L3(6)"), 100, 7),
        (BianchiFamily("L3(1)"), 100, 1),
        (BianchiFamily("L3(3)"), 50, 2),
        (BianchiFamily("L3(1)"), 50, 4),
        (BianchiFamily("L3(5)"), 20, 6),
        (BianchiFamily("L3(6)"), 25, 9),
        (BianchiFamily("L3(6)"), 20, 11),
    ]
    cases += [
        (BianchiFamily(tag, x), 15, seed)
        for tag, x in FAMILY_GRID
        for seed in (1, 2, 4, 6, 7, 9, 11, [3, 5, 0])
    ]
    for fam, samples, seed in cases:
        assert genericity_sweep(fam, samples, seed) == _per_sample_genericity_sweep(
            fam, samples, seed
        ), (fam.label, seed)


def genericity_sweep_one_draw(family, samples, seed, gap_tol=1e-7, tol=1e-9):
    """The unchunked reference for ``genericity_sweep``: one ``random_frames`` draw and
    one ``sweep_frames`` pass of every sample, tallied by a sorting ``np.unique``."""
    frames = random_frames(3, np.random.default_rng(seed), samples)
    batch = sweep_frames(make_bianchi(family), frames)
    symmetric, distinct = _verdicts(batch.A, tol, gap_tol)
    stats = _unique_r_stats(distinct, symmetric)
    return {"family": family.label, "samples": samples, **stats}


def test_chunked_genericity_sweep_matches_the_unchunked_reference():
    # no frames, one pass, one pass and a 1-frame chunk, and two full chunks and a
    # 5-frame chunk
    for samples in (0, GRID_PASS_FRAMES, GRID_PASS_FRAMES + 1, 2 * GRID_PASS_FRAMES + 5):
        for fam, seed in ((BianchiFamily("L3(6)"), 3), (BianchiFamily("L3(4,x)", 0.0), [2, 7])):
            got = to_json(genericity_sweep(fam, samples, seed))
            assert got == to_json(genericity_sweep_one_draw(fam, samples, seed)), (samples, fam)


def test_sweep_of_a_grid_member_reuses_the_cached_grid_constants(monkeypatch):
    # every grid family, as the CLI parses it, takes its cached row of _grid_stack;
    # L3(4,-0), equal to L3(4,0) but with -0.0 constants, and families off the grid
    # still build theirs with make_bianchi
    names = [fam.label for fam in gks._grid_stack()[0]] + ["L3(4,-0)", "L3(2,1)", "L3(2,0.25)"]
    built, make = [], gks.make_bianchi
    monkeypatch.setattr(gks, "make_bianchi", lambda fam: built.append(fam.label) or make(fam))
    for name in names:
        fam = BianchiFamily.parse(name)
        got = to_json(genericity_sweep(fam, 40, [5, 1]))
        assert got == to_json(genericity_sweep_one_draw(fam, 40, [5, 1])), name
    assert built == ["L3(4,-0)", "L3(2,0.25)"]


def grid_layout(samples):
    """``(families, frames)`` of each ``sweep_frames`` pass of a ``FAMILY_GRID`` sweep:
    ``max(1, GRID_PASS_FRAMES // samples)`` whole families a pass up to
    ``GRID_PASS_FRAMES`` samples, past that one family a pass in chunks."""
    assert samples <= 2 * GRID_PASS_FRAMES
    per, fams = max(1, GRID_PASS_FRAMES // samples), len(FAMILY_GRID)
    chunks = [samples]
    if samples > GRID_PASS_FRAMES:
        chunks = [GRID_PASS_FRAMES, samples - GRID_PASS_FRAMES]
    return [(min(per, fams - i), n) for i in range(0, fams, per) for n in chunks]


def table1_rows_per_family(samples, seed, gap_tol=1e-7, tol=1e-9):
    """Reference table: one unchunked sweep per ``(row, x)``, row by row."""
    rows = []
    for row_idx, (tag, xs, case) in enumerate(TABLE1_ROWS):
        stats = [
            genericity_sweep_one_draw(
                BianchiFamily(tag, x), samples, [seed, row_idx, x_idx], gap_tol, tol
            )
            for x_idx, x in enumerate(xs)
        ]
        sym_counts = [st["symmetric_count"] for st in stats]
        modal_rs = [st["modal_r"] for st in stats]
        r = degenerate = None
        if all(c == samples for c in sym_counts):
            gk_dim = 2
            assert len(set(modal_rs)) == 1
            r = modal_rs[0]
            below = sum(c for st in stats for k, c in st["r_counts"].items() if int(k) < r)
            degenerate = below / sum(sym_counts)
        elif all(c == 0 for c in sym_counts):
            gk_dim = 0
        else:
            raise SpinlabError(f"row {tag} ({case}) splits: {sym_counts}")
        rows.append(
            {
                "family": tag,
                "case": case,
                "gk_dim": gk_dim,
                "r": r,
                "degenerate_fraction": degenerate,
            }
        )
    return rows


# both sides of the pass boundary: every family in one pass (1, 10 and
# GRID_PASS_FRAMES // 13 samples), twelve per pass, eight per pass (the boundary
# splits the L3(4,x) run), four per pass (it splits L3(2,x)), and one per pass in
# two chunks
GRID_SAMPLES = (
    1,
    10,
    GRID_PASS_FRAMES // 13,
    GRID_PASS_FRAMES // 13 + 1,
    GRID_PASS_FRAMES // 8,
    GRID_PASS_FRAMES // 4,
    GRID_PASS_FRAMES + 1,
)


def test_table1_grid_pass_matches_per_family_sweeps(monkeypatch):
    passes = []
    per_pass = gks.sweep_frames

    def recording(c, frames, *args):
        passes.append(frames)
        return per_pass(c, frames, *args)

    for samples in GRID_SAMPLES:
        for seed in (1, 5):
            monkeypatch.setattr(gks, "sweep_frames", recording)
            passes.clear()
            grid = table1_rows(samples, seed, 1e-7, 1e-9)
            monkeypatch.setattr(gks, "sweep_frames", per_pass)
            assert grid == table1_rows_per_family(samples, seed), (samples, seed)
            # the table hardly depends on the frames, so check the draws themselves:
            # each family's own stream, in the passes and chunks of grid_layout
            assert [f.shape[:2] for f in passes] == grid_layout(samples)
            drawn = [
                random_frames(3, np.random.default_rng([seed, row, k]), samples)
                for row, (_, xs, _) in enumerate(TABLE1_ROWS)
                for k in range(len(xs))
            ]
            # a family runs in chunks only when it has a pass to itself, so the passes
            # flattened in order hold every family's frames in grid order
            got = np.concatenate([f.reshape(-1, 3, 3) for f in passes])
            np.testing.assert_array_equal(got, np.concatenate(drawn))
    # a loose tol splits the first row on both routes
    with pytest.raises(SpinlabError, match="L3\\(-1\\).*3 of 7 samples symmetric"):
        table1_rows(7, 1, 1e-7, 0.5)
    with pytest.raises(SpinlabError, match="L3\\(-1\\).*\\[3\\]"):
        table1_rows_per_family(7, 1, tol=0.5)


def test_family_stacked_sweep_matches_per_family_sweeps():
    algs = [make_bianchi(BianchiFamily(tag, x)) for tag, x in FAMILY_GRID]
    frames = random_frames(3, np.random.default_rng(12), 13 * 9).reshape(13, 9, 3, 3)
    batch = sweep_frames(np.stack([alg.c for alg in algs]), frames)
    assert batch.A.shape == (13, 9, 3, 3) and batch.ortho_c.shape == (13, 9, 3, 3, 3)
    for f, alg in enumerate(algs):
        one = sweep_frames(alg, frames[f])
        for name, arr in vars(one).items():
            np.testing.assert_array_equal(getattr(batch, name)[f], arr, err_msg=name)


def _unique_r_stats(distinct, symmetric):
    """The r statistics of ``genericity_sweep`` through a sorting ``np.unique``."""
    rs, counts = np.unique(distinct[symmetric], return_counts=True)
    r_counts = {int(r): int(cnt) for r, cnt in zip(rs, counts)}
    total = int(np.count_nonzero(symmetric))
    return {
        "symmetric_count": total,
        "modal_r": max(r_counts, key=lambda r: (r_counts[r], r)) if r_counts else None,
        "r_counts": {str(r): r_counts[r] for r in sorted(r_counts)},
        "fraction_r_lt_3": sum(c for r, c in r_counts.items() if r < 3) / total if total else None,
    }


# row r - 1: the spectrum of a diagonal A with r distinct eigenvalues; _SKEW breaks symmetry
_SPECTRA = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
_SKEW = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _r_tally_of(distinct, symmetric):
    """The ``_r_tally`` row of a hand-built one-family ``FrameSweep``: per sample a diagonal
    ``A`` with ``distinct`` distinct eigenvalues, plus ``_SKEW`` where not ``symmetric``."""
    n = len(distinct)
    a = np.zeros((n, 3, 3))
    a[:, range(3), range(3)] = _SPECTRA[np.maximum(distinct, 1) - 1]
    a[~symmetric] += _SKEW
    batch = FrameSweep(np.zeros((1, n, 3, 3)), a[None])
    reduce = gks._r_tally(1e-9, 1e-7)
    return reduce((BianchiFamily("L3(6)"),), np.zeros((1, n, 3, 3)), batch)[0]


def _chunked_r_tally(distinct, symmetric):
    """The ``_r_tally`` row of a hand-built sweep, tallied as two chunks and summed as
    ``genericity_sweep`` and ``table1_rows`` sum the chunks of a family."""
    half = len(distinct) // 2
    parts = (np.s_[:half], np.s_[half:])
    tally = sum(_r_tally_of(distinct[part], symmetric[part]) for part in parts)
    np.testing.assert_array_equal(tally, _r_tally_of(distinct, symmetric))
    return tally


def test_r_summary_matches_a_unique_tally_on_hand_built_tallies():
    cases = [
        ([0, 0, 0], [False, False, False]),  # no symmetric sample
        ([1, 1, 3, 3], [True] * 4),  # a gap in r, and a tie
        ([2, 3, 3, 2, 1], [True] * 5),  # a tie of r = 2 and r = 3: the larger r wins
        ([3, 2, 2, 3], [True] * 4),  # the same tie alone
        ([1, 2, 1, 2, 3], [True] * 5),  # a tie of r = 1 and r = 2 below a lone r = 3
        ([3, 1, 2, 3, 2, 3, 1], [True] * 7),  # drawn out of order
        ([3, 3, 1, 2, 2], [True, False, True, False, True]),
        ([2, 3, 3], [True, False, False]),  # one symmetric sample
        ([], []),
    ]
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(0, 30))
        cases.append((rng.integers(1, 4, size=n), rng.random(n) < 0.7))
    cases = [(np.asarray(d, dtype=int), np.asarray(s, dtype=bool)) for d, s in cases]
    # one block, as table1_rows sums its grid, and row by row, as genericity_sweep does
    block = gks._r_summary(np.stack([_chunked_r_tally(d, s) for d, s in cases]))
    samples, symmetric, modal_r, below = block
    for k, (distinct, sym) in enumerate(cases):
        row = gks._r_summary(_chunked_r_tally(distinct, sym)[None])
        assert [col[0] for col in row] == [col[k] for col in block]
        want = _unique_r_stats(distinct, sym)
        r_counts = {int(r): cnt for r, cnt in want["r_counts"].items()}
        assert samples[k] == len(distinct)
        assert symmetric[k] == want["symmetric_count"]
        assert modal_r[k] == want["modal_r"]
        assert below[k] == sum(cnt for r, cnt in r_counts.items() if r < (modal_r[k] or 0))
    assert all(type(v) is int for col in (samples, symmetric, below) for v in col)
    assert modal_r[:9] == [None, 3, 3, 3, 2, 3, 3, 2, None]
    assert below[:9] == [0, 2, 3, 2, 2, 4, 2, 0, 0]


def test_grid_stack_is_built_once_read_only_and_unchanged_by_use():
    fams, algs, cs = gks._grid_stack()
    assert list(fams) == [BianchiFamily(tag, x) for tag, x in FAMILY_GRID]
    want = np.stack([make_bianchi(fam).c for fam in fams])
    assert cs.shape == (len(FAMILY_GRID), 3, 3, 3)
    np.testing.assert_array_equal(cs, want)
    for arr in (cs, algs[0].c, cs[2:5]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 1.0
    table1_rows(10, 3, 1e-7, 1e-9)
    genericity_sweep(fams[0], 5, 1)
    again = gks._grid_stack()
    assert again[2] is cs and all(a is b for a, b in zip(again[1], algs))
    np.testing.assert_array_equal(cs, want)


def test_genericity_sweep_l36():
    stats = genericity_sweep(BianchiFamily("L3(6)"), 100, seed=7)
    assert stats["symmetric_count"] == 100
    assert stats["fraction_r_lt_3"] == 0.0
    assert stats["r_counts"] == {"3": 100}
    assert stats["modal_r"] == 3


def test_genericity_sweep_l31_always_two():
    stats = genericity_sweep(BianchiFamily("L3(1)"), 100, seed=1)
    assert stats["r_counts"] == {"2": 100}


def test_genericity_sweep_non_symmetric_family():
    stats = genericity_sweep(BianchiFamily("L3(3)"), 50, seed=2)
    assert stats["symmetric_count"] == 0
    assert stats["fraction_r_lt_3"] is None
    assert stats["modal_r"] is None


def test_degenerate_point_detected():
    # the identity frame on the x = 0 member of the fourth family is a
    # measure-zero point with a double eigenvalue
    _, _, mla = family_metric("L3(4,x)", x=0.0)
    report = full_report(mla)
    assert report.is_symmetric
    assert report.distinct_count == 2
    np.testing.assert_allclose(sorted(report.eigenvalues), [0.0, 0.0, 0.5], atol=1e-12)


def test_h33_report_memory_stays_off_the_spinor_size():
    # the module keeps only tables of the 137 rows the unit spinor reaches,
    # not 2n+1 tables of 2**16 rows each (about 52 MB)
    import tracemalloc

    from spinlab import clifford
    from spinlab.serialize import metric_from_obj

    mla = metric_from_obj(make_heisenberg(16), "identity")
    clifford.get_module.cache_clear()
    tracemalloc.start()
    try:
        clifford.CliffordModule(16)
        full_report(mla)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6 and retained <= 4e6, (peak, retained)
