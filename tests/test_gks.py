import numpy as np
import pytest

from spinlab.algebra import (
    FrameChange,
    LieAlgebra,
    metric_from_frame_change,
    orthonormalize,
    random_frames,
)
from spinlab.catalog import (
    BianchiFamily,
    HeisenbergParams,
    heisenberg_gk_eigenvalues,
    heisenberg_metric,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
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


def unit_h3():
    return heisenberg_metric(HeisenbergParams(1, (1.0,), (1.0,), 1.0))


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
        params = HeisenbergParams.defaults(n)
        mla = heisenberg_metric(params)
        a, residual = solve_endomorphism(mla, Spinor.one(n))
        lam, mu = heisenberg_gk_eigenvalues(params)
        expected = np.diag([mu] + [v for lv in lam for v in (lv, lv)])
        np.testing.assert_allclose(a, expected, atol=1e-12)
        assert residual <= 1e-12
        _, distinct = eigen_analysis(a)
        assert distinct == n + 1


def test_heisenberg_ladder_random_parameters():
    rng = np.random.default_rng(2718)
    for n in range(1, 9):
        for _ in range(20):
            params = HeisenbergParams(
                n,
                tuple(np.exp(rng.uniform(-1, 1, size=n))),
                tuple(np.exp(rng.uniform(-1, 1, size=n))),
                float(np.exp(rng.uniform(-1, 1))),
            )
            a, residual = solve_endomorphism(heisenberg_metric(params), Spinor.one(n))
            lam, mu = heisenberg_gk_eigenvalues(params)
            expected = np.diag([mu] + [v for lv in lam for v in (lv, lv)])
            assert np.max(np.abs(a - expected)) <= 1e-10
            assert residual <= 1e-10


def test_solver_works_past_dense_operator_cutoff():
    # n = 9 (dim 19, spinor dimension 512) exceeds the dense-operator limit;
    # the matrix-free application path must still solve exactly
    params = HeisenbergParams.defaults(9)
    a, residual = solve_endomorphism(heisenberg_metric(params), Spinor.one(9))
    lam, mu = heisenberg_gk_eigenvalues(params)
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


def test_eigen_analysis():
    vals, r = eigen_analysis(np.diag([-0.25, 0.25, 0.25]))
    np.testing.assert_allclose(vals, [-0.25, 0.25, 0.25])
    assert r == 2
    _, p, mla = family_metric("L3(2,x)", x=-1.0)
    a, _ = solve_endomorphism(mla, Spinor.one(1))
    vals, r = eigen_analysis(a)
    np.testing.assert_allclose(vals, [-0.5, 0.0, 0.5], atol=1e-14)
    assert r == 3
    params = HeisenbergParams.defaults(4)
    a, _ = solve_endomorphism(heisenberg_metric(params), Spinor.one(4))
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
    mla = heisenberg_metric(HeisenbergParams.defaults(2))
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
        rhs = mod.apply_spin_lift(nm.mats[i], psi.coeffs)
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
        params = HeisenbergParams(
            n,
            tuple(np.exp(rng.uniform(-1, 1, size=n))),
            tuple(np.exp(rng.uniform(-1, 1, size=n))),
            float(np.exp(rng.uniform(-1, 1))),
        )
        mla = heisenberg_metric(params)
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


def test_unit_spinor_tensor_is_the_per_pair_lift():
    from spinlab.gks import _unit_spinor_tensors

    for n in (1, 2, 4):
        mod, psi = get_module(n), Spinor.one(n)
        d = mod.dim_frame
        m, w = _unit_spinor_tensors(mod)
        np.testing.assert_array_equal(m, mod.moment_matrix(psi))
        ref = np.zeros((2 * mod.dim_spinor, d, d))
        for a, b in zip(*np.triu_indices(d, 1)):
            skew = np.zeros((d, d))
            skew[b, a], skew[a, b] = 1.0, -1.0
            col = mod.apply_spin_lift(skew, psi.coeffs)
            ref[:, b, a] = np.concatenate([col.real, col.imag])
        np.testing.assert_array_equal(w, ref.reshape(-1, d * d))


def test_sweep_tensors_follow_the_module_cache(clifford_sign_fault):
    # the unit-spinor tensors are keyed on the module, so emptying the module
    # cache alone brings a fault in and takes it out again
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
        yield True, heisenberg_metric(HeisenbergParams.defaults(n)), Spinor.one(n)
    for n in range(1, 5):
        for _ in range(5):
            params = HeisenbergParams(
                n,
                tuple(np.exp(rng.uniform(-1, 1, size=n))),
                tuple(np.exp(rng.uniform(-1, 1, size=n))),
                float(np.exp(rng.uniform(-1, 1))),
            )
            coeffs = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            yield False, heisenberg_metric(params), Spinor(n, coeffs)


def _moment_and_rhs(mla, psi):
    mod = get_module(psi.n)
    nm = nomizu(mla)
    cols = np.column_stack(
        [mod.apply_spin_lift(nm.mats[i], psi.coeffs) for i in range(mla.dim)]
    )
    return mod.moment_matrix(psi), np.vstack([cols.real, cols.imag])


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
        params = HeisenbergParams(
            n,
            tuple(np.exp(rng.uniform(-1, 1, size=n))),
            tuple(np.exp(rng.uniform(-1, 1, size=n))),
            float(np.exp(rng.uniform(-1, 1))),
        )
        mla = heisenberg_metric(params)
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
        strict += get_module(psi.n).reachable_rows(psi.coeffs) is not None
    # a strict subset of the rows: the ladder and the basis spinors for n >= 3,
    # and the 3-entry spinor at n = 7
    assert strict == 6 + 4 * 5 + 1


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
    pa = FrameChange.from_entries(2.0, beta=0.9, gamma=-0.4, epsilon=0.3, zeta=0.8, iota=1.1)
    pb = FrameChange.from_entries(0.5, beta=-0.2, gamma=0.6, epsilon=1.7, zeta=-0.9, iota=1.1)
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
        "L3(1)", p=FrameChange.from_entries(2.0, beta=3.0, epsilon=1.0, iota=1.0)
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


def test_batched_sampler_reproduces_the_draw_order():
    for dim in (3, 5):
        for seed in (0, 1, [7, 2, 1]):
            frames = random_frames(dim, np.random.default_rng(seed), 40)
            rng = np.random.default_rng(seed)
            one_at_a_time = [FrameChange.random(dim, rng).matrix for _ in range(40)]
            rng = np.random.default_rng(seed)
            scalar = [_scalar_frame(dim, rng) for _ in range(40)]
            np.testing.assert_array_equal(frames, one_at_a_time)
            np.testing.assert_array_equal(frames, scalar)


def test_sweep_frames_matches_scalar_pipeline():
    rng = np.random.default_rng(606)
    algebras = [make_bianchi(BianchiFamily(tag, x)) for tag, x in FAMILY_GRID]
    for alg in algebras + [make_heisenberg(2)]:
        frames = random_frames(alg.dim, rng, 25)
        batch = sweep_frames(alg, frames)
        n = (alg.dim - 1) // 2
        for k, frame in enumerate(frames):
            mla = metric_from_frame_change(alg, FrameChange(frame))
            a, residual = solve_endomorphism(mla, Spinor.one(n))
            assert np.max(np.abs(batch.A[k] - a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(batch.ortho_c[k] - mla.ortho_c)) <= 1e-12 * max(
                1.0, np.max(np.abs(mla.ortho_c))
            )
            # in dimension 3 every frame direction is solved exactly
            assert abs(batch.solve_residual[k] - residual) <= 1e-12
            assert alg.dim > 3 or batch.solve_residual[k] <= 1e-12
            report = full_report(mla)
            assert batch.symmetric[k] == report.is_symmetric
            assert batch.distinct_count[k] == (report.distinct_count or 0)


def test_sweep_frames_keeps_the_orthonormality_guard():
    alg = make_bianchi(BianchiFamily("L3(6)"))
    bad = np.array([[1.0, 1e8, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidMetricError):
        metric_from_frame_change(alg, FrameChange(bad))
    frames = random_frames(3, np.random.default_rng(5), 6)
    frames[3] = bad
    with pytest.raises(InvalidMetricError):
        sweep_frames(alg, frames)


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


def table1_rows_per_family(samples, seed, gap_tol=1e-7, tol=1e-9):
    """Reference table: one ``genericity_sweep`` per ``(row, x)``, row by row."""
    rows = []
    for row_idx, (tag, xs, case) in enumerate(TABLE1_ROWS):
        stats = [
            genericity_sweep(BianchiFamily(tag, x), samples, [seed, row_idx, x_idx], gap_tol, tol)
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
# GRID_PASS_FRAMES // 13 samples), twelve per pass, and one family per pass
GRID_SAMPLES = (1, 10, GRID_PASS_FRAMES // 13, GRID_PASS_FRAMES // 13 + 1, GRID_PASS_FRAMES + 1)


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
            # each family's own stream, max(1, GRID_PASS_FRAMES // samples) families a pass
            per, fams = max(1, GRID_PASS_FRAMES // samples), len(FAMILY_GRID)
            assert [len(f) for f in passes] == [min(per, fams - i) for i in range(0, fams, per)]
            drawn = [
                random_frames(3, np.random.default_rng([seed, row, k]), samples)
                for row, (_, xs, _) in enumerate(TABLE1_ROWS)
                for k in range(len(xs))
            ]
            np.testing.assert_array_equal(np.concatenate(passes), drawn)
    # a loose tol splits the first row on both routes
    with pytest.raises(SpinlabError, match="L3\\(-1\\).*3 of 7 samples symmetric"):
        table1_rows(7, 1, 1e-7, 0.5)
    with pytest.raises(SpinlabError, match="L3\\(-1\\).*\\[3\\]"):
        table1_rows_per_family(7, 1, tol=0.5)


def test_family_stacked_sweep_matches_per_family_sweeps():
    algs = [make_bianchi(BianchiFamily(tag, x)) for tag, x in FAMILY_GRID]
    frames = random_frames(3, np.random.default_rng(12), 13 * 9).reshape(13, 9, 3, 3)
    batch = sweep_frames(np.stack([alg.c for alg in algs]), frames)
    assert batch.A.shape == (13, 9, 3, 3) and batch.distinct_count.shape == (13, 9)
    for f, alg in enumerate(algs):
        one = sweep_frames(alg, frames[f])
        for name, arr in vars(batch[f]).items():
            np.testing.assert_array_equal(arr, getattr(one, name), err_msg=name)


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
