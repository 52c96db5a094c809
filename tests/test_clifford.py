import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab import cli, clifford
from spinlab.catalog import make_heisenberg
from spinlab.clifford import (
    MAX_SLOTS,
    CliffordModule,
    Spinor,
    _product,
    check_slots,
    cliff_relations_check,
    get_module,
    module_for_dim,
)
from spinlab.errors import (
    InvalidOperatorError,
    InvalidSpinorError,
    UnsupportedDimensionError,
)


def test_spinor_constructors():
    one = Spinor.one(2)
    assert one.coeffs[0] == 1.0 and np.count_nonzero(one.coeffs) == 1
    y1 = Spinor.basis(2, 1)
    assert y1.coeffs[0b01] == 1.0
    y12 = Spinor.basis(2, 1, 2)
    assert y12.coeffs[0b11] == 1.0
    assert Spinor(3, np.zeros(8)).norm == 0.0
    assert Spinor(1, [3.0, 4.0]).norm == pytest.approx(5.0)
    with pytest.raises(InvalidSpinorError):
        Spinor(2, [1.0, 0.0])
    with pytest.raises(InvalidSpinorError):
        Spinor.basis(2, 3)
    with pytest.raises(InvalidSpinorError):
        Spinor.basis(2, 1, 1)


def test_spinors_compare_and_hash_by_identity():
    # an array field has no one-bool ==, so equality is identity and no call raises
    psi = Spinor.one(2)
    assert psi == psi and not psi != psi
    assert psi != Spinor.one(2) and Spinor(1, [1.0, 0.0]) != Spinor(1, [1.0, 0.0])
    assert isinstance(hash(Spinor.one(1)), int)
    assert len({Spinor.one(1)}) == 1 and len({psi, psi, Spinor.one(2)}) == 2


def test_unit_and_basis_spinors_match_the_dense_construction():
    # built in place, they equal a copied dense vector bit for bit, are
    # read-only, and know their support without a scan
    for n in range(1, 17):
        for psi, mask in [(Spinor.one(n), 0)] + [
            (Spinor.basis(n, p), 1 << (p - 1)) for p in range(1, n + 1)
        ]:
            dense = np.zeros(2**n, dtype=complex)
            dense[mask] = 1.0
            ref = Spinor(n, dense)
            assert psi.n == n and psi.coeffs.tobytes() == ref.coeffs.tobytes()
            assert psi.coeffs.dtype == complex and not psi.coeffs.flags.writeable
            with pytest.raises(ValueError):
                psi.coeffs[mask] = 2.0
            assert psi.support.dtype == np.int64 and psi.support.tolist() == [mask]
            assert ref.support.tolist() == [mask] and psi.norm == ref.norm == 1.0
    psi = Spinor.basis(5, 2, 4, 5)
    assert psi.support.tolist() == [0b11010] == np.flatnonzero(psi.coeffs).tolist()
    coeffs = np.array([0.0, 1j, 0.0, -2.0])
    psi = Spinor(2, coeffs)
    coeffs[0] = 7.0  # the caller's array is copied
    assert psi.support.tolist() == [1, 3] and psi.norm == np.sqrt(5.0)


def test_unit_spinor_report_path_holds_one_coefficient_vector():
    # building the unit spinor at n = 16, its norm and its reachable rows
    # allocate the 1 MiB zero vector once: no copy of it, no scan of it
    import tracemalloc

    tracemalloc.start()
    try:
        psi = Spinor.one(16)
        assert psi.norm == 1.0
        assert len(get_module(16).reachable_rows(psi)) == 137
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20, peak


def test_vector_action_spot_values_n1():
    mod = get_module(1)
    one = Spinor.one(1)
    y1 = Spinor.basis(1, 1)
    np.testing.assert_array_equal(mod.apply_vector(1, one.coeffs), [1j, 0])
    np.testing.assert_array_equal(mod.apply_vector(2, one.coeffs), [0, 1j])
    np.testing.assert_array_equal(mod.apply_vector(3, one.coeffs), [0, 1])
    np.testing.assert_array_equal(mod.apply_vector(3, y1.coeffs), [-1, 0])
    np.testing.assert_array_equal(mod.apply_vector(1, y1.coeffs), [0, -1j])
    np.testing.assert_array_equal(mod.apply_vector(2, y1.coeffs), [1j, 0])


def test_koszul_signs_n2():
    # wedging slot 1 into {2} keeps the sign, annihilating slot 2 from
    # {1, 2} crosses slot 1 and flips it
    mod = get_module(2)
    y2 = np.zeros(4, dtype=complex)
    y2[0b10] = 1.0
    out = mod.apply_vector(3, y2)  # e_3 = wedge slot 1 - contract slot 1
    np.testing.assert_array_equal(out, [0, 0, 0, 1.0])
    y12 = np.zeros(4, dtype=complex)
    y12[0b11] = 1.0
    out = mod.apply_vector(4, y12)  # e_4 = i (contract slot 2 + wedge slot 2)
    np.testing.assert_array_equal(out, [0, -1j, 0, 0])


def test_index_out_of_range():
    mod = get_module(1)
    with pytest.raises(IndexError):
        mod.apply_vector(0, Spinor.one(1).coeffs)
    with pytest.raises(IndexError):
        mod.apply_vector(4, Spinor.one(1).coeffs)


def test_parity_squares_to_minus_identity():
    for n in (1, 2, 3):
        mod = get_module(n)
        e1 = mod.vector_matrix(1)
        np.testing.assert_array_equal(e1 @ e1, -np.eye(2**n))


def test_clifford_relations():
    for n in range(1, 5):
        ok, violation = cliff_relations_check(n)
        assert ok
        assert violation <= 1e-12


def test_clifford_relations_negative_control(broken_clifford_sign):
    ok, violation = cliff_relations_check(2)
    assert not ok
    assert violation >= 1.0


def relations_dense(n):
    """``(ok, worst)`` of the anticommutators of the dense frame matrices, one
    pair at a time: the loop ``cliff_relations_check`` replaces."""
    mod = get_module(n)
    mats = [mod.vector_matrix(i) for i in range(1, mod.dim_frame + 1)]
    eye = np.eye(mod.dim_spinor)
    worst = 0.0
    for i, mi in enumerate(mats):
        for j in range(i, len(mats)):
            mj = mats[j]
            anti = mi @ mj + mj @ mi
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
    return worst <= 1e-12, worst


def relations_one_pass(n):
    """``cliff_relations_check`` as one ``(d, d, 2**n)`` pass, for sizes past the dense limit."""
    frames = np.arange(2 * n + 1)
    coef = _product(frames[:, None, None], frames[:, None], np.arange(2**n))[1]
    worst = float(np.max(np.abs(coef + coef.swapaxes(0, 1) + 2.0 * np.eye(2 * n + 1)[..., None])))
    return worst <= 1e-12, worst


def test_relations_check_matches_dense_reference(clifford_sign_fault):
    # the product rule gives exactly the dense products' verdict and worst entry,
    # clean and with every contraction sign negated; n = 9 takes two passes
    for fault in (contextlib.nullcontext, clifford_sign_fault):
        with fault():
            for n in range(1, 7):
                assert cliff_relations_check(n) == relations_dense(n), n
            assert cliff_relations_check(9) == relations_one_pass(9)
    assert cliff_relations_check(6) == (True, 0.0)
    with clifford_sign_fault():
        assert cliff_relations_check(6) == (False, 4.0)
    with pytest.raises(UnsupportedDimensionError, match="spinor module needs n >= 1, got 0"):
        cliff_relations_check(0)
    with pytest.raises(UnsupportedDimensionError, match="spinors with 17 slots"):
        cliff_relations_check(MAX_SLOTS + 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_every_frame_vector_squares_to_minus_one(data, n):
    i = data.draw(st.integers(1, 2 * n + 1))
    mod = CliffordModule(n)
    rng = np.random.default_rng(n * 31 + i)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    twice = mod.apply_vector(i, mod.apply_vector(i, vec))
    np.testing.assert_allclose(twice, -vec, atol=1e-14)


def test_spin_lift_zero_and_validation():
    mod = get_module(2)
    np.testing.assert_array_equal(mod.spin_lift(np.zeros((5, 5))), np.zeros((4, 4)))
    with pytest.raises(InvalidOperatorError):
        mod.spin_lift(np.eye(5))
    with pytest.raises(InvalidOperatorError):
        mod.spin_lift(np.zeros((3, 3)))


def test_module_for_dim_is_the_one_odd_dimension_lookup():
    from spinlab.connection import ricci_spinorial_check

    for n in (1, 2, 5):
        assert module_for_dim(2 * n + 1) is get_module(n)
    message = "invariant-spinor analysis needs odd dimension, got 4"
    with pytest.raises(UnsupportedDimensionError, match=message):
        module_for_dim(4)
    # a one-dimensional frame is named by its dimension, not by a slot count of 0
    for dim in (1, -1):
        with pytest.raises(UnsupportedDimensionError, match=f"dimension at least 3, got {dim}$"):
            module_for_dim(dim)
    # its callers refuse an even frame with its message
    with pytest.raises(UnsupportedDimensionError, match=message):
        ricci_spinorial_check(np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), Spinor.one(1))


def test_spin_lift_ef_plane():
    # minus half the (e2, e3) rotation generator acts on the unit spinor by
    # -(i/4)
    omega = np.zeros((3, 3))
    omega[2, 1] = -0.5
    omega[1, 2] = 0.5
    lift = module_for_dim(3).spin_lift(omega)
    np.testing.assert_allclose(lift @ Spinor.one(1).coeffs, [-0.25j, 0.0], atol=1e-15)


def test_equivariance_spot_value():
    # [lift(e1 ^ e2), e1 . ] acting on 1 equals e2 . 1 = i y1
    mod = get_module(1)
    omega = np.zeros((3, 3))
    omega[1, 0] = 1.0
    omega[0, 1] = -1.0
    lift = mod.spin_lift(omega)
    e1 = mod.vector_matrix(1)
    comm = lift @ e1 - e1 @ lift
    np.testing.assert_allclose(comm @ Spinor.one(1).coeffs, [0.0, 1j], atol=1e-15)


def test_equivariance_random():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        mod = get_module(n)
        d = mod.dim_frame
        mats = [mod.vector_matrix(i) for i in range(1, d + 1)]
        for _ in range(20):
            g = rng.uniform(-1, 1, size=(d, d))
            omega = g - g.T
            v = rng.uniform(-1, 1, size=d)
            lift = mod.spin_lift(omega)
            ev = sum(v[i] * mats[i] for i in range(d))
            target = omega @ v
            et = sum(target[i] * mats[i] for i in range(d))
            assert np.max(np.abs(lift @ ev - ev @ lift - et)) <= 1e-12


def test_moment_matrix_full_rank_and_isometry():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        mod = get_module(n)
        d = mod.dim_frame
        for _ in range(5):
            psi = Spinor(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
            m = mod.moment_matrix(psi)
            assert m.dtype == complex and m.shape == (2**n, d)
            # full rank over real frame vectors
            assert np.linalg.matrix_rank(np.vstack([m.real, m.imag])) == d
            # v -> v . psi scales norms by |psi|
            np.testing.assert_allclose(
                (m.conj().T @ m).real, psi.norm**2 * np.eye(d), atol=1e-12 * psi.norm**2
            )


def test_apply_combo_matches_matrix_sum():
    rng = np.random.default_rng(13)
    mod = get_module(3)
    v = rng.normal(size=7)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    direct = mod.apply_combo(v, vec)
    mats = sum(v[i] * mod.vector_matrix(i + 1) for i in range(7))
    np.testing.assert_allclose(direct, mats @ vec, atol=1e-14)


def _add_at_spin_lift(mod, omega):
    """Dense lift accumulated entry by entry from the signed permutations."""
    out = np.zeros((mod.dim_spinor, mod.dim_spinor), dtype=complex)
    masks = np.arange(mod.dim_spinor)
    perm, phase, _ = mod._frames(None)
    for a in range(mod.dim_frame):
        pa, fa = perm[(a + 1) >> 1], phase[a]
        for b in range(a + 1, mod.dim_frame):
            w = omega[b, a]
            if w == 0.0:
                continue
            pb, fb = perm[(b + 1) >> 1], phase[b]
            # (e_a e_b psi)[S] = fa[S] fb[pa[S]] psi[pb[pa[S]]]
            np.add.at(out, (masks, pb[pa]), 0.5 * w * fa * fb[pa])
    return out


def test_dense_operators_match_add_at_reference():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        mod = get_module(n)
        d = mod.dim_frame
        for _ in range(3):
            g = rng.uniform(-1, 1, size=(d, d))
            g[rng.random(size=(d, d)) < 0.3] = 0.0
            omega = g - g.T
            np.testing.assert_array_equal(mod.spin_lift(omega), _add_at_spin_lift(mod, omega))
        perm, phase, _ = mod._frames(None)
        for i in range(1, d + 1):
            ref = np.zeros((mod.dim_spinor, mod.dim_spinor), dtype=complex)
            ref[np.arange(mod.dim_spinor), perm[i >> 1]] = phase[i - 1]
            np.testing.assert_array_equal(mod.vector_matrix(i), ref)


def test_actions_on_a_stack_match_per_spinor_calls():
    # a stack holds its spinors along the leading axes, the spinor axis last
    rng = np.random.default_rng(8)
    mod = get_module(3)
    d = mod.dim_frame
    stack = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    g = rng.uniform(-1, 1, size=(d, d))
    omega = g - g.T
    for i in range(1, d + 1):
        each = np.stack([mod.apply_vector(i, psi) for psi in stack])
        np.testing.assert_array_equal(mod.apply_vector(i, stack), each)
    each = np.stack([mod.apply_spin_lift(omega, psi) for psi in stack])
    np.testing.assert_array_equal(mod.apply_spin_lift(omega, stack), each)


def test_dense_operators_disabled_past_cutoff():
    mod = CliffordModule(9)
    with pytest.raises(UnsupportedDimensionError):
        mod.vector_matrix(1)
    with pytest.raises(UnsupportedDimensionError):
        mod.spin_lift(np.zeros((19, 19)))


def test_stacked_spin_lift_matches_per_matrix_calls():
    rng = np.random.default_rng(31)
    for n in range(1, 5):
        mod = get_module(n)
        d, size = mod.dim_frame, mod.dim_spinor
        g = rng.uniform(-1, 1, size=(4, 3, d, d))
        g[rng.random(size=g.shape) < 0.3] = 0.0
        g[..., 1, 0] = g[..., 0, 1] = 0.0  # a pair that is zero in every matrix
        omega = g - g.swapaxes(-1, -2)
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        pair = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
        per_entry = rng.normal(size=(4, 3, size)) + 1j * rng.normal(size=(4, 3, size))
        per_entry_pair = rng.normal(size=(4, 3, 2, size)) + 1j * rng.normal(size=(4, 3, 2, size))
        on_vec = mod.apply_spin_lift(omega, vec)
        # an axis of length one in the operator stack lifts each matrix onto both spinors
        on_pair = mod.apply_spin_lift(omega[..., None, :, :], pair)
        on_entries = mod.apply_spin_lift(omega, per_entry)
        on_entry_pairs = mod.apply_spin_lift(omega[..., None, :, :], per_entry_pair)
        dense = mod.spin_lift(omega)
        assert on_vec.shape == on_entries.shape == (4, 3, size)
        assert on_pair.shape == on_entry_pairs.shape == (4, 3, 2, size)
        assert dense.shape == (4, 3, size, size)
        for idx in np.ndindex(4, 3):
            np.testing.assert_array_equal(on_vec[idx], mod.apply_spin_lift(omega[idx], vec))
            np.testing.assert_array_equal(
                on_entries[idx], mod.apply_spin_lift(omega[idx], per_entry[idx])
            )
            for m in range(2):
                np.testing.assert_array_equal(
                    on_pair[idx][m], mod.apply_spin_lift(omega[idx], pair[m])
                )
                np.testing.assert_array_equal(
                    on_entry_pairs[idx][m], mod.apply_spin_lift(omega[idx], per_entry_pair[idx][m])
                )
            np.testing.assert_array_equal(dense[idx], mod.spin_lift(omega[idx]))
            np.testing.assert_array_equal(dense[idx], _add_at_spin_lift(mod, omega[idx]))
    with pytest.raises(InvalidOperatorError):
        mod.spin_lift(np.stack([omega[0, 0], np.eye(d)]))


def skew_verdict(omega) -> bool:
    """The skew rule on its own: a stack passes when ``omega^T == -omega`` in every
    entry (an exactly mirrored ``+-inf`` pair too), or when every entry is finite and
    every matrix has ``max|omega + omega^T| <= 1e-12 max(1, max|omega|)``."""
    omega = np.asarray(omega, dtype=float)
    if (omega.swapaxes(-1, -2) == -omega).all():
        return True
    if not np.isfinite(omega).all():
        return False
    scale = np.maximum(1.0, np.abs(omega).max(axis=(-2, -1)))
    defect = np.abs(omega + omega.swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool((defect <= 1e-12 * scale).all())


def test_single_matrix_skew_check_matches_the_stacked_check():
    mod = get_module(2)
    rng = np.random.default_rng(5)
    inputs = []
    for size in (0.3, 1.0, 40.0):
        base = rng.normal(size=(5, 5)) * size
        base = base - base.T
        scale = max(1.0, np.abs(base).max())
        for excess in (0.0, 0.5e-12, 0.99e-12, 1.01e-12, 2e-12, np.nan, np.inf):
            omega = base.copy()
            omega[1, 3] = -omega[3, 1] + excess * scale
            inputs.append((base, omega))
    # exactly skew inputs, whose defect omega + omega^T is zero or NaN in every entry
    zeros = np.zeros((5, 5))
    zeros[[0, 2, 4], [0, 2, 4]] = -0.0  # signed zeros on the diagonal
    zeros[1, 3], zeros[3, 1] = 0.0, -0.0  # and in a mirrored pair
    zeros[0, 4], zeros[4, 0] = -0.0, -0.0
    infinite, nan = base.copy(), base.copy()
    infinite[1, 3], infinite[3, 1] = np.inf, -np.inf
    nan[2, 4], nan[4, 2] = np.nan, np.nan
    nan_below, inf_diagonal = base.copy(), base.copy()
    nan_below[3, 1] = np.nan
    inf_diagonal[2, 2] = np.inf
    g = rng.normal(size=(7, 5, 5))
    stack = g - g.swapaxes(-1, -2)
    inputs += [(base, zeros), (base, infinite), (base, nan), (base, nan_below),
               (base, inf_diagonal), (stack[0], stack[1])]
    for base, omega in inputs:
        expected = skew_verdict(omega)
        verdicts = []
        for arg in (omega, omega[None], np.stack([base, omega]), np.stack([*stack, omega])):
            try:
                mod._require_skew(arg)  # this suite turns a RuntimeWarning into an error
            except InvalidOperatorError as exc:
                assert str(exc) == "spin lift requires a finite skew-symmetric matrix"
                verdicts.append(False)
                continue
            verdicts.append(True)
            with np.errstate(invalid="ignore"):  # inf times the zero imaginary part
                lifted = mod.apply_spin_lift(arg, np.ones(4))
            # a lift that passes is finite exactly when its matrices are
            assert np.isfinite(lifted).all() == np.isfinite(arg).all()
        assert verdicts == [expected] * 4, (omega, verdicts)
    # the near-threshold excesses split the verdicts; NaN and inf excesses are refused,
    # as are a NaN below the diagonal and an infinite diagonal entry, and only the
    # exactly mirrored +-inf pair passes among the non-finite inputs
    assert [skew_verdict(omega) for _, omega in inputs[:7]] == [True] * 3 + [False] * 4
    tail = [skew_verdict(omega) for _, omega in inputs[-6:]]
    assert tail == [True, True, False, False, False, True]


def test_non_finite_non_skew_matrices_do_not_lift():
    mod, psi = get_module(1), Spinor.one(1).coeffs
    for entries in (((0, 1), np.inf, (1, 0), 5.0), ((0, 1), np.nan, (1, 0), 5.0),
                    ((0, 1), 5.0, (1, 0), np.nan), ((2, 2), np.inf, (1, 0), 0.0),
                    ((0, 1), -np.inf, (1, 0), -np.inf)):
        w = np.zeros((3, 3))
        w[entries[0]], w[entries[2]] = entries[1], entries[3]
        with pytest.raises(InvalidOperatorError, match="finite skew-symmetric"):
            mod.apply_spin_lift(w, psi)
        with pytest.raises(InvalidOperatorError, match="finite skew-symmetric"):
            mod.apply_spin_lift(np.stack([np.zeros((3, 3)), w]), psi)
    # an exactly mirrored pair passes the skew check, and its lift is not finite
    w = np.zeros((3, 3))
    w[0, 1], w[1, 0] = -np.inf, np.inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(mod.apply_spin_lift(w, psi)).all()
    # the all-NaN Nomizu stack of L3(4,1e308) does not lift; full_report refuses that
    # stack before any lift, so the command line names the out-of-range input
    with pytest.raises(InvalidOperatorError, match="finite skew-symmetric"):
        mod.apply_spin_lift(np.full((3, 3, 3), np.nan), psi)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["analyze", "--algebra", "L3(4,1e308)"]) == 2
    assert err.getvalue() == (
        "error: Nomizu map is not finite: the structure constants are out of floating-point range\n"
    )


def test_actions_refuse_coefficients_and_frame_vectors_of_the_wrong_length():
    mod = get_module(2)
    psi = Spinor.one(2).coeffs
    g = np.random.default_rng(9).normal(size=(5, 5))
    omega = g - g.T
    for coeffs in (np.ones(6), np.ones(3), np.float64(1.0), np.ones((4, 3))):
        with pytest.raises(InvalidSpinorError, match="last axis of length 4"):
            mod.apply_vector(2, coeffs)
        with pytest.raises(InvalidSpinorError, match="last axis of length 4"):
            mod.apply_combo(np.ones(5), coeffs)
        with pytest.raises(InvalidSpinorError, match="last axis of length 4"):
            mod.apply_spin_lift(omega, coeffs)
    for v in ([1.0, 2.0], np.ones(7), np.ones((3, 4)), 1.0):
        with pytest.raises(InvalidOperatorError, match="last axis of length 5"):
            mod.apply_combo(v, psi)


def test_exactly_skew_stacks_skip_the_scaled_rule(monkeypatch):
    calls = []

    def recording(omega):
        calls.append(omega.shape)
        return original(omega)

    original = clifford._inexact_skew
    monkeypatch.setattr(clifford, "_inexact_skew", recording)
    mod = get_module(2)
    g = np.random.default_rng(8).normal(size=(4, 5, 5))
    mod.apply_spin_lift(g - g.swapaxes(-1, -2), np.ones(4))
    assert calls == []
    inexact = g - g.swapaxes(-1, -2)
    inexact[2, 1, 3] += 1e-14
    mod.apply_spin_lift(inexact, np.ones(4))  # within the scaled rule, so accepted
    assert calls == [(4, 5, 5)]
    # the commands whose lifts are Nomizu stacks and skew draws reach it never
    for argv in (["selftest"], ["heisenberg", "--n", "16"], ["analyze", "--algebra", "H(33)"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    assert calls == [(4, 5, 5)]


def test_stacked_vector_actions_match_per_entry_calls():
    rng = np.random.default_rng(12)
    mod = get_module(3)
    d, size = mod.dim_frame, mod.dim_spinor
    v = rng.normal(size=(5, d))
    v[:, 2] = 0.0
    v[1, 4] = 0.0
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    stacks = rng.normal(size=(2, 5, 3, size)) + 1j * rng.normal(size=(2, 5, 3, size))
    # v[k] acts on the three spinors of stacks[j, k]
    on_vec, on_stacks = mod.apply_combo(v, vec), mod.apply_combo(v[:, None], stacks)
    assert on_vec.shape == (5, size) and on_stacks.shape == (2, 5, 3, size)
    for k in range(5):
        np.testing.assert_array_equal(on_vec[k], mod.apply_combo(v[k], vec))
        for j in range(2):
            each = [mod.apply_combo(v[k], psi) for psi in stacks[j, k]]
            np.testing.assert_array_equal(on_stacks[j, k], np.stack(each))
    for i in range(1, d + 1):
        applied = mod.apply_vector(i, stacks)
        for idx in np.ndindex(2, 5, 3):
            np.testing.assert_array_equal(applied[idx], mod.apply_vector(i, stacks[idx]))


def _mask_rows(n, coeffs):
    """Rows reached from the nonzero coefficients by every flip mask, read off a
    scan of the coefficients: ``reachable_rows`` as it was before spinors knew
    their support."""
    size, flips = 2**n, [0] + [1 << p for p in range(n)]
    flips += [x | y for k, x in enumerate(flips[1:]) for y in flips[k + 2 :]]
    support = np.flatnonzero(coeffs)
    if len(flips) >= size or len(support) * len(flips) >= size:
        return None
    hit = np.zeros(size, dtype=bool)
    hit[np.bitwise_xor.outer(support, flips)] = True
    return np.flatnonzero(hit)


def test_actions_on_reachable_rows_match_full_actions():
    rng = np.random.default_rng(77)
    for n in range(1, 8):
        mod = get_module(n)
        d, size = mod.dim_frame, mod.dim_spinor
        # one or two entries, the largest support whose reached rows can miss
        # a row, one entry more, and every entry
        cut = size // (1 + n + n * (n - 1) // 2)
        for support in sorted({1, 2, max(1, cut), cut + 1, size}):
            coeffs = np.zeros(size, dtype=complex)
            picks = rng.choice(size, size=support, replace=False)
            coeffs[picks] = rng.normal(size=support) + 1j * rng.normal(size=support)
            psi = Spinor(n, coeffs)
            rows = mod.reachable_rows(psi)
            ref = _mask_rows(n, coeffs)
            assert (rows is None) == (ref is None)
            if rows is None:  # every row: the full actions themselves
                assert support * (1 + n + n * (n - 1) // 2) >= size
                continue
            assert np.all(np.diff(rows) > 0)
            outside = np.setdiff1d(np.arange(size), rows)
            g = rng.uniform(-1, 1, size=(3, d, d))
            omega = g - g.swapaxes(-1, -2)
            stack = np.stack([coeffs, 2 * coeffs])
            full = mod.apply_spin_lift(omega[0], stack)
            part = mod.apply_spin_lift(omega[0], stack, rows)
            np.testing.assert_array_equal(part, full[:, rows])
            np.testing.assert_array_equal(part[1], mod.apply_spin_lift(omega[0], 2 * coeffs, rows))
            full = mod.apply_spin_lift(omega, coeffs)
            part = mod.apply_spin_lift(omega, coeffs, rows)
            np.testing.assert_array_equal(part, full[..., rows])
            np.testing.assert_array_equal(full[..., outside], 0.0)
            _same_bits(rows, ref)
            for i in range(1, d + 1):
                np.testing.assert_array_equal(mod.apply_vector(i, coeffs)[outside], 0.0)
            np.testing.assert_array_equal(
                mod.moment_matrix(psi, rows), mod.moment_matrix(psi)[rows]
            )
    # a basis spinor reaches 1 + n + n(n-1)/2 rows
    for n, count in ((3, 7), (8, 37), (16, 137)):
        assert len(get_module(n).reachable_rows(Spinor.basis(n, 2))) == count


def _eager_tables(n):
    """Full-row (perm, phase) of every frame vector, built slot by slot as
    the module once stored them eagerly."""
    masks = np.arange(2**n, dtype=np.int64)
    parity = np.bitwise_count(masks) & 1
    perms = [masks.copy()]
    phases = [1j * (1.0 - 2.0 * parity)]
    for p in range(1, n + 1):
        bit = 1 << (p - 1)
        has = (masks & bit) != 0
        koszul = 1.0 - 2.0 * (np.bitwise_count(masks & (bit - 1)) & 1)
        target = masks ^ bit
        perms.append(target)
        # sign of the wedge (has) and of the contraction: i (c + w) and w - c
        phases.append(1j * koszul * np.where(has, 1.0, 1.0))  # e_{2p}
        perms.append(target.copy())
        phases.append(koszul * np.where(has, 1.0, -1.0))  # e_{2p+1}
    return perms, phases


def _same_bits(got, want):
    """Equal values, dtypes and signed zeros."""
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bitmask_rule_matches_eager_tables():
    rng = np.random.default_rng(40)
    for n in range(1, 11):
        ref_perm, ref_phase = _eager_tables(n)
        mod = CliffordModule(n)
        subset = np.sort(rng.choice(2**n, size=min(2**n, 1 + n * n), replace=False))
        for rows in (None, subset):
            sel = slice(None) if rows is None else rows
            frames = mod._frames(rows)
            perm, phase, _ = frames
            for i in range(mod.dim_frame):
                _same_bits(perm[(i + 1) >> 1], ref_perm[i][sel])
                _same_bits(phase[i], ref_phase[i][sel].astype(complex))
            out = np.arange(2**n) if rows is None else rows
            for a in range(mod.dim_frame):  # every ordered pair, a == b and a > b too
                pa = ref_perm[a][sel]
                for b in range(mod.dim_frame):
                    got = [_product(a, b, out)]
                    if a < b:  # the spin lift's pair cache
                        got.append(mod._pair(frames, mod._pairs.index((a, b))))
                    for src, coef in got:
                        np.testing.assert_array_equal(src, ref_perm[b][pa])
                        np.testing.assert_array_equal(coef, ref_phase[a][sel] * ref_phase[b][pa])


def test_row_set_cache_stays_within_the_eager_tables():
    # large sparse row sets at n = 16, then every row: the module keeps the
    # set it built last, so it never holds more bytes than one copy of its
    # 2n+1 eager tables of 2**16 rows, and a set of more than 256 rows keeps
    # no pair cache
    import tracemalloc

    rng = np.random.default_rng(41)
    n, d = 16, 33
    g = rng.normal(size=(d, d))
    g[rng.random(size=(d, d)) < 0.9] = 0.0
    omega = g - g.T
    spinors = []
    for _ in range(4):
        coeffs = np.zeros(2**n, dtype=complex)
        coeffs[rng.choice(2**n, size=150, replace=False)] = 1.0
        spinors.append(Spinor(n, coeffs))
    # int64 perms of all 2n+1 vectors; complex phases for e_1 and the e_{2p},
    # float ones for the e_{2p+1}
    eager = (8 * d + 16 * (n + 1) + 8 * n) * 2**n
    for psi in spinors:  # read their supports before tracing starts
        assert len(psi.support) == 150
    mod = CliffordModule(n)
    tracemalloc.start()
    try:
        first = mod.apply_spin_lift(omega, spinors[0].coeffs, mod.reachable_rows(spinors[0]))
        for psi in spinors[1:]:
            mod.apply_spin_lift(omega, psi.coeffs, mod.reachable_rows(psi))
        sparse = tracemalloc.get_traced_memory()[0] - first.nbytes
        assert mod._last[0] == mod.reachable_rows(spinors[-1]).tobytes()
        every = mod.apply_spin_lift(omega, spinors[0].coeffs)
        retained = tracemalloc.get_traced_memory()[0] - first.nbytes - every.nbytes
    finally:
        tracemalloc.stop()
    # the full-row tables are exactly the eager ones; 16 kB is room for the
    # flip masks and the Python objects around the arrays
    perm, phase, pairs = mod._last[1]
    assert mod._last[0] is None and perm.nbytes + phase.nbytes == eager and pairs is None
    assert max(sparse, retained) <= eager + 16 * 1024, (sparse, retained, eager)
    # the sparse set's tables were dropped; remade, they give the same entries
    again = mod.apply_spin_lift(omega, spinors[0].coeffs, mod.reachable_rows(spinors[0]))
    np.testing.assert_array_equal(again, first)
    # a set of at most 256 rows keeps its pairs: the unit spinor's 137 rows
    # at n = 16, and every row at n = 8
    unit = Spinor.one(n)
    rows = mod.reachable_rows(unit)
    mod.apply_spin_lift(omega, unit.coeffs, rows)
    assert len(rows) == 137 and mod._last[0] == rows.tobytes() and mod._last[1][2]
    mod = CliffordModule(8)
    mod.apply_spin_lift(omega[:17, :17], rng.normal(size=2**8) + 0j)
    assert mod._last[0] is None and mod._last[1][2]
    # every row named explicitly at n = 10 is a set of its own, with no pairs
    mod = CliffordModule(10)
    omega = omega[:21, :21]
    coeffs = rng.normal(size=2**10) + 0j
    everything = np.arange(2**10)
    named = mod.apply_spin_lift(omega, coeffs, everything)
    assert mod._last[0] == everything.tobytes() and mod._last[1][2] is None
    np.testing.assert_array_equal(named, mod.apply_spin_lift(omega, coeffs))
    assert mod._last[0] is None and mod._last[1][2] is None


def _count_row_set_builds(monkeypatch) -> list[int]:
    """Patch ``clifford._frame_phase`` to record the size of every row set whose
    tables a module builds; return the list it appends to."""
    frame_phase = clifford._frame_phase
    builds = []

    def counting(frames, rows):
        # a row set's phases of every frame vector; cliff_relations_check asks for
        # phases on a (d, 1, rows) stack of rows
        if np.ndim(frames) == 2 and np.ndim(rows) == 1:
            builds.append(len(rows))
        return frame_phase(frames, rows)

    monkeypatch.setattr(clifford, "_frame_phase", counting)
    return builds


def test_a_repeated_row_set_builds_nothing_and_a_new_one_replaces_it(monkeypatch):
    # a dense psi reaches every row and the unit spinor 1 + n + n(n-1)/2 of
    # them; the module keeps the last set only, so repeating a spinor builds
    # nothing and switching to the other one builds its set again
    builds = _count_row_set_builds(monkeypatch)
    rng = np.random.default_rng(43)
    for n in (10, 16):
        d = 2 * n + 1
        g = rng.normal(size=(d, d))
        g[rng.random(size=(d, d)) < 0.9] = 0.0
        omega = g - g.T
        dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        spinors = (Spinor(n, dense), Spinor.one(n))
        want = []
        for psi in spinors:
            fresh = CliffordModule(n)
            want.append(fresh.apply_spin_lift(omega, psi.coeffs, fresh.reachable_rows(psi)))
        sizes = [2**n, 1 + n + n * (n - 1) // 2]
        builds.clear()
        mod = CliffordModule(n)
        for _ in range(2):
            for psi, ref, size in zip(spinors, want, sizes):
                for _ in range(3):
                    got = mod.apply_spin_lift(omega, psi.coeffs, mod.reachable_rows(psi))
                    _same_bits(got, ref)
                assert builds[-1] == size, n
        assert builds == sizes * 2, n


def test_an_empty_row_set_works():
    # its key is the empty bytes string, which must not read as "nothing built yet"
    rng = np.random.default_rng(44)
    for n in (1, 3):
        mod = CliffordModule(n)
        d, size = mod.dim_frame, mod.dim_spinor
        g = rng.normal(size=(2, d, d))
        omega = g - g.swapaxes(-1, -2)
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        none = np.array([], dtype=np.int64)
        assert mod.apply_spin_lift(omega[0], coeffs, none).shape == (0,)
        assert mod._last[0] == b"" and mod._last[1][0].shape == (n + 1, 0)
        assert mod.apply_spin_lift(omega, np.stack([coeffs] * 3)[:, None], none).shape == (3, 2, 0)
        assert mod.moment_matrix(Spinor(n, coeffs), none).shape == (0, d)
        # then every row, and the empty set again
        np.testing.assert_allclose(
            mod.apply_spin_lift(omega[0], coeffs), mod.spin_lift(omega[0]) @ coeffs, atol=1e-12
        )
        assert mod._last[0] is None
        assert mod.apply_spin_lift(omega[0], coeffs, []).shape == (0,)


def test_workload_cycles_after_warm_up_build_no_row_set_tables(monkeypatch):
    # each module uses its row sets in one block per command line, so after the
    # warm-up lines and one cycle, the kept set is the one the next cycle reads
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    def run(argvs):
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert cli.main(list(argv)) == 0, argv

    builds = _count_row_set_builds(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        run(workload.warmup(1))
        run(inv.argv for inv in workload.cycle(1, 0))
        builds.clear()
        run(inv.argv for inv in workload.cycle(1, 1))
        assert builds == [], name


def test_module_size_cap():
    check_slots(MAX_SLOTS)  # the largest ladder size the benchmark runs
    assert MAX_SLOTS >= 16
    # each is refused before the 2**n coefficient array or dense tensor exists
    for build in (CliffordModule, get_module, Spinor.one, make_heisenberg):
        with pytest.raises(UnsupportedDimensionError):
            build(MAX_SLOTS + 1)
        with pytest.raises(UnsupportedDimensionError):
            build(40)
