import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.catalog import make_heisenberg
from spinlab.clifford import (
    MAX_SLOTS,
    CliffordModule,
    Spinor,
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
    from spinlab.connection import NomizuMap, ricci_spinorial_check

    for n in (1, 2, 5):
        assert module_for_dim(2 * n + 1) is get_module(n)
    message = "invariant-spinor analysis needs odd dimension, got 4"
    with pytest.raises(UnsupportedDimensionError, match=message):
        module_for_dim(4)
    # its callers refuse an even frame with its message
    with pytest.raises(UnsupportedDimensionError, match=message):
        ricci_spinorial_check(NomizuMap(np.zeros((4, 4, 4))), np.zeros((4, 4, 4)), Spinor.one(1))


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
            assert m.shape == (2 ** (n + 1), d)
            assert np.linalg.matrix_rank(m) == d
            # v -> v . psi scales norms by |psi|
            np.testing.assert_allclose(
                m.T @ m, psi.norm**2 * np.eye(d), atol=1e-12 * psi.norm**2
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


def test_actions_on_a_stack_match_columns():
    rng = np.random.default_rng(8)
    mod = get_module(3)
    d = mod.dim_frame
    stack = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    g = rng.uniform(-1, 1, size=(d, d))
    omega = g - g.T
    for i in range(1, d + 1):
        cols = np.column_stack([mod.apply_vector(i, c) for c in stack.T])
        np.testing.assert_array_equal(mod.apply_vector(i, stack), cols)
    cols = np.column_stack([mod.apply_spin_lift(omega, c) for c in stack.T])
    np.testing.assert_array_equal(mod.apply_spin_lift(omega, stack), cols)


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
        cols = rng.normal(size=(size, 2)) + 1j * rng.normal(size=(size, 2))
        per_entry = rng.normal(size=(4, 3, size, 2)) + 1j * rng.normal(size=(4, 3, size, 2))
        on_vec = mod.apply_spin_lift(omega, vec)
        on_cols = mod.apply_spin_lift(omega, cols)
        on_entries = mod.apply_spin_lift(omega, per_entry)
        dense = mod.spin_lift(omega)
        assert on_vec.shape == (4, 3, size) and on_cols.shape == (4, 3, size, 2)
        assert on_entries.shape == (4, 3, size, 2) and dense.shape == (4, 3, size, size)
        for idx in np.ndindex(4, 3):
            np.testing.assert_array_equal(on_vec[idx], mod.apply_spin_lift(omega[idx], vec))
            np.testing.assert_array_equal(on_cols[idx], mod.apply_spin_lift(omega[idx], cols))
            np.testing.assert_array_equal(
                on_entries[idx], mod.apply_spin_lift(omega[idx], per_entry[idx])
            )
            np.testing.assert_array_equal(dense[idx], mod.spin_lift(omega[idx]))
            np.testing.assert_array_equal(dense[idx], _add_at_spin_lift(mod, omega[idx]))
    with pytest.raises(InvalidOperatorError):
        mod.spin_lift(np.stack([omega[0, 0], np.eye(d)]))


def test_single_matrix_skew_check_matches_the_stacked_check():
    mod = get_module(2)
    rng = np.random.default_rng(5)
    for size in (0.3, 1.0, 40.0):
        base = rng.normal(size=(5, 5)) * size
        base = base - base.T
        scale = max(1.0, np.abs(base).max())
        for excess in (0.0, 0.5e-12, 0.99e-12, 1.01e-12, 2e-12, np.nan, np.inf):
            omega = base.copy()
            omega[1, 3] = -omega[3, 1] + excess * scale
            verdicts = []
            for arg in (omega, omega[None], np.stack([base, omega])):
                try:
                    mod.apply_spin_lift(arg, np.ones(4))
                    verdicts.append(True)
                except InvalidOperatorError:
                    verdicts.append(False)
            assert len(set(verdicts)) == 1, (size, excess, verdicts)


def test_stacked_vector_actions_match_per_entry_calls():
    rng = np.random.default_rng(12)
    mod = get_module(3)
    d, size = mod.dim_frame, mod.dim_spinor
    v = rng.normal(size=(5, d))
    v[:, 2] = 0.0
    v[1, 4] = 0.0
    vec = rng.normal(size=size) + 1j * rng.normal(size=size)
    stacks = rng.normal(size=(2, 5, size, 3)) + 1j * rng.normal(size=(2, 5, size, 3))
    on_vec, on_stacks = mod.apply_combo(v, vec), mod.apply_combo(v, stacks)
    assert on_vec.shape == (5, size) and on_stacks.shape == (2, 5, size, 3)
    for k in range(5):
        np.testing.assert_array_equal(on_vec[k], mod.apply_combo(v[k], vec))
        for j in range(2):
            cols = [mod.apply_combo(v[k], c) for c in stacks[j, k].T]
            np.testing.assert_array_equal(on_stacks[j, k], np.column_stack(cols))
    for i in range(1, d + 1):
        applied = mod.apply_vector(i, stacks)
        for idx in np.ndindex(2, 5):
            np.testing.assert_array_equal(applied[idx], mod.apply_vector(i, stacks[idx]))


def test_actions_on_reachable_rows_match_full_actions():
    rng = np.random.default_rng(77)
    for n in range(1, 8):
        mod = get_module(n)
        d, size = mod.dim_frame, mod.dim_spinor
        for support in (1, 2, size):
            coeffs = np.zeros(size, dtype=complex)
            picks = rng.choice(size, size=support, replace=False)
            coeffs[picks] = rng.normal(size=support) + 1j * rng.normal(size=support)
            rows = mod.reachable_rows(coeffs)
            if rows is None:  # every row: the full actions themselves
                assert support * (1 + n + n * (n - 1) // 2) >= size
                continue
            assert np.all(np.diff(rows) > 0)
            outside = np.setdiff1d(np.arange(size), rows)
            g = rng.uniform(-1, 1, size=(3, d, d))
            omega = g - g.swapaxes(-1, -2)
            stack = np.stack([coeffs, 2 * coeffs], axis=-1)
            full = mod.apply_spin_lift(omega[0], stack)
            part = mod.apply_spin_lift(omega[0], stack, rows)
            np.testing.assert_array_equal(part, full[rows])
            full = mod.apply_spin_lift(omega, coeffs)
            part = mod.apply_spin_lift(omega, coeffs, rows)
            np.testing.assert_array_equal(part, full[..., rows])
            np.testing.assert_array_equal(full[..., outside], 0.0)
            for i in range(1, d + 1):
                np.testing.assert_array_equal(mod.apply_vector(i, coeffs)[outside], 0.0)
            psi = Spinor(n, coeffs)
            both = np.concatenate([rows, size + rows])  # real parts, then imaginary
            np.testing.assert_array_equal(
                mod.moment_matrix(psi, rows), mod.moment_matrix(psi)[both]
            )
    # a basis spinor reaches 1 + n + n(n-1)/2 rows
    for n, count in ((3, 7), (8, 37), (16, 137)):
        assert len(get_module(n).reachable_rows(Spinor.basis(n, 2).coeffs)) == count


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
            for k, (a, b) in enumerate(mod._pairs):
                src, coef = mod._pair(frames, k, rows is None)
                pa = ref_perm[a][sel]
                np.testing.assert_array_equal(src, ref_perm[b][pa])
                np.testing.assert_array_equal(coef, ref_phase[a][sel] * ref_phase[b][pa])


def test_row_set_cache_stays_within_the_eager_tables():
    # large sparse row sets at n = 16, each with its pairs over the budget:
    # the module drops the least recently used tables and keeps no more
    # bytes than its 2n+1 eager tables of 2**16 rows once took
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
        spinors.append(coeffs)
    # int64 perms of all 2n+1 vectors; complex phases for e_1 and the e_{2p},
    # float ones for the e_{2p+1}
    eager = (8 * d + 16 * (n + 1) + 8 * n) * 2**n
    tracemalloc.start()
    try:
        mod = CliffordModule(n)
        first = mod.apply_spin_lift(omega, spinors[0], mod.reachable_rows(spinors[0]))
        for coeffs in spinors[1:]:
            mod.apply_spin_lift(omega, coeffs, mod.reachable_rows(coeffs))
        retained = tracemalloc.get_traced_memory()[0] - first.nbytes
    finally:
        tracemalloc.stop()
    assert retained <= eager, (retained, eager)
    # the first set's tables were dropped; remade, they give the same entries
    again = mod.apply_spin_lift(omega, spinors[0], mod.reachable_rows(spinors[0]))
    np.testing.assert_array_equal(again, first)
    # every row named explicitly at n = 10: with their key the tables exceed
    # the budget, so they serve the call and are not kept
    mod = CliffordModule(10)
    omega = omega[:21, :21]
    coeffs = rng.normal(size=2**10) + 0j
    everything = np.arange(2**10)
    np.testing.assert_array_equal(
        mod.apply_spin_lift(omega, coeffs, everything), mod.apply_spin_lift(omega, coeffs)
    )
    assert list(mod._row_sets) == [None] and mod._held == mod._budget


def test_module_size_cap():
    check_slots(MAX_SLOTS)  # the largest ladder size the benchmark runs
    assert MAX_SLOTS >= 16
    # each is refused before the 2**n coefficient array or dense tensor exists
    for build in (CliffordModule, get_module, Spinor.one, make_heisenberg):
        with pytest.raises(UnsupportedDimensionError):
            build(MAX_SLOTS + 1)
        with pytest.raises(UnsupportedDimensionError):
            build(40)
