import numpy as np
import pytest

from spinlab.algebra import (
    FrameChange,
    LieAlgebra,
    frame_structure,
    metric_from_frame_change,
    orthonormalize,
    random_frames,
)
from spinlab.catalog import (
    BianchiFamily,
    heisenberg_metric,
    heisenberg_params,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_ricci_3d,
)
from spinlab.clifford import Spinor, get_module, module_for_dim
from spinlab.connection import (
    curvature,
    metricity_violation,
    nomizu,
    ricci_spinorial_check,
    torsion_violation,
)
from spinlab.selftest import family_grid


def unit_h3():
    return heisenberg_metric(1, (1.0,), (1.0,), 1.0)


def abelian(dim=3):
    alg = LieAlgebra(dim, np.zeros((dim, dim, dim)))
    return orthonormalize(alg, np.eye(dim))


def nomizu_direct(mla):
    """Independent oracle: column-by-column evaluation from the definition.

    L(e_i) e_j = [e_i, e_j] / 2 + U(e_i, e_j) with U read off from
    <U(X, Y), e_k> = (<[e_k, X], Y> + <X, [e_k, Y]>) / 2.
    """
    c = mla.ortho_c
    d = mla.dim
    mats = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                u = 0.5 * (c[k, i, j] + c[k, j, i])
                mats[i][k, j] = 0.5 * c[i, j, k] + u
    return mats


def test_h3_nomizu_matrices():
    nm = nomizu(unit_h3())
    lam_z = np.array([[0.0, 0, 0], [0, 0, 0.5], [0, -0.5, 0]])
    lam_e = np.array([[0.0, 0, 0.5], [0, 0, 0], [-0.5, 0, 0]])
    lam_f = np.array([[0.0, -0.5, 0], [0.5, 0, 0], [0, 0, 0]])
    np.testing.assert_allclose(nm[0], lam_z, atol=1e-15)
    np.testing.assert_allclose(nm[1], lam_e, atol=1e-15)
    np.testing.assert_allclose(nm[2], lam_f, atol=1e-15)


def test_nomizu_and_curvature_are_read_only_arrays():
    # one metric and a stack: plain float arrays that refuse writes
    one = unit_h3()
    stack = np.stack([one.ortho_c, abelian().ortho_c])
    for c, batch in ((one, ()), (stack, (2,))):
        nm = nomizu(c)
        ric = curvature(nm, c)
        assert type(nm) is np.ndarray and nm.dtype == float and nm.shape == batch + (3, 3, 3)
        assert type(ric) is np.ndarray and ric.dtype == float and ric.shape == batch + (3, 3)
        for arr in (nm, ric):
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0, 0] = 1.0


def test_abelian_nomizu_flat():
    mla = abelian()
    nm = nomizu(mla)
    np.testing.assert_array_equal(nm, np.zeros((3, 3, 3)))
    np.testing.assert_array_equal(curvature(nm, mla), np.zeros((3, 3)))
    for op in module_for_dim(3).spin_lift(nm):
        np.testing.assert_array_equal(op, np.zeros((2, 2)))


def test_h5_nomizu_center_rotation():
    mla = heisenberg_metric(2, (1.0, 4.0), (1.0, 1.0), 1.0)
    lam_z = nomizu(mla)[0]
    expected = np.zeros((5, 5))
    expected[2, 1], expected[1, 2] = -0.5, 0.5
    expected[4, 3], expected[3, 4] = -0.25, 0.25
    np.testing.assert_allclose(lam_z, expected, atol=1e-15)


def test_nomizu_matches_direct_definition():
    rng = np.random.default_rng(21)
    for fam in family_grid():
        alg = make_bianchi(fam)
        mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
        np.testing.assert_allclose(nomizu(mla), nomizu_direct(mla), atol=1e-14)
    mla = heisenberg_metric(3, (1.0, 4.0, 9.0), (1.0,) * 3, 1.0)
    np.testing.assert_allclose(nomizu(mla), nomizu_direct(mla), atol=1e-14)


def test_torsion_and_metricity_sweep():
    rng = np.random.default_rng(33)
    for fam in family_grid():
        alg = make_bianchi(fam)
        for _ in range(10):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            nm = nomizu(mla)
            assert metricity_violation(nm) == 0.0
            assert torsion_violation(nm, mla) <= 1e-12


def test_spin_nomizu_h3_values():
    ops = module_for_dim(3).spin_lift(nomizu(unit_h3()))
    one = Spinor.one(1).coeffs
    np.testing.assert_allclose(ops[0] @ one, [-0.25j, 0.0], atol=1e-15)
    np.testing.assert_allclose(ops[1] @ one, [0.0, 0.25j], atol=1e-15)
    np.testing.assert_allclose(ops[2] @ one, [0.0, 0.25], atol=1e-15)


def test_ricci_h3():
    mla = unit_h3()
    ric = curvature(nomizu(mla), mla)
    np.testing.assert_allclose(ric, np.diag([0.5, -0.5, -0.5]), atol=1e-15)


def test_ricci_round_sphere_frame():
    alg = make_bianchi(BianchiFamily("L3(6)"))
    mla = metric_from_frame_change(alg, FrameChange(np.eye(3)))
    ric = curvature(nomizu(mla), mla)
    np.testing.assert_allclose(ric, 0.5 * np.eye(3), atol=1e-15)


def test_ricci_symmetry_sweep():
    rng = np.random.default_rng(17)
    for fam in family_grid():
        alg = make_bianchi(fam)
        for _ in range(10):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            ric = curvature(nomizu(mla), mla)
            assert np.max(np.abs(ric - ric.T)) <= 1e-10


def test_ricci_matches_closed_form_on_symmetric_families():
    rng = np.random.default_rng(29)
    for fam in family_grid():
        if not is_symmetric_family(fam):
            continue
        alg = make_bianchi(fam)
        for _ in range(20):
            mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
            ric = curvature(nomizu(mla), mla)
            ref = reference_ricci_3d(mla.ortho_c)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(ric - ref)) <= 1e-9 * scale


def test_closed_form_ricci_needs_symmetry():
    # outside the symmetric locus the closed form is not the Ricci matrix
    alg = make_bianchi(BianchiFamily("L3(-1)"))
    mla = metric_from_frame_change(alg, FrameChange(np.eye(3)))
    ric = curvature(nomizu(mla), mla)
    np.testing.assert_allclose(ric, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)
    assert np.max(np.abs(ric - reference_ricci_3d(mla.ortho_c))) > 0.5


def test_spinorial_ricci_identity_h3():
    mla = unit_h3()
    ok, residual = ricci_spinorial_check(nomizu(mla), mla, Spinor.one(1))
    assert ok and residual <= 1e-12


def test_spinorial_ricci_identity_abelian():
    mla = abelian()
    ok, residual = ricci_spinorial_check(nomizu(mla), mla, Spinor.basis(1, 1))
    assert ok and residual == 0.0


def test_spinorial_ricci_identity_l35_random():
    alg = make_bianchi(BianchiFamily("L3(5)"))
    rng = np.random.default_rng(101)
    for _ in range(5):
        mla = metric_from_frame_change(alg, FrameChange.random(3, rng))
        ok, residual = ricci_spinorial_check(nomizu(mla), mla, Spinor.basis(1, 1))
        assert ok and residual <= 1e-10


def test_spinorial_ricci_identity_heisenberg_higher():
    mla = heisenberg_metric(2, (1.0, 4.0), (2.0, 1.0), 3.0)
    ok, residual = ricci_spinorial_check(nomizu(mla), mla, Spinor.one(2))
    assert ok and residual <= 1e-12


def test_spinorial_check_with_a_given_ricci_stack_matches_the_plain_call():
    rng = np.random.default_rng(27)
    stack = np.stack([
        metric_from_frame_change(make_bianchi(fam), FrameChange.random(3, rng)).ortho_c
        for fam in family_grid()
    ])
    h5 = heisenberg_metric(2, (1.0, 4.0), (2.0, 1.0), 3.0).ortho_c
    for c, psis in (
        (stack, (Spinor.one(1), Spinor.basis(1, 1))),
        (stack[3], (Spinor.one(1),)),
        (h5, (Spinor.one(2), Spinor.basis(2, 2))),
    ):
        nm = nomizu(c)
        for psi in psis:
            plain = ricci_spinorial_check(nm, c, psi)
            given = ricci_spinorial_check(nm, c, psi, _ricci=curvature(nm, c))
            np.testing.assert_array_equal(given[0], plain[0])
            np.testing.assert_array_equal(given[1], plain[1])
            assert type(given[1]) is type(plain[1])


def ricci_spinorial_loop(nm, c, psi):
    """Per-direction loop form of ``ricci_spinorial_check`` on one metric's
    ``ortho_c``: the reference for the stacked form, one matrix per spin-lift call."""
    d = c.shape[-1]
    mod = get_module((d - 1) // 2)
    ric = curvature(nm, c)
    lifted = [mod.apply_spin_lift(nm[j], psi.coeffs) for j in range(d)]
    worst = 0.0
    for i in range(d):
        lhs = np.zeros(mod.dim_spinor, dtype=complex)
        for j in range(d):
            rv = mod.apply_spin_lift(nm[i], lifted[j]) - mod.apply_spin_lift(
                nm[j], lifted[i]
            )
            for k in range(d):
                if c[i, j, k] != 0.0:
                    rv = rv - c[i, j, k] * lifted[k]
            lhs += mod.apply_vector(j + 1, rv)
        rhs = -0.5 * mod.apply_combo(ric[:, i], psi.coeffs)
        denom = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / denom)
    return worst


def ricci_via_operators(nm, c):
    """Ricci matrix through the full curvature-operator tensor: the reference
    for the direct contraction of ``curvature``.

    ``ops[i, j] = R(e_i, e_j) = [L_i, L_j] - sum_k c_ij^k L_k`` (``d^4`` entries),
    then ``Ric_xy = sum_j R(e_j, e_x)_{jy}``."""
    prod = np.einsum("iab,jbc->ijac", nm, nm)
    ops = prod - prod.swapaxes(0, 1) - np.einsum("ijk,kab->ijab", c, nm)
    return np.einsum("jxjy->xy", ops)


def heisenberg_ricci_milnor(a, b, c):
    """Closed-form Ricci matrix of a metric Heisenberg algebra in the frame
    ``(Z, E_1, F_1, ..., E_n, F_n)`` (Milnor, Adv. Math. 21 (1976), 2-step
    nilpotent case): with ``[E_p, F_p] = lambda_p Z``,
    ``Ric(Z, Z) = sum lambda_p^2 / 2``, ``Ric(E_p, E_p) = Ric(F_p, F_p) =
    -lambda_p^2 / 2`` and every off-diagonal entry 0."""
    lam2 = [c / (ap * bp) for ap, bp in zip(a, b)]
    return np.diag([0.5 * sum(lam2)] + [-0.5 * v for v in lam2 for _ in range(2)])


def test_ricci_matches_milnor_heisenberg_form():
    rng = np.random.default_rng(71)
    for n in range(1, 17):
        params = [heisenberg_params(n)] + [
            heisenberg_params(n, np.exp(rng.uniform(-1, 1, n)), np.exp(rng.uniform(-1, 1, n)),
                              float(np.exp(rng.uniform(-1, 1))))
            for _ in range(3)
        ]
        for p in params:
            mla = heisenberg_metric(n, *p)
            ric = curvature(nomizu(mla), mla)
            ref = heisenberg_ricci_milnor(*p)
            assert np.max(np.abs(ric - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            if n <= 6:
                np.testing.assert_allclose(ric, ricci_via_operators(nomizu(mla), mla.ortho_c),
                                           rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(ref))))


def ricci_besse(c):
    """Ricci form of a left-invariant metric from the brackets alone (Besse,
    *Einstein Manifolds*, 7.38), with ``[e_i, e_j] = sum_k c[i, j, k] e_k`` in
    an orthonormal frame:

        Ric(X, Y) = -1/2 sum_i <[X, e_i], [Y, e_i]> - 1/2 B(X, Y)
                    + 1/4 sum_{i,j} <[e_i, e_j], X> <[e_i, e_j], Y>
                    - 1/2 (<[Z, X], Y> + <[Z, Y], X>),

    where ``B(X, Y) = tr(ad_X ad_Y)`` and ``<Z, X> = tr(ad_X)``.  No Nomizu
    map enters, so it is independent of ``curvature``."""
    brackets = np.einsum("xik,yik->xy", c, c)
    killing = np.einsum("xik,yki->xy", c, c)
    dual = np.einsum("ijx,ijy->xy", c, c)
    z_ad = np.einsum("m,mxy->xy", np.einsum("xii->x", c), c)  # <[Z, e_x], e_y>
    return -0.5 * brackets - 0.5 * killing + 0.25 * dual - 0.5 * (z_ad + z_ad.T)


def _random_gram(rng, d):
    g = rng.uniform(-1.0, 1.0, size=(d, d))
    return g @ g.T + 0.5 * np.eye(d)


def test_ricci_matches_besse_formula():
    rng = np.random.default_rng(738)
    structures = []
    for fam in family_grid():  # the non-unimodular families exercise Z
        _, oc = frame_structure(make_bianchi(fam), random_frames(3, rng, 20))
        structures.extend(oc)
    for n in range(1, 7):
        alg = make_heisenberg(n)
        structures += [orthonormalize(alg, _random_gram(rng, alg.dim)).ortho_c for _ in range(5)]
    for d in (5, 7, 9):  # almost abelian: [e_0, e_i] = sum_k D_ki e_k
        for _ in range(5):
            mat = rng.uniform(-1.0, 1.0, size=(d - 1, d - 1))
            alg = LieAlgebra.from_brackets(d, {
                (1, i + 2): {k + 2: float(mat[k, i]) for k in range(d - 1)} for i in range(d - 1)
            })
            structures.append(orthonormalize(alg, _random_gram(rng, d)).ortho_c)
    assert any(abs(np.einsum("xii->x", c)).max() > 0.1 for c in structures)
    for c in structures:
        ref = ricci_besse(c)
        ric = curvature(nomizu(c), c)
        assert np.max(np.abs(ric - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_ricci_matches_operator_route_on_random_structure_constants():
    # the contraction does not use the Jacobi identity: random skew c in d = 5, 7, 9
    rng = np.random.default_rng(72)
    for d in (5, 7, 9):
        c = rng.normal(size=(6, d, d, d))
        c = c - c.swapaxes(-3, -2)
        nm = nomizu(c)
        ric = curvature(nm, c)
        for k in range(len(c)):
            ref = ricci_via_operators(nomizu(c[k]), c[k])
            assert np.max(np.abs(ric[k] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def torsion_loop(nm, c):
    """Pair-by-pair form of ``torsion_violation`` on one metric's ``ortho_c``."""
    d, worst = nm.shape[-1], 0.0
    for i in range(d):
        for j in range(d):
            worst = max(worst, float(np.max(np.abs(nm[i][:, j] - nm[j][:, i] - c[i, j]))))
    return worst


def _batched_cases():
    """(stacked ortho_c, spinors): 13 families x 20 frames, and random H(5) metrics."""
    rng = np.random.default_rng(44)
    for fam in family_grid():
        _, oc = frame_structure(make_bianchi(fam), random_frames(3, rng, 20))
        yield oc, (Spinor.one(1), Spinor.basis(1, 1))
    params = [heisenberg_params(2, (1.0, 4.0), (1.0, 1.0), 1.0)] + [
        heisenberg_params(2, np.exp(rng.uniform(-1, 1, 2)),
                          np.exp(rng.uniform(-1, 1, 2)), float(np.exp(rng.uniform(-1, 1))))
        for _ in range(7)
    ]
    oc = np.stack([heisenberg_metric(2, *p).ortho_c for p in params])
    psi = Spinor(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    yield oc, (Spinor.one(2), Spinor.basis(2, 1), Spinor.basis(2, 1, 2), psi)


def test_batched_connection_matches_per_sample_calls():
    for oc, spinors in _batched_cases():
        nm = nomizu(oc)
        metricity, torsion = metricity_violation(nm), torsion_violation(nm, oc)
        curv = curvature(nm, oc)
        checks = [ricci_spinorial_check(nm, oc, psi) for psi in spinors]
        assert metricity.shape == torsion.shape == (len(oc),)
        for k, c in enumerate(oc):
            nm_k = nomizu(c)
            np.testing.assert_array_equal(nm[k], nm_k)
            assert metricity[k] == metricity_violation(nm_k) == 0.0
            assert torsion[k] == torsion_violation(nm_k, c) == torsion_loop(nm_k, c)
            assert torsion[k] <= 1e-12
            single = curvature(nm_k, c)
            np.testing.assert_allclose(curv[k], single, rtol=1e-12, atol=1e-15)
            ref = ricci_via_operators(nm_k, c)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(curv[k] - ref)) <= 1e-12 * scale
            assert np.max(np.abs(single - ref)) <= 1e-12 * scale
            for psi, (ok, residual) in zip(spinors, checks):
                ok_k, residual_k = ricci_spinorial_check(nm_k, c, psi)
                assert isinstance(ok_k, bool) and isinstance(residual_k, float)
                assert ok[k] == ok_k is True
                assert abs(residual[k] - residual_k) <= 1e-15
                assert abs(residual[k] - ricci_spinorial_loop(nm_k, c, psi)) <= 1e-15

