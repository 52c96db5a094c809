import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.algebra import (
    FrameChange,
    LieAlgebra,
    MetricLieAlgebra,
    check_jacobi,
    frame_structure,
    jacobi_violation,
    metric_from_frame_change,
    orthonormalize,
    random_frames,
)
from spinlab.catalog import BianchiFamily, make_bianchi, make_heisenberg
from spinlab.gks import family_grid
from spinlab.errors import InvalidFrameError, InvalidMetricError, StructureError


def jacobi_violation_loops(alg: LieAlgebra) -> float:
    """Independent oracle: direct evaluation of the cyclic Jacobi sum."""
    d, c = alg.dim, alg.c
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    total = 0.0
                    for m in range(d):
                        total += (
                            c[i, j, m] * c[m, k, l]
                            + c[j, k, m] * c[m, i, l]
                            + c[k, i, m] * c[m, j, l]
                        )
                    worst = max(worst, abs(total))
    return worst


def test_jacobi_h3_trivial():
    ok, violation = check_jacobi(make_heisenberg(1))
    assert ok
    assert violation == 0.0


def test_jacobi_l36():
    ok, violation = check_jacobi(make_bianchi(BianchiFamily("L3(6)")))
    assert ok
    assert violation == 0.0


def test_jacobi_counterexample():
    # [f1,f2] = f2 together with [f2,f3] = f3 breaks Jacobi:
    # the (1,2,3) cyclic sum leaves a bare f3 term of size 1.
    broken = LieAlgebra.from_brackets(3, {(1, 2): {2: 1.0}, (2, 3): {3: 1.0}})
    expected = jacobi_violation_loops(broken)
    assert expected == 1.0
    ok, violation = check_jacobi(broken)
    assert not ok
    assert violation == pytest.approx(expected, abs=0)


def test_jacobi_einsum_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        raw = rng.uniform(-1, 1, size=(3, 3, 3))
        alg = LieAlgebra(3, raw - raw.transpose(1, 0, 2))
        assert jacobi_violation(alg) == pytest.approx(
            jacobi_violation_loops(alg), rel=1e-13, abs=1e-15
        )


def test_structure_validation():
    with pytest.raises(StructureError):
        LieAlgebra(3, np.zeros((3, 3, 2)))
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # no antisymmetric partner
    with pytest.raises(StructureError):
        LieAlgebra(3, bad)
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, {(1, 4): {1: 1.0}})


def test_orthonormalize_identity_gram():
    alg = make_bianchi(BianchiFamily("L3(5)"))
    mla = orthonormalize(alg, np.eye(3))
    np.testing.assert_allclose(mla.frame, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(mla.ortho_c, alg.c, atol=1e-15)


def test_orthonormalize_h3_scaled_gram():
    # squared norms (c, a, b) on (Z, E, F); the orthonormal bracket picks up
    # the factor sqrt(c / (a b))
    c_, a_, b_ = 2.0, 3.0, 5.0
    alg = make_heisenberg(1)
    mla = orthonormalize(alg, np.diag([c_, a_, b_]))
    np.testing.assert_allclose(
        mla.frame, np.diag([c_**-0.5, a_**-0.5, b_**-0.5]), rtol=1e-14
    )
    expected = np.sqrt(c_ / (a_ * b_))
    assert mla.ortho_c[1, 2, 0] == pytest.approx(expected, rel=1e-14)
    assert mla.ortho_c[2, 1, 0] == pytest.approx(-expected, rel=1e-14)
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[1, 2, 0] = mask[2, 1, 0] = False
    assert np.all(mla.ortho_c[mask] == 0.0)


def test_orthonormalize_random_spd_l31():
    alg = make_bianchi(BianchiFamily("L3(1)"))
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = rng.uniform(-1, 1, size=(3, 3))
        gram = g @ g.T + 3.0 * np.eye(3)
        mla = orthonormalize(alg, gram)
        np.testing.assert_allclose(
            mla.frame.T @ gram @ mla.frame, np.eye(3), atol=1e-12
        )
        assert np.linalg.det(mla.frame) > 0
        # derived algebra is the span of f1 = e1/alpha, so every bracket
        # lands on the first frame vector
        assert np.max(np.abs(mla.ortho_c[:, :, 1:])) == 0.0
        ok, violation = check_jacobi(
            LieAlgebra(3, mla.ortho_c), tol=1e-10
        )
        assert ok, violation


def test_orthonormalize_rejects_bad_gram():
    alg = make_heisenberg(1)
    with pytest.raises(InvalidMetricError):
        orthonormalize(alg, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidMetricError):
        orthonormalize(alg, np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(InvalidMetricError):
        orthonormalize(alg, np.eye(4))


def test_frame_change_validation():
    with pytest.raises(InvalidFrameError):
        FrameChange(np.array([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(InvalidFrameError):
        FrameChange.from_entries(alpha=-1.0)
    with pytest.raises(InvalidFrameError):
        FrameChange(np.diag([1.0, 0.0, 1.0]))
    p = FrameChange.from_entries(2.0, beta=3.0)
    assert p.matrix[0, 0] == 2.0 and p.matrix[0, 1] == 3.0 and p.matrix[2, 2] == 1.0


def test_metric_from_frame_change_identity():
    alg = make_bianchi(BianchiFamily("L3(3)"))
    mla = metric_from_frame_change(alg, FrameChange(np.eye(3)))
    np.testing.assert_allclose(mla.gram, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(mla.ortho_c, alg.c, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    diag=st.tuples(*[st.floats(0.2, 5.0) for _ in range(3)]),
    off=st.tuples(*[st.floats(-2.0, 2.0) for _ in range(3)]),
)
def test_construction_paths_agree(diag, off):
    p = FrameChange(
        np.array(
            [[diag[0], off[0], off[1]], [0.0, diag[1], off[2]], [0.0, 0.0, diag[2]]]
        )
    )
    alg = make_bianchi(BianchiFamily("L3(6)"))
    via_frame = metric_from_frame_change(alg, p)
    gram = np.linalg.inv(p.matrix @ p.matrix.T)
    via_gram = orthonormalize(alg, gram)
    np.testing.assert_allclose(via_frame.frame, via_gram.frame, atol=1e-12)
    np.testing.assert_allclose(via_frame.ortho_c, via_gram.ortho_c, atol=1e-12)


def test_frame_orthonormality_invariant_random():
    rng = np.random.default_rng(42)
    alg = make_bianchi(BianchiFamily("L3(5)"))
    for _ in range(50):
        p = FrameChange.random(3, rng)
        mla = metric_from_frame_change(alg, p)
        resid = np.max(np.abs(mla.frame.T @ mla.gram @ mla.frame - np.eye(3)))
        assert resid <= 1e-12
        assert np.linalg.det(mla.frame) > 0


def test_metric_lie_algebra_guard():
    alg = make_heisenberg(1)
    with pytest.raises(InvalidMetricError):
        MetricLieAlgebra(alg, np.eye(3), 2.0 * np.eye(3), alg.c)


def test_frame_change_random_ranges():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = FrameChange.random(3, rng)
        d = np.diag(p.matrix)
        assert np.all(d >= np.exp(-1.0)) and np.all(d <= np.exp(1.0))
        assert all(abs(p.matrix[i, j]) <= 1 for i, j in ((0, 1), (0, 2), (1, 2)))


def test_stacked_frame_structure_matches_per_algebra_calls():
    # the 13 grid families, then H(3), H(5) and H(7) each stacked with a
    # rescaled copy: an (F, d, d, d) stack against (F, N, d, d) frames
    stacks = [[make_bianchi(fam) for fam in family_grid()]]
    for n in (1, 2, 3):
        alg = make_heisenberg(n)
        stacks.append([alg, LieAlgebra(alg.dim, 0.5 * alg.c)])
    for algs in stacks:
        d = algs[0].dim
        rng = np.random.default_rng([8, d])
        frames = np.stack([random_frames(d, rng, 7) for _ in algs])
        gram, oc = frame_structure(np.stack([alg.c for alg in algs])[:, None], frames)
        assert oc.shape == (len(algs), 7, d, d, d)
        for f, alg in enumerate(algs):
            want_gram, want_oc = frame_structure(alg, frames[f])
            np.testing.assert_array_equal(gram[f], want_gram)
            np.testing.assert_array_equal(oc[f], want_oc)
            np.testing.assert_array_equal(oc[f, 2], frame_structure(alg, frames[f, 2])[1])
