import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.algebra import FrameChange, check_jacobi, orthonormalize
from spinlab.catalog import (
    BianchiFamily,
    FAMILY_TAGS,
    HeisenbergParams,
    heisenberg_gk_eigenvalues,
    heisenberg_metric,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
    reference_eigenvalues,
    reference_ricci_3d,
)
from spinlab.errors import InvalidParameterError


def fam(tag, x=None):
    return BianchiFamily(tag, x)


def bracket_map(alg):
    """Sparse {(i, j): {k: coeff}} view (1-based, i < j) of the tensor."""
    out = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            entries = {
                k + 1: alg.c[i, j, k] for k in range(alg.dim) if alg.c[i, j, k] != 0.0
            }
            if entries:
                out[(i + 1, j + 1)] = entries
    return out


def test_bracket_tables():
    assert bracket_map(make_bianchi(fam("L3(-1)"))) == {(1, 2): {1: 1.0}}
    assert bracket_map(make_bianchi(fam("L3(1)"))) == {(2, 3): {1: 1.0}}
    assert bracket_map(make_bianchi(fam("L3(2,x)", 0.5))) == {
        (1, 3): {1: 1.0},
        (2, 3): {2: 0.5},
    }
    assert bracket_map(make_bianchi(fam("L3(3)"))) == {
        (1, 3): {1: 1.0},
        (2, 3): {1: 1.0, 2: 1.0},
    }
    assert bracket_map(make_bianchi(fam("L3(4,x)", 2.0))) == {
        (1, 3): {1: 2.0, 2: -1.0},
        (2, 3): {1: 1.0, 2: 2.0},
    }
    assert bracket_map(make_bianchi(fam("L3(5)"))) == {
        (1, 2): {1: 1.0},
        (1, 3): {2: -2.0},
        (2, 3): {3: 1.0},
    }
    assert bracket_map(make_bianchi(fam("L3(6)"))) == {
        (1, 2): {3: 1.0},
        (1, 3): {2: -1.0},
        (2, 3): {1: 1.0},
    }


@settings(max_examples=50, deadline=None)
@given(x=st.one_of(st.floats(-1.0, -0.01), st.floats(0.01, 1.0)))
def test_l32_jacobi_exact(x):
    ok, violation = check_jacobi(make_bianchi(fam("L3(2,x)", x)))
    assert ok and violation == 0.0


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.0, 10.0))
def test_l34_jacobi_exact(x):
    ok, violation = check_jacobi(make_bianchi(fam("L3(4,x)", x)))
    assert ok and violation == 0.0


def test_all_families_jacobi_exact():
    for tag in FAMILY_TAGS:
        x = -0.5 if tag == "L3(2,x)" else (1.5 if tag == "L3(4,x)" else None)
        ok, violation = check_jacobi(make_bianchi(fam(tag, x)))
        assert ok and violation == 0.0, tag


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        fam("L3(2,x)", 0.0)
    with pytest.raises(InvalidParameterError):
        fam("L3(2,x)", 1.5)
    with pytest.raises(InvalidParameterError):
        fam("L3(4,x)", -0.1)
    with pytest.raises(InvalidParameterError):
        fam("L3(5)", 1.0)
    with pytest.raises(InvalidParameterError):
        fam("L3(2,x)")
    with pytest.raises(InvalidParameterError):
        BianchiFamily.parse("L3(9)")
    with pytest.raises(InvalidParameterError):
        BianchiFamily.parse("so(3)")


def test_parse_and_label():
    f = BianchiFamily.parse("L3(2,-1)")
    assert f.tag == "L3(2,x)" and f.x == -1.0
    assert f.label == "L3(2,-1)"
    assert BianchiFamily.parse("L3(-1)").tag == "L3(-1)"
    assert BianchiFamily.parse("L3(6)").label == "L3(6)"


def test_heisenberg_construction():
    h3 = make_heisenberg(1)
    # same tensor as L3(1): the defining basis already has the centre first
    np.testing.assert_array_equal(h3.c, make_bianchi(fam("L3(1)")).c)
    h5 = make_heisenberg(2)
    assert h5.dim == 5
    assert bracket_map(h5) == {(2, 3): {1: 1.0}, (4, 5): {1: 1.0}}
    ok, violation = check_jacobi(make_heisenberg(3))
    assert ok and violation == 0.0
    with pytest.raises(InvalidParameterError):
        make_heisenberg(0)


def test_heisenberg_params_validation():
    with pytest.raises(InvalidParameterError):
        HeisenbergParams(1, (0.0,), (1.0,), 1.0)
    with pytest.raises(InvalidParameterError):
        HeisenbergParams(2, (1.0,), (1.0, 1.0), 1.0)
    with pytest.raises(InvalidParameterError):
        HeisenbergParams(1, (1.0,), (1.0,), -2.0)
    p = HeisenbergParams.defaults(3)
    assert p.a == (1.0, 4.0, 9.0) and p.b == (1.0, 1.0, 1.0) and p.c == 1.0


def test_heisenberg_metric_unit():
    mla = heisenberg_metric(HeisenbergParams(1, (1.0,), (1.0,), 1.0))
    np.testing.assert_allclose(mla.ortho_c, make_heisenberg(1).c, atol=1e-15)


def test_heisenberg_metric_scaled():
    mla = heisenberg_metric(HeisenbergParams(2, (1.0, 4.0), (1.0, 1.0), 1.0))
    assert mla.ortho_c[3, 4, 0] == pytest.approx(0.5, rel=1e-14)
    assert mla.ortho_c[1, 2, 0] == pytest.approx(1.0, rel=1e-14)


def test_heisenberg_metric_matches_gram_path():
    params = HeisenbergParams(2, (2.0, 0.5), (3.0, 1.5), 0.7)
    direct = heisenberg_metric(params)
    expected_frame_diag = [
        params.c**-0.5,
        params.a[0] ** -0.5,
        params.b[0] ** -0.5,
        params.a[1] ** -0.5,
        params.b[1] ** -0.5,
    ]
    np.testing.assert_allclose(np.diag(direct.frame), expected_frame_diag, rtol=1e-14)
    via_gram = orthonormalize(make_heisenberg(2), direct.gram)
    np.testing.assert_allclose(direct.frame, via_gram.frame, atol=1e-12)
    np.testing.assert_allclose(direct.ortho_c, via_gram.ortho_c, atol=1e-12)


def test_heisenberg_gk_eigenvalues():
    lam, mu = heisenberg_gk_eigenvalues(HeisenbergParams.defaults(3))
    np.testing.assert_allclose(lam, [0.25, 0.125, 1.0 / 12.0], rtol=1e-15)
    assert mu == pytest.approx(-11.0 / 24.0, rel=1e-15)


def test_reference_A_spot_values():
    p = FrameChange.from_entries(2.0, beta=3.0, epsilon=1.0, iota=1.0).matrix
    np.testing.assert_allclose(
        reference_A(fam("L3(1)"), p), np.diag([-0.125, 0.125, 0.125]), atol=1e-15
    )
    np.testing.assert_allclose(
        reference_A(fam("L3(-1)"), np.eye(3)),
        np.array([[0.0, 0, 0], [0, 0, 0], [-0.5, 0, 0]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        reference_A(fam("L3(4,x)", 0.0), np.eye(3)),
        np.diag([0.0, 0.0, 0.5]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        reference_A(fam("L3(6)"), np.eye(3)), 0.25 * np.eye(3), atol=1e-15
    )
    np.testing.assert_allclose(
        reference_A(fam("L3(5)"), np.eye(3)),
        0.5 * np.array([[1.0, 0, -1], [0, -1, 0], [-1, 0, 1]]),
        atol=1e-15,
    )


def test_reference_asymmetry_values():
    rng = np.random.default_rng(3)
    p = FrameChange.random(3, rng).matrix
    np.testing.assert_array_equal(reference_asymmetry(fam("L3(1)"), p), np.zeros((3, 3)))
    np.testing.assert_array_equal(reference_asymmetry(fam("L3(5)"), p), np.zeros((3, 3)))
    np.testing.assert_array_equal(
        reference_asymmetry(fam("L3(2,x)", -1.0), p), np.zeros((3, 3))
    )
    p2 = FrameChange.from_entries(1.0, iota=2.0).matrix
    np.testing.assert_allclose(
        reference_asymmetry(fam("L3(3)"), p2),
        np.array([[0.0, -2, 0], [2, 0, 0], [0, 0, 0]]),
        atol=1e-15,
    )


def test_reference_asymmetry_only_sees_iota():
    # for the rotation-type families the skew part depends on iota (and the
    # parameter) alone
    pa = FrameChange.from_entries(2.0, beta=0.7, gamma=-0.3, epsilon=0.5, zeta=0.9, iota=1.3)
    pb = FrameChange.from_entries(0.4, beta=-1.0, gamma=0.8, epsilon=2.0, zeta=-0.2, iota=1.3)
    for f in (fam("L3(2,x)", 0.5), fam("L3(3)"), fam("L3(4,x)", 2.0)):
        np.testing.assert_allclose(
            reference_asymmetry(f, pa.matrix), reference_asymmetry(f, pb.matrix), atol=1e-15
        )


def test_reference_eigenvalues():
    p = FrameChange.from_entries(1.0, beta=0.0, iota=1.0).matrix
    vals = reference_eigenvalues(fam("L3(2,x)", -1.0), p)
    assert sorted(vals) == pytest.approx([-0.5, 0.0, 0.5], abs=1e-15)
    vals = reference_eigenvalues(fam("L3(1)"), np.eye(3))
    assert sorted(vals) == pytest.approx([-0.25, 0.25, 0.25], abs=1e-15)
    vals = reference_eigenvalues(fam("L3(4,x)", 0.0), np.eye(3))
    assert sorted(vals) == pytest.approx([0.0, 0.0, 0.5], abs=1e-15)
    assert reference_eigenvalues(fam("L3(5)"), p) is None
    assert reference_eigenvalues(fam("L3(6)"), p) is None
    assert reference_eigenvalues(fam("L3(3)"), p) is None


def test_symmetric_family_table():
    assert is_symmetric_family(fam("L3(1)"))
    assert is_symmetric_family(fam("L3(5)"))
    assert is_symmetric_family(fam("L3(6)"))
    assert is_symmetric_family(fam("L3(2,x)", -1.0))
    assert is_symmetric_family(fam("L3(4,x)", 0.0))
    assert not is_symmetric_family(fam("L3(-1)"))
    assert not is_symmetric_family(fam("L3(3)"))
    assert not is_symmetric_family(fam("L3(2,x)", 0.5))
    assert not is_symmetric_family(fam("L3(4,x)", 1.0))


def test_reference_ricci_spot_values():
    h3 = heisenberg_metric(HeisenbergParams(1, (1.0,), (1.0,), 1.0))
    np.testing.assert_allclose(
        reference_ricci_3d(h3.ortho_c), np.diag([0.5, -0.5, -0.5]), atol=1e-15
    )
    l36 = make_bianchi(fam("L3(6)"))
    np.testing.assert_allclose(
        reference_ricci_3d(l36.c), 0.5 * np.eye(3), atol=1e-15
    )
