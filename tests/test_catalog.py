import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.algebra import FrameChange, check_jacobi, orthonormalize
from spinlab.catalog import (
    BianchiFamily,
    _mat3,
    FAMILY_TAGS,
    heisenberg_metric,
    heisenberg_ortho_c,
    heisenberg_params,
    heisenberg_spectrum,
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
    positive = "Heisenberg metric parameters must be positive and finite"
    out_of_range = ("Heisenberg metric parameters out of floating-point range: "
                    "every c / (a_p b_p) must be positive and finite")
    for args, message in [
        ((0,), "n must be >= 1, got 0"),
        ((-3, [1.0], [1.0]), "n must be >= 1, got -3"),
        ((2, [1.0], [1.0, 1.0]), "a and b must each have n entries"),
        ((2, None, [1.0, 1.0, 1.0]), "a and b must each have n entries"),
        ((1, [[1.0]]), "a and b must each have n entries"),
        ((1, [0.0], [1.0]), positive),
        ((1, [1.0], [-1.0]), positive),
        ((1, [1.0], [1.0], -2.0), positive),
        ((2, [1.0, np.nan]), positive),
        ((1, None, None, np.inf), positive),
        ((1, [np.inf], [1.0]), positive),
        ((2, [1.0, 2.0], [1e-200, 1e-200], 1e200), out_of_range),
        ((1, [1e200], [1e200], 1e-300), out_of_range),
    ]:
        with pytest.raises(InvalidParameterError) as exc:
            heisenberg_params(*args)
        assert str(exc.value) == message, args
    # the n check comes before the lengths, the lengths before the values
    with pytest.raises(InvalidParameterError, match="n must be >= 1"):
        heisenberg_params(0, [np.nan], [1.0, 2.0])
    with pytest.raises(InvalidParameterError, match="each have n entries"):
        heisenberg_params(2, [np.nan], [1.0, 2.0])
    a, b, c = heisenberg_params(3)
    assert a.tolist() == [1.0, 4.0, 9.0] and b.tolist() == [1.0, 1.0, 1.0] and c == 1.0
    a, b, c = heisenberg_params(2, (2, 0.5), [3, 1.5], 7)
    assert a.dtype == b.dtype == float and a.shape == b.shape == (2,) and type(c) is float


def test_heisenberg_params_default_row_is_the_ladder_row():
    """``a | b | c`` of the defaults, bit for bit the row ``np.r_[(1..n)^2, 1, ..., 1]``
    that heads each rung of the ``selftest`` ladder."""
    for n in range(1, 17):
        row = np.hstack(heisenberg_params(n))
        want = np.r_[np.arange(1, n + 1) ** 2, np.ones(n + 1)]
        assert row.dtype == want.dtype and np.array_equal(row.view(np.int64), want.view(np.int64))


def test_heisenberg_metric_is_the_closed_form_with_a_diagonal_frame():
    rng = np.random.default_rng(5)
    cases = [(n, None, None, 1.0) for n in (1, 2, 5)]
    cases += [(n, *np.exp(rng.uniform(-2.0, 2.0, size=(2, n))), float(np.exp(rng.uniform(-2, 2))))
              for n in (1, 3, 6)]
    for n, a, b, c in cases:
        mla = heisenberg_metric(n, a, b, c)
        a, b, c = heisenberg_params(n, a, b, c)
        diag = np.array([c] + [v for ap, bp in zip(a, b) for v in (ap, bp)])
        assert np.array_equal(mla.ortho_c.view(np.int64),
                              heisenberg_ortho_c(a, b, c).view(np.int64)), n
        assert np.array_equal(mla.gram, np.diag(diag)), n
        assert np.array_equal(mla.frame, np.diag(1.0 / np.sqrt(diag))), n
        assert np.array_equal(mla.algebra.c, make_heisenberg(n).c), n
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        heisenberg_metric(2, b=[1.0, 0.0])


def test_heisenberg_metric_unit():
    mla = heisenberg_metric(1, [1.0], [1.0], 1.0)
    np.testing.assert_allclose(mla.ortho_c, make_heisenberg(1).c, atol=1e-15)


def test_heisenberg_metric_scaled():
    mla = heisenberg_metric(2, [1.0, 4.0], [1.0, 1.0], 1.0)
    assert mla.ortho_c[3, 4, 0] == pytest.approx(0.5, rel=1e-14)
    assert mla.ortho_c[1, 2, 0] == pytest.approx(1.0, rel=1e-14)


def test_heisenberg_metric_matches_gram_path():
    a, b, c = (2.0, 0.5), (3.0, 1.5), 0.7
    direct = heisenberg_metric(2, a, b, c)
    expected_frame_diag = [c**-0.5, a[0] ** -0.5, b[0] ** -0.5, a[1] ** -0.5, b[1] ** -0.5]
    np.testing.assert_allclose(np.diag(direct.frame), expected_frame_diag, rtol=1e-14)
    via_gram = orthonormalize(make_heisenberg(2), direct.gram)
    np.testing.assert_allclose(direct.frame, via_gram.frame, atol=1e-12)
    np.testing.assert_allclose(direct.ortho_c, via_gram.ortho_c, atol=1e-12)


def test_heisenberg_spectrum_defaults():
    lam, mu = heisenberg_spectrum(*heisenberg_params(3))
    np.testing.assert_allclose(lam, [0.25, 0.125, 1.0 / 12.0], rtol=1e-15)
    assert mu == pytest.approx(-11.0 / 24.0, rel=1e-15)


def heisenberg_closed_forms_per_metric(a, b, c):
    """One bracket and one Python float at a time, ``mu`` by Python's ``sum``: the
    reference for the stacked ``heisenberg_ortho_c`` and ``heisenberg_spectrum``."""
    n = len(a)
    oc = np.zeros((2 * n + 1,) * 3)
    for p in range(1, n + 1):
        coeff = float(np.sqrt(c / (a[p - 1] * b[p - 1])))
        oc[2 * p - 1, 2 * p, 0] = coeff
        oc[2 * p, 2 * p - 1, 0] = -coeff
    lam = [float(0.25 * np.sqrt(c / (ap * bp))) for ap, bp in zip(a, b)]
    return oc, lam, -sum(lam)


def test_stacked_heisenberg_closed_forms_match_the_per_metric_forms_bit_for_bit():
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    rng, pairwise_differs = np.random.default_rng(20), 0
    for n in range(1, 17):
        draws = np.exp(rng.uniform(-3.0, 3.0, size=(30, 2 * n + 1)))
        params = [heisenberg_params(n)] + [
            heisenberg_params(n, row[:n], row[n:-1], row[-1]) for row in draws
        ]
        a, b, c = (np.array([p[k] for p in params]) for k in range(3))
        oc, (lam, mu) = heisenberg_ortho_c(a, b, c), heisenberg_spectrum(a, b, c)
        assert oc.shape == (len(params),) + (2 * n + 1,) * 3 and mu.shape == (len(params),)
        for k, p in enumerate(params):
            want_oc, want_lam, want_mu = heisenberg_closed_forms_per_metric(*p)
            assert np.array_equal(bits(oc[k]), bits(want_oc))
            assert np.array_equal(bits(lam[k]), bits(want_lam))
            assert np.array_equal(bits(mu[k]), bits(want_mu)), (n, k)
            # the one-metric entry points are the batch-of-one case
            assert np.array_equal(bits(heisenberg_metric(n, *p).ortho_c), bits(want_oc))
            got_lam, got_mu = heisenberg_spectrum(*p)
            assert np.array_equal(bits(got_lam), bits(want_lam))
            assert np.array_equal(bits(got_mu), bits(want_mu))
            pairwise_differs += bool(-np.sum(want_lam) != want_mu)
    assert pairwise_differs > 0  # numpy's pairwise sum would have failed the mu checks


def test_reference_A_spot_values():
    p = np.array([[2.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
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
    p2 = np.diag([1.0, 1.0, 2.0])
    np.testing.assert_allclose(
        reference_asymmetry(fam("L3(3)"), p2),
        np.array([[0.0, -2, 0], [2, 0, 0], [0, 0, 0]]),
        atol=1e-15,
    )


def test_reference_asymmetry_only_sees_iota():
    # for the rotation-type families the skew part depends on iota (and the
    # parameter) alone
    pa = np.array([[2.0, 0.7, -0.3], [0.0, 0.5, 0.9], [0.0, 0.0, 1.3]])
    pb = np.array([[0.4, -1.0, 0.8], [0.0, 2.0, -0.2], [0.0, 0.0, 1.3]])
    for f in (fam("L3(2,x)", 0.5), fam("L3(3)"), fam("L3(4,x)", 2.0)):
        np.testing.assert_allclose(
            reference_asymmetry(f, pa), reference_asymmetry(f, pb), atol=1e-15
        )


def test_reference_eigenvalues():
    p = np.eye(3)
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
    h3 = heisenberg_metric(1, [1.0], [1.0], 1.0)
    np.testing.assert_allclose(
        reference_ricci_3d(h3.ortho_c), np.diag([0.5, -0.5, -0.5]), atol=1e-15
    )
    l36 = make_bianchi(fam("L3(6)"))
    np.testing.assert_allclose(
        reference_ricci_3d(l36.c), 0.5 * np.eye(3), atol=1e-15
    )


def mat3_shape_per_entry(rows, scale=1.0):
    """``_mat3`` as it was: the shape from one ``np.shape`` per operand and
    ``np.broadcast_shapes``."""
    entries = [e for row in rows for e in row]
    out = np.empty(np.broadcast_shapes(np.shape(scale), *map(np.shape, entries)) + (9,))
    for k, e in enumerate(entries):
        out[..., k] = e
    out *= np.asarray(scale)[..., None]
    return out.reshape(out.shape[:-1] + (3, 3))


def test_mat3_is_bit_identical_to_the_shape_per_entry_form():
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=5), rng.normal(size=(2, 1))
    rows_cases = [
        [[1.0, -0.0, 0.0], [0.5, -2.0, 0.0], [-0.0, 0.0, 3.0]],
        [[u, -0.0, 0.0], [2 * u, -u, 0.0], [0.0, -0.0, u * u]],
        [[u, v, -0.0], [0.0, -u, 1.0], [v * u, -0.0, -v]],
    ]
    for rows in rows_cases:
        for scale in (1.0, -0.5, 0.25 / u, rng.normal(size=(2, 5)), v):
            got, want = _mat3(rows, scale), mat3_shape_per_entry(rows, scale)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
