"""Levi-Civita connection data of a left-invariant metric, in frame form.

The connection is encoded by its Nomizu map: the linear map sending each
orthonormal frame vector ``e_i`` to the skew matrix ``L_i`` with
``(L_i)_{kj} = <nabla_{e_i} e_j, e_k>``.  In terms of the orthonormal-frame
structure constants,

    (L_i)_{kj} = (c_ij^k - c_jk^i + c_ki^j) / 2,

which is skew in ``(k, j)`` (metricity) and satisfies
``(L_i)_{kj} - (L_j)_{ki} = c_ij^k`` (torsion-freeness).

Curvature operators are ``R(e_i, e_j) = [L_i, L_j] - sum_k c_ij^k L_k`` and
the Ricci matrix is the contraction ``Ric_{xy} = sum_j R(e_j, e_x)_{jy}``,
which ``curvature`` evaluates directly, without the ``d^4`` operator tensor;
the sign conventions are pinned by the spinorial identity

    sum_j e_j . R(X, e_j) . psi = -(1/2) Ric(X) . psi,

which ``ricci_spinorial_check`` verifies with both sides computed
independently.

Every function takes a ``MetricLieAlgebra`` or its orthonormal structure
constants, which may carry leading batch axes ``(..., d, d, d)``; a batch
gives per-entry results, and one metric is the batch-of-one case.  Stages hand
over plain read-only float arrays: ``nomizu`` returns the ``(..., d, d, d)``
stack ``nm[..., i, :, :] = L_i``, which the other functions take as ``nm``, and
``curvature`` returns the ``(..., d, d)`` Ricci stack ``Ric(e_x, e_y)``.
"""

from __future__ import annotations

import numpy as np

from .algebra import MetricLieAlgebra, _freeze
from .clifford import Spinor, module_for_dim


def _structure(mla: MetricLieAlgebra | np.ndarray) -> np.ndarray:
    return mla.ortho_c if isinstance(mla, MetricLieAlgebra) else np.asarray(mla, dtype=float)


def _worst(x: np.ndarray, axes: int) -> float | np.ndarray:
    """Largest ``|x|`` over the trailing ``axes`` axes: a float, or an array over batch axes."""
    worst = np.max(np.abs(x), axis=tuple(range(-axes, 0)))
    return float(worst) if worst.ndim == 0 else worst


def nomizu(mla: MetricLieAlgebra | np.ndarray) -> np.ndarray:
    """Read-only stack ``[..., i, :, :] = L_i`` of the Nomizu map of ``mla``, or of
    orthonormal structure constants with any batch axes."""
    c = _structure(mla)
    raw = 0.5 * (c.swapaxes(-1, -2) - c.swapaxes(-3, -1) + c.swapaxes(-3, -2))
    # skew-symmetrise so metricity holds bit-exactly
    return _freeze(0.5 * (raw - raw.swapaxes(-1, -2)))


def metricity_violation(nm: np.ndarray) -> float | np.ndarray:
    """Worst entry of ``L_i + L_i^T`` (exactly zero by construction); an array for a batch."""
    return _worst(nm + nm.swapaxes(-1, -2), 3)


def torsion_violation(nm: np.ndarray, mla: MetricLieAlgebra | np.ndarray) -> float | np.ndarray:
    """Worst entry of ``(L_i)_{kj} - (L_j)_{ki} - c_ij^k``; an array for a batch."""
    # axes (i, j, k) of (L_i)_{kj} and of (L_j)_{ki}
    return _worst(nm.swapaxes(-1, -2) - np.moveaxis(nm, -1, -3) - _structure(mla), 3)


def curvature(nm: np.ndarray, mla: MetricLieAlgebra | np.ndarray) -> np.ndarray:
    """Read-only Ricci matrix of the connection, per batch entry, by direct contraction.

    Expanding ``sum_j R(e_j, e_x)_{jy}`` gives

        Ric_xy = sum_b t_b (L_x)_{by} - sum_{j,b} ((L_x)_{jb} + c_{bxj}) (L_j)_{by},

    with ``t_b = sum_j (L_j)_{jb}``: the commutator's second half and the
    structure-constant term share one ``(d, d^2) @ (d^2, d)`` product, so the
    work is ``O(d^4)`` flops and ``O(d^3)`` memory, not ``O(d^5)`` and ``O(d^4)``.
    """
    d = nm.shape[-1]
    batch = nm.shape[:-3]
    trace = np.trace(nm, axis1=-3, axis2=-2)  # t_b
    first = (trace[..., None, None, :] @ nm)[..., 0, :]
    # rows (x), columns (j, b): (L_x)_{jb} + c_{bxj}
    left = nm.reshape(batch + (d, d * d)) + np.moveaxis(_structure(mla), -3, -1).reshape(
        batch + (d, d * d)
    )
    return _freeze(first - left @ nm.reshape(batch + (d * d, d)))


def ricci_spinorial_check(
    nm: np.ndarray,
    mla: MetricLieAlgebra | np.ndarray,
    psi: Spinor,
    _ricci: np.ndarray | None = None,
) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Verify the spinorial Ricci identity on ``psi`` for every frame direction.

    The left side uses spin-lifted curvature operators assembled from the
    lifted Nomizu operators; the right side uses the Ricci matrix from the
    frame-level curvature, ``curvature(nm, mla)``, or ``_ricci`` when the
    caller has already built that stack (the ``selftest`` grid pass builds it
    once for both basis spinors and its closed-form Ricci check).  Returns
    ``(ok, max_residual)`` with the residual relative to ``max(1, |rhs|)`` per
    direction and ``ok`` when it is at most 1e-9; for structure constants with
    batch axes, both are arrays over the batch.
    """
    c = _structure(mla)
    d = c.shape[-1]
    mod = module_for_dim(d)
    lifted = mod.apply_spin_lift(nm, psi.coeffs)  # [..., j, :] = lift(L_j) psi
    # twice[..., i, j, :] = lift(L_i) lift(L_j) psi, so that
    # rv[..., i, j, :] = R(e_i, e_j) . psi
    twice = mod.apply_spin_lift(nm[..., None, :, :], lifted[..., None, :, :])
    rv = twice - twice.swapaxes(-3, -2)
    for k in range(d):
        rv = rv - c[..., k, None] * lifted[..., None, None, k, :]
    lhs = sum(mod.apply_vector(j + 1, rv[..., j, :]) for j in range(d))
    ricci = curvature(nm, c) if _ricci is None else _ricci
    rhs = -0.5 * mod.apply_combo(ricci.swapaxes(-1, -2), psi.coeffs)
    denom = np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
    worst = np.max(np.max(np.abs(lhs - rhs), axis=-1) / denom, axis=-1)
    if worst.ndim == 0:
        worst = float(worst)
    return worst <= 1e-9, worst
