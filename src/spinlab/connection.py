"""Levi-Civita connection data of a left-invariant metric, in frame form.

The connection is encoded by its Nomizu map: the linear map sending each
orthonormal frame vector ``e_i`` to the skew matrix ``L_i`` with
``(L_i)_{kj} = <nabla_{e_i} e_j, e_k>``.  In terms of the orthonormal-frame
structure constants,

    (L_i)_{kj} = (c_ij^k - c_jk^i + c_ki^j) / 2,

which is skew in ``(k, j)`` (metricity) and satisfies
``(L_i)_{kj} - (L_j)_{ki} = c_ij^k`` (torsion-freeness).

Curvature operators are ``R(e_i, e_j) = [L_i, L_j] - sum_k c_ij^k L_k`` and
the Ricci matrix is the contraction ``Ric_{xy} = sum_j R(e_j, e_x)_{jy}``;
the sign conventions are pinned by the spinorial identity

    sum_j e_j . R(X, e_j) . psi = -(1/2) Ric(X) . psi,

which ``ricci_spinorial_check`` verifies with both sides computed
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MetricLieAlgebra
from .clifford import CliffordModule, Spinor, get_module
from .errors import UnsupportedDimensionError


@dataclass(frozen=True)
class NomizuMap:
    """Stack of skew matrices ``mats[..., i, :, :] = L_i`` in the orthonormal frame."""

    mats: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mats, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "mats", arr)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]


@dataclass(frozen=True)
class CurvatureData:
    """Curvature operators ``operators[i, j] = R(e_i, e_j)`` and Ricci matrix."""

    operators: np.ndarray
    ricci: np.ndarray

    def __post_init__(self) -> None:
        for name in ("operators", "ricci"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def nomizu(mla: MetricLieAlgebra | np.ndarray) -> NomizuMap:
    """Nomizu map of ``mla``, or of orthonormal structure constants with any batch axes."""
    c = mla.ortho_c if isinstance(mla, MetricLieAlgebra) else np.asarray(mla, dtype=float)
    raw = 0.5 * (c.swapaxes(-1, -2) - c.swapaxes(-3, -1) + c.swapaxes(-3, -2))
    # skew-symmetrise so metricity holds bit-exactly
    return NomizuMap(0.5 * (raw - raw.swapaxes(-1, -2)))


def spin_nomizu(nm: NomizuMap, module: CliffordModule | None = None) -> list[np.ndarray]:
    """Spin lifts of the Nomizu matrices as dense spinor operators."""
    d = nm.dim
    if d % 2 == 0:
        raise UnsupportedDimensionError(f"spin lift needs odd dimension, got {d}")
    mod = module if module is not None else get_module((d - 1) // 2)
    return [mod.spin_lift(nm.mats[i]) for i in range(d)]


def metricity_violation(nm: NomizuMap) -> float:
    """Worst entry of ``L_i + L_i^T`` (exactly zero by construction)."""
    lam = nm.mats
    return float(np.max(np.abs(lam + lam.transpose(0, 2, 1))))


def torsion_violation(nm: NomizuMap, mla: MetricLieAlgebra) -> float:
    """Worst entry of ``(L_i)_{kj} - (L_j)_{ki} - c_ij^k`` over all indices."""
    lam, c = nm.mats, mla.ortho_c
    worst = 0.0
    for i in range(nm.dim):
        for j in range(nm.dim):
            diff = lam[i][:, j] - lam[j][:, i] - c[i, j]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def curvature(nm: NomizuMap, mla: MetricLieAlgebra) -> CurvatureData:
    """Curvature operators and Ricci matrix of the connection."""
    lam = nm.mats
    prod = np.einsum("iab,jbc->ijac", lam, lam)
    comm = prod - prod.transpose(1, 0, 2, 3)
    ops = comm - np.einsum("ijk,kab->ijab", mla.ortho_c, lam)
    ricci = np.einsum("jxjy->xy", ops)
    return CurvatureData(operators=ops, ricci=ricci)


def ricci_spinorial_check(
    nm: NomizuMap,
    mla: MetricLieAlgebra,
    psi: Spinor,
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Verify the spinorial Ricci identity on ``psi`` for every frame direction.

    The left side uses spin-lifted curvature operators assembled from the
    lifted Nomizu operators; the right side uses the Ricci matrix from the
    frame-level curvature.  Returns ``(ok, max_residual)`` with the residual
    relative to ``max(1, |rhs|)`` per direction.
    """
    d = mla.dim
    if d % 2 == 0:
        raise UnsupportedDimensionError(f"spinor check needs odd dimension, got {d}")
    mod = get_module((d - 1) // 2)
    ric = curvature(nm, mla).ricci
    c = mla.ortho_c
    vec = psi.coeffs
    lifted = [mod.apply_spin_lift(nm.mats[j], vec) for j in range(d)]
    worst = 0.0
    for i in range(d):
        lhs = np.zeros(mod.dim_spinor, dtype=complex)
        for j in range(d):
            rv = mod.apply_spin_lift(nm.mats[i], lifted[j]) - mod.apply_spin_lift(
                nm.mats[j], lifted[i]
            )
            for k in range(d):
                if c[i, j, k] != 0.0:
                    rv = rv - c[i, j, k] * lifted[k]
            lhs += mod.apply_vector(j + 1, rv)
        rhs = -0.5 * mod.apply_combo(ric[:, i], vec)
        denom = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / denom)
    return worst <= tol, worst
