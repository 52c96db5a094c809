"""Spinors of an odd orthonormal frame as exterior-algebra coefficients.

For a (2n+1)-dimensional algebra with orthonormal frame
``(e_1, ..., e_{2n+1})`` the spinor space has dimension ``2**n``.  Its basis
is indexed by subsets ``S`` of ``{1..n}`` encoded as bitmasks (bit ``p-1``
set when ``p`` is in ``S``), representing wedge products of the complex
combinations ``y_p = (e_{2p} + i e_{2p+1}) / sqrt(2)``.

The frame acts by Clifford multiplication:

* ``e_1`` is ``i`` times the even/odd parity grading,
* ``e_{2p}`` is ``i`` times (contraction at slot ``p`` + wedge at slot ``p``),
* ``e_{2p+1}`` is (wedge at slot ``p``) - (contraction at slot ``p``),

where contraction pairs slots by ``x_p . y_q = delta_pq`` and both wedge
and contraction at slot ``p`` carry the Koszul sign ``(-1)**|{s in S: s < p}|``.
Each frame vector therefore acts as a signed complex permutation of the
basis, and the action satisfies ``e_i e_j + e_j e_i = -2 delta_ij`` --
squares are minus the identity, not plus (readers used to the ``+1``
convention should flip signs accordingly).

The lift of a skew matrix ``omega`` to a spinor operator uses
``e_i ^ e_j -> (1/2) e_i e_j`` where the skew matrix of ``e_i ^ e_j`` maps
``e_i`` to ``e_j`` (entry ``(j, i) = +1``); this normalisation is the one
for which ``[lift(omega), v.] = (omega v).`` holds as operators.

All actions are matrix-free and take one coefficient vector or a stack of
them as columns.  Dense ``2**n x 2**n`` operators are those actions applied
to the identity, available up to ``n = 8``; beyond that the
signed-permutation form keeps vector actions available without the
quadratic memory cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidOperatorError,
    InvalidSpinorError,
    UnsupportedDimensionError,
)

_DENSE_LIMIT = 8  # largest n for which dense operators are built


@dataclass(frozen=True)
class Spinor:
    """Coefficient vector over the subset basis of the spinor space."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (2**self.n,):
            raise InvalidSpinorError(
                f"coefficient vector must have length {2**self.n}, got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, n: int) -> "Spinor":
        return cls(n, np.zeros(2**n, dtype=complex))

    @classmethod
    def one(cls, n: int) -> "Spinor":
        """The unit spinor (coefficient 1 on the empty subset)."""
        coeffs = np.zeros(2**n, dtype=complex)
        coeffs[0] = 1.0
        return cls(n, coeffs)

    @classmethod
    def basis(cls, n: int, *slots: int) -> "Spinor":
        """Basis spinor for the subset of 1-based slots, e.g. ``basis(2, 1)``."""
        mask = 0
        for p in slots:
            if not 1 <= p <= n:
                raise InvalidSpinorError(f"slot {p} out of range 1..{n}")
            if mask & (1 << (p - 1)):
                raise InvalidSpinorError(f"repeated slot {p}")
            mask |= 1 << (p - 1)
        coeffs = np.zeros(2**n, dtype=complex)
        coeffs[mask] = 1.0
        return cls(n, coeffs)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


class CliffordModule:
    """Precomputed Clifford action of the frame of a (2n+1)-dim algebra.

    Each frame vector is stored as a signed permutation ``(perm, coef)``
    with ``(e_i psi)[perm[S]] = coef[S] * psi[S]``.
    """

    def __init__(self, n: int, flip_contraction_sign: bool = False):
        if n < 1:
            raise UnsupportedDimensionError(f"spinor module needs n >= 1, got {n}")
        self.n = n
        self.dim_spinor = 2**n
        self.dim_frame = 2 * n + 1
        self._perm, self._coef = self._build(flip_contraction_sign)

    def _build(self, flip: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
        masks = np.arange(self.dim_spinor, dtype=np.int64)
        parity = np.bitwise_count(masks) & 1
        perms = [masks.copy()]
        coefs = [1j * (1.0 - 2.0 * parity)]
        cont = -1.0 if flip else 1.0
        for p in range(1, self.n + 1):
            bit = 1 << (p - 1)
            has = (masks & bit) != 0
            koszul = 1.0 - 2.0 * (np.bitwise_count(masks & (bit - 1)) & 1)
            target = masks ^ bit
            perms.append(target)
            coefs.append(1j * koszul * np.where(has, cont, 1.0))  # e_{2p}
            perms.append(target.copy())
            coefs.append(koszul * np.where(has, -cont, 1.0))  # e_{2p+1}
        return perms, coefs

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.dim_frame:
            raise IndexError(f"frame index {i} out of range 1..{self.dim_frame}")

    def _identity(self) -> np.ndarray:
        if self.n > _DENSE_LIMIT:
            raise UnsupportedDimensionError(
                f"dense operators disabled for n > {_DENSE_LIMIT}; "
                "use the matrix-free apply_* methods instead"
            )
        return np.eye(self.dim_spinor)

    def vector_matrix(self, i: int) -> np.ndarray:
        """Dense matrix of the action of frame vector ``e_i`` (1-based)."""
        return self.apply_vector(i, self._identity())

    def apply_vector(self, i: int, coeffs: np.ndarray) -> np.ndarray:
        """Apply ``e_i`` to a coefficient vector or to each column of a stack."""
        self._check_index(i)
        coeffs = np.asarray(coeffs)
        out = np.zeros(coeffs.shape, dtype=complex)
        out[self._perm[i - 1]] = _rowwise(self._coef[i - 1], coeffs)
        return out

    def apply_combo(self, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the Clifford action of the real frame vector ``sum v_i e_i``."""
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.dim_spinor, dtype=complex)
        for i, vi in enumerate(v):
            if vi != 0.0:
                out[self._perm[i]] += vi * self._coef[i] * coeffs
        return out

    def moment_matrix(self, psi: Spinor) -> np.ndarray:
        """Real ``2**(n+1) x (2n+1)`` matrix of ``v -> v . psi``.

        Columns are the actions of the frame vectors on ``psi`` with real
        and imaginary parts stacked; it has full column rank for any
        nonzero ``psi``.
        """
        cols = np.column_stack(
            [self.apply_vector(i, psi.coeffs) for i in range(1, self.dim_frame + 1)]
        )
        return np.vstack([cols.real, cols.imag])

    def _require_skew(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        d = self.dim_frame
        if omega.shape != (d, d):
            raise InvalidOperatorError(
                f"expected a {d}x{d} matrix, got shape {omega.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(omega))))
        if float(np.max(np.abs(omega + omega.T))) > 1e-12 * scale:
            raise InvalidOperatorError("spin lift requires a skew-symmetric matrix")
        return omega

    def spin_lift(self, omega: np.ndarray) -> np.ndarray:
        """Dense spinor operator of the skew frame matrix ``omega``."""
        return self.apply_spin_lift(omega, self._identity())

    def apply_spin_lift(self, omega: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the lift of ``omega`` to a coefficient vector or stack, matrix-free.

        Costs O(nonzero pairs * 2**n) per column, so it stays usable past
        the dense operator cutoff.
        """
        omega = self._require_skew(omega)
        coeffs = np.asarray(coeffs)
        out = np.zeros(coeffs.shape, dtype=complex)
        for a in range(self.dim_frame):
            pa, ca = self._perm[a], self._coef[a]
            for b in range(a + 1, self.dim_frame):
                w = omega[b, a]
                if w == 0.0:
                    continue
                pb, cb = self._perm[b], self._coef[b]
                # e_a e_b applied as: b first, then a
                out[pa[pb]] += _rowwise((0.5 * w) * cb * ca[pb], coeffs)
        return out


def _rowwise(coef: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Scale row ``S`` of a coefficient vector or column stack by ``coef[S]``."""
    return (coef * coeffs.T).T


@lru_cache(maxsize=16)
def _module(n: int, flip: bool = False) -> CliffordModule:
    return CliffordModule(n, flip_contraction_sign=flip)


def get_module(n: int) -> CliffordModule:
    """Shared immutable module instance for ``n`` slots."""
    return _module(n)


def cliff_vector(i: int, psi: Spinor) -> Spinor:
    """Clifford action of frame vector ``e_i`` (1-based) on ``psi``."""
    mod = get_module(psi.n)
    return Spinor(psi.n, mod.apply_vector(i, psi.coeffs))


def cliff_relations_check(
    n: int, tol: float = 1e-12, _flip_contraction_sign: bool = False
) -> tuple[bool, float]:
    """Verify ``e_i e_j + e_j e_i = -2 delta_ij`` on the whole spinor space.

    Returns ``(ok, max_violation)`` over all frame index pairs.
    """
    mod = _module(n, _flip_contraction_sign)
    mats = [mod.vector_matrix(i) for i in range(1, mod.dim_frame + 1)]
    eye = np.eye(mod.dim_spinor)
    worst = 0.0
    for i, mi in enumerate(mats):
        for j in range(i, len(mats)):
            mj = mats[j]
            anti = mi @ mj + mj @ mi
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
    return worst <= tol, worst


def spin_lift(omega: np.ndarray) -> np.ndarray:
    """Lift a skew ``(2n+1) x (2n+1)`` matrix to a spinor operator."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1] or omega.shape[0] % 2 == 0:
        raise UnsupportedDimensionError(
            f"spin lift needs an odd-dimensional square matrix, got {omega.shape}"
        )
    n = (omega.shape[0] - 1) // 2
    return get_module(n).spin_lift(omega)
