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

All actions are matrix-free and act as a matrix product would: on one
coefficient vector ``(2**n,)`` or on column stacks ``(..., 2**n, k)``.  The
spin lift and the vector combination also take a stack of skew matrices
``(..., d, d)`` or of frame vectors ``(..., d)``, one operator per stack
entry, broadcast against the coefficient stacks.  Dense ``2**n x 2**n``
operators are those actions applied to the identity, available up to
``n = 8``; beyond that the signed-permutation form keeps vector actions
available without the quadratic memory cost.  Modules are capped at
``n = 16`` slots (see ``MAX_SLOTS``).
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

# Largest n a module is built for.  A full report at n = 16 (2**16-entry
# spinors, dimension 33) peaks near 0.3 GB, and every further slot doubles
# that; refusing larger modules up front turns an allocation failure deep in
# numpy into a domain error.
MAX_SLOTS = 16


def check_slots(n: int) -> None:
    """Refuse spinors with more than ``MAX_SLOTS`` slots, before anything is allocated."""
    if n > MAX_SLOTS:
        raise UnsupportedDimensionError(
            f"spinors with {n} slots (dimension {2 * n + 1}) exceed the "
            f"supported maximum of {MAX_SLOTS} slots (dimension {2 * MAX_SLOTS + 1})"
        )


def _zeros(n: int) -> np.ndarray:
    """Zero coefficient vector for ``n`` slots."""
    check_slots(n)
    return np.zeros(2**n, dtype=complex)


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
        return cls(n, _zeros(n))

    @classmethod
    def one(cls, n: int) -> "Spinor":
        """The unit spinor (coefficient 1 on the empty subset)."""
        coeffs = _zeros(n)
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
        coeffs = _zeros(n)
        coeffs[mask] = 1.0
        return cls(n, coeffs)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


class CliffordModule:
    """Precomputed Clifford action of the frame of a (2n+1)-dim algebra.

    Each frame vector is stored as a signed permutation ``(perm, coef)``
    with ``(e_i psi)[perm[S]] = coef[S] * psi[S]``.  Every ``perm`` flips a
    fixed set of bits, so it and all its compositions are their own
    inverses: the actions gather ``psi[perm]`` instead of scattering into
    ``out[perm]``.
    """

    def __init__(self, n: int, flip_contraction_sign: bool = False):
        if n < 1:
            raise UnsupportedDimensionError(f"spinor module needs n >= 1, got {n}")
        check_slots(n)
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
        rows = _as_rows(coeffs)
        return _as_columns((self._coef[i - 1] * rows).take(self._perm[i - 1], axis=-1), coeffs)

    def apply_combo(self, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the Clifford action of the real frame vector ``sum v_i e_i``.

        ``v`` may carry leading batch axes ``(..., d)``; a frame index is
        skipped when its coefficient is zero in every vector of the stack.
        """
        v = np.asarray(v, dtype=float)
        rows = _as_rows(coeffs)
        lead = _lead(v.shape[:-1], coeffs)
        out = np.zeros(np.broadcast_shapes(lead + rows.shape[-1:], rows.shape), dtype=complex)
        live = (v != 0.0).any(axis=tuple(range(v.ndim - 1))).tolist()
        for i, on in enumerate(live):
            if on:
                w = v[..., i].reshape(lead + (1,))
                out += (w * self._coef[i] * rows).take(self._perm[i], axis=-1)
        return _as_columns(out, coeffs)

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
        if omega.shape[-2:] != (d, d):
            raise InvalidOperatorError(
                f"expected {d}x{d} matrices, got shape {omega.shape}"
            )
        scale = np.maximum(1.0, np.abs(omega).max(axis=(-2, -1)))
        defect = np.abs(omega + omega.swapaxes(-1, -2)).max(axis=(-2, -1))
        if (defect > 1e-12 * scale).any():
            raise InvalidOperatorError("spin lift requires a skew-symmetric matrix")
        return omega

    def spin_lift(self, omega: np.ndarray) -> np.ndarray:
        """Dense spinor operator of the skew frame matrix ``omega``, or a stack of them."""
        return self.apply_spin_lift(omega, self._identity())

    def apply_spin_lift(self, omega: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the lift of ``omega`` to a coefficient vector or stack, matrix-free.

        ``omega`` is one skew matrix or a stack ``(..., d, d)``; the result is
        ``lift(omega) @ coeffs`` with matmul broadcasting.  A pair ``(a, b)``
        is skipped when ``omega[..., b, a]`` is zero in every matrix of the
        stack.  Costs O(nonzero pairs * 2**n) per column and stack entry, so
        it stays usable past the dense operator cutoff.
        """
        omega = self._require_skew(omega)
        rows = _as_rows(coeffs)
        lead = _lead(omega.shape[:-2], coeffs)
        out = np.zeros(np.broadcast_shapes(lead + rows.shape[-1:], rows.shape), dtype=complex)
        live = (omega != 0.0).any(axis=tuple(range(omega.ndim - 2))).tolist()
        for a in range(self.dim_frame):
            pa, ca = self._perm[a], self._coef[a]
            for b in range(a + 1, self.dim_frame):
                if not live[b][a]:
                    continue
                pb, cb = self._perm[b], self._coef[b]
                # e_a e_b applied as: b first, then a
                w = (0.5 * omega[..., b, a]).reshape(lead + (1,))
                out += (w * cb * ca[pb] * rows).take(pa[pb], axis=-1)
        return _as_columns(out, coeffs)


def _as_rows(coeffs: np.ndarray) -> np.ndarray:
    """Spinor axis last: a vector as is, a column stack ``(..., S, k)`` as ``(..., k, S)``.

    The stack is copied to C order: on a strided view, broadcast products and
    ``take`` along the spinor axis run several times slower."""
    coeffs = np.asarray(coeffs)
    return coeffs if coeffs.ndim == 1 else np.ascontiguousarray(coeffs.swapaxes(-1, -2))


def _as_columns(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_as_rows`` for the result of an action on ``coeffs``."""
    return rows if np.ndim(coeffs) == 1 else rows.swapaxes(-1, -2)


def _lead(batch: tuple[int, ...], coeffs: np.ndarray) -> tuple[int, ...]:
    """Shape of per-operator weights against ``_as_rows(coeffs)``: one more axis for columns."""
    return batch + (1,) * (np.ndim(coeffs) > 1)


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
    """Lift a skew ``(2n+1) x (2n+1)`` matrix, or a stack of them, to spinor operators."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim < 2 or omega.shape[-1] != omega.shape[-2] or omega.shape[-1] % 2 == 0:
        raise UnsupportedDimensionError(
            f"spin lift needs odd-dimensional square matrices, got {omega.shape}"
        )
    n = (omega.shape[-1] - 1) // 2
    return get_module(n).spin_lift(omega)
