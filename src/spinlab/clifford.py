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
entry, broadcast against the coefficient stacks.  ``apply_spin_lift`` and
``moment_matrix`` can evaluate a given set of output rows only, such as
the rows a sparse spinor reaches (``reachable_rows``); the gather sources
and phases come from bitmask rules on just those rows, so a module holds
no ``2**n`` array until an action asks for every row.  Dense ``2**n x 2**n``
operators are those actions applied to the identity, available up to
``n = 8``.  Modules are capped at ``n = 16`` slots (see ``MAX_SLOTS``).
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
# Least budget, in bytes, of a module's row-set cache; the full-row tables
# (40n + 24 bytes per row) are smaller up to n = 9.  The benchmark's modules
# up to n = 6 hold at most 22 KB (n = 4), and a unit spinor's row set with
# every pair cached takes 207 KB at n = 9.
_CACHE_FLOOR = 1 << 18

# Largest n a module is built for (dimension 33).  A unit-spinor report there
# stays on 137 rows, but an action on every row (a dense spinor, apply_combo)
# builds tables of 40n + 24 bytes per row: 43.5 MB kept and 79 MB at peak at
# n = 16, and each further slot doubles them; refusing larger modules up
# front turns an allocation failure deep in numpy into a domain error.
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
    """Clifford action of the frame of a (2n+1)-dim algebra, computed on the rows it touches.

    Each frame vector acts as ``(e_i psi)[S] = phase * psi[S ^ bit]``, indexed
    by output row ``S``; ``_bit`` and ``_frame_phase`` give both for any set
    of rows, so no ``2**n`` table exists until an action asks for every row.
    Per row set the module keeps ``perm``, the rows ``S ^ bit`` of each slot,
    the per-frame ``phase`` and, filled as pairs are used, the per-pair
    ``(src, coef)`` of ``e_a e_b``.  It drops the least recently used sets to
    stay within the bytes of its full-row tables, which are the bytes the
    eager tables once took (at least ``_CACHE_FLOOR``).  Every ``perm`` flips
    a fixed set of bits, so it and all its compositions are their own inverses.
    """

    def __init__(self, n: int):
        if n < 1:
            raise UnsupportedDimensionError(f"spinor module needs n >= 1, got {n}")
        check_slots(n)
        self.n = n
        self.dim_spinor = 2**n
        self.dim_frame = 2 * n + 1
        a, b = np.triu_indices(self.dim_frame, 1)  # frame pairs a < b, a-major
        self._pairs = list(zip(a.tolist(), b.tolist()))
        self._pair_entries = b * self.dim_frame + a  # omega[b, a] in a flattened omega
        # least recently used first, within the bytes the eager tables took
        self._row_sets: dict[bytes | None, tuple] = {}
        self._held = 0
        self._budget = max((40 * n + 24) * self.dim_spinor, _CACHE_FLOOR)

    def _frames(self, rows: np.ndarray | None) -> tuple:
        """``(perm, phase, pair cache)`` of a row set, ``None`` for every row.

        ``perm`` is ``(n+1, len(rows))``, with ``e_i`` reading ``perm[i >> 1]``
        (1-based ``i``), and ``phase`` is ``(2n+1, len(rows))``.  The pair
        cache is ``None`` when the tables do not fit the budget, even alone."""
        key = None if rows is None else np.asarray(rows, dtype=np.int64).tobytes()
        frames = self._row_sets.pop(key, None)
        if frames is None:
            out = np.arange(self.dim_spinor) if rows is None else np.frombuffer(key, np.int64)
            perm = out ^ ((1 << np.arange(self.n + 1)[:, None]) >> 1)  # slot 0 flips no bit
            phase = _frame_phase(np.arange(self.dim_frame)[:, None], out)
            if not self._room(len(key or b"") + perm.nbytes + phase.nbytes, keep=0):
                return perm, phase, None
            frames = perm, phase, {}
        self._row_sets[key] = frames
        return frames

    def _room(self, size: int, keep: int) -> bool:
        """Account ``size`` more bytes if they fit the budget, after dropping
        the least recently used row sets, all but the last ``keep``."""
        while self._held + size > self._budget and len(self._row_sets) > keep:
            key = next(iter(self._row_sets))
            perm, phase, pairs = self._row_sets.pop(key)
            self._held -= len(key or b"") + perm.nbytes + phase.nbytes
            self._held -= sum(src.nbytes + coef.nbytes for src, coef in pairs.values())
        if self._held + size > self._budget:
            return False
        self._held += size
        return True

    def _pair(self, frames: tuple, k: int, every_row: bool) -> tuple[np.ndarray, np.ndarray]:
        """``(src, coef)`` of frame pair ``k`` on the row set of ``frames``:
        ``(e_a e_b psi)[S] = coef psi[src]`` with ``coef = phase_a(S) phase_b(S ^ bit_a)``.
        Kept with the row set while it fits the budget."""
        perm, phase, pairs = frames
        if pairs is not None and k in pairs:
            return pairs[k]
        a, b = self._pairs[k]
        via = perm[(a + 1) >> 1]  # S ^ bit_a
        if every_row:  # e_b's phases cover S ^ bit_a
            phase_b = phase[b].take(via)
        else:
            phase_b = _frame_phase(b, via)
        entry = via ^ _bit(b), phase[a] * phase_b
        if pairs is not None and self._room(entry[0].nbytes + entry[1].nbytes, keep=1):
            pairs[k] = entry
        return entry

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

    def reachable_rows(self, coeffs: np.ndarray) -> np.ndarray | None:
        """Sorted rows on which some ``e_j psi`` or ``e_a e_b psi`` can be nonzero.

        A frame vector flips no slot bit (``e_1``) or one, so these rows are
        ``supp(psi)`` XOR no bit, one slot bit or two of them: ``1 + n +
        n(n-1)/2`` rows for a basis spinor.  ``None`` (every row) when the
        support is too large for the set to be smaller.
        """
        flips = _flip_masks(self.n)
        if len(flips) >= self.dim_spinor:  # n <= 2: any one row reaches all of them
            return None
        support = np.flatnonzero(coeffs)
        if len(support) * len(flips) >= self.dim_spinor:
            return None
        # a mask, not np.unique or np.sort: np.unique imports numpy.ma (1.6 MB
        # of RSS), and the first sort faults in its code pages
        hit = np.zeros(self.dim_spinor, dtype=bool)
        hit[np.bitwise_xor.outer(support, flips)] = True
        return np.flatnonzero(hit)

    def apply_vector(self, i: int, coeffs: np.ndarray) -> np.ndarray:
        """Apply ``e_i`` to a coefficient vector or to each column of a stack."""
        self._check_index(i)
        perm, phase, _ = self._frames(None)
        return _as_columns(phase[i - 1] * _as_rows(coeffs).take(perm[i >> 1], axis=-1), coeffs)

    def apply_combo(self, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the Clifford action of the real frame vector ``sum v_i e_i``.

        ``v`` may carry leading batch axes ``(..., d)``; a frame index is
        skipped when its coefficient is zero in every vector of the stack.
        """
        v = np.asarray(v, dtype=float)
        rows = _as_rows(coeffs)
        lead = _lead(v.shape[:-1], coeffs)
        out = np.zeros(np.broadcast_shapes(lead + rows.shape[-1:], rows.shape), dtype=complex)
        perm, phase, _ = self._frames(None)
        live = (v != 0.0).any(axis=tuple(range(v.ndim - 1))).tolist()
        for i, on in enumerate(live):
            if on:
                w = v[..., i].reshape(lead + (1,))
                out += w * phase[i] * rows.take(perm[(i + 1) >> 1], axis=-1)
        return _as_columns(out, coeffs)

    def moment_matrix(self, psi: Spinor, rows: np.ndarray | None = None) -> np.ndarray:
        """Real ``2**(n+1) x (2n+1)`` matrix of ``v -> v . psi``.

        Columns are the actions of the frame vectors on ``psi`` with real
        and imaginary parts stacked; it has full column rank for any
        nonzero ``psi``.  With ``rows``, only those spinor entries are kept
        (``2 len(rows)`` matrix rows).
        """
        perm, phase, _ = self._frames(rows)
        # one gather per slot; column i is e_{i+1} psi
        cols = phase * psi.coeffs.take(perm)[(np.arange(self.dim_frame) + 1) >> 1]
        return np.ascontiguousarray(np.hstack([cols.real, cols.imag]).T)

    def _require_skew(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        d = self.dim_frame
        if omega.shape[-2:] != (d, d):
            raise InvalidOperatorError(
                f"expected {d}x{d} matrices, got shape {omega.shape}"
            )
        if omega.ndim == 2:  # one matrix: the same test without per-matrix reductions
            bad = abs(omega + omega.T).max() > 1e-12 * max(1.0, abs(omega).max())
        else:
            scale = np.maximum(1.0, np.abs(omega).max(axis=(-2, -1)))
            defect = np.abs(omega + omega.swapaxes(-1, -2)).max(axis=(-2, -1))
            bad = (defect > 1e-12 * scale).any()
        if bad:
            raise InvalidOperatorError("spin lift requires a skew-symmetric matrix")
        return omega

    def spin_lift(self, omega: np.ndarray) -> np.ndarray:
        """Dense spinor operator of the skew frame matrix ``omega``, or a stack of them."""
        return self.apply_spin_lift(omega, self._identity())

    def apply_spin_lift(
        self, omega: np.ndarray, coeffs: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the lift of ``omega`` to a coefficient vector or stack, matrix-free.

        ``omega`` is one skew matrix or a stack ``(..., d, d)``; the result is
        ``lift(omega) @ coeffs`` with matmul broadcasting.  A pair ``(a, b)``
        is skipped when ``omega[..., b, a]`` is zero in every matrix of the
        stack.  With ``rows``, only those output entries are evaluated (in
        that order along the spinor axis); ``None`` evaluates all of them.
        Costs O(nonzero pairs * rows) per column and stack entry, so it
        stays usable past the dense operator cutoff.
        """
        omega = self._require_skew(omega)
        vecs = _as_rows(coeffs)
        lead = _lead(omega.shape[:-2], coeffs)
        width = (self.dim_spinor if rows is None else len(rows),)
        out = np.zeros(np.broadcast_shapes(lead + width, vecs.shape[:-1] + width), dtype=complex)
        live = omega != 0.0
        if omega.ndim > 2:
            live = live.any(axis=tuple(range(omega.ndim - 2)))
        frames = self._frames(rows)
        for k in np.flatnonzero(live.take(self._pair_entries)).tolist():
            a, b = self._pairs[k]
            src, coef = self._pair(frames, k, rows is None)
            w = (0.5 * omega[..., b, a]).reshape(lead + (1,))
            out += w * coef * vecs.take(src, axis=-1)
        return _as_columns(out, coeffs)


def _bit(frames: np.ndarray) -> np.ndarray:
    """Slot bit flipped by 0-based frame vectors: none for ``e_1``, ``p-1`` for ``e_{2p}``, ``e_{2p+1}``."""
    return (1 << ((frames + 1) >> 1)) >> 1


def _frame_phase(frames: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``phase`` with ``(e_i psi)[S] = phase psi[S ^ _bit(i)]``, for 0-based frame
    indices and output rows (ints or int64 arrays that broadcast together).

    Each phase comes from the same floating-point expression whatever the
    rows asked for, so values and signed zeros do not depend on them."""
    bit = _bit(frames)
    # set bits below the slot; for e_1, bit - 1 = -1 and this is the parity
    koszul = 1.0 - 2.0 * (np.bitwise_count(rows & (bit - 1)) & 1)
    # output row S reads S ^ bit: a wedge when S has the bit, else a contraction
    sign = np.where((rows & bit) != 0, 1.0, np.where(frames & 1, 1.0, -1.0))
    # in place, to keep a full-row table's temporaries small: i koszul for e_1,
    # (i koszul) sign for e_{2p}, koszul sign for e_{2p+1}
    phase = 1j * koszul
    np.multiply(phase, sign, out=phase, where=(frames & 1) == 1)
    real = (frames > 0) & ((frames & 1) == 0)  # e_{2p+1}
    np.copyto(phase, np.multiply(koszul, sign, out=koszul), where=real)
    return phase


@lru_cache(maxsize=None)
def _flip_masks(n: int) -> np.ndarray:
    """Bits flipped by a frame vector or a product of two: none, one slot bit, or two."""
    bits = [1 << p for p in range(n)]
    pairs = [x | y for k, x in enumerate(bits) for y in bits[k + 1 :]]
    return np.array([0, *bits, *pairs], dtype=np.int64)


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
def get_module(n: int) -> CliffordModule:
    """Shared module instance for ``n`` slots; only its bounded row-set cache changes."""
    return CliffordModule(n)


def module_for_dim(dim: int) -> CliffordModule:
    """Shared module for a frame of odd dimension ``dim = 2n + 1``."""
    if dim % 2 == 0:
        raise UnsupportedDimensionError(
            f"invariant-spinor analysis needs odd dimension, got {dim}"
        )
    return get_module((dim - 1) // 2)


def cliff_relations_check(n: int) -> tuple[bool, float]:
    """Verify ``e_i e_j + e_j e_i = -2 delta_ij`` on the whole spinor space.

    Returns ``(ok, max_violation)`` over all frame index pairs, ``ok`` when
    the violation is at most 1e-12.
    """
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
