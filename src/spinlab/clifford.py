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
basis, and so does a product ``e_a e_b``: one rule, ``_product``, serves the
spin lift and ``cliff_relations_check``.  The action satisfies ``e_i e_j +
e_j e_i = -2 delta_ij`` -- squares are minus the identity, not plus (readers
used to the ``+1`` convention should flip signs accordingly).

The lift of a skew matrix ``omega`` to a spinor operator uses
``e_i ^ e_j -> (1/2) e_i e_j`` where the skew matrix of ``e_i ^ e_j`` maps
``e_i`` to ``e_j`` (entry ``(j, i) = +1``); this normalisation is the one
for which ``[lift(omega), v.] = (omega v).`` holds as operators.

All actions are matrix-free and take coefficients with the spinor axis last,
``(..., 2**n)``: one coefficient vector, or a stack of them.  The spin lift
and the vector combination also take a stack of skew matrices ``(..., d, d)``
or of frame vectors ``(..., d)``, one operator per stack entry, whose batch
axes broadcast against the leading axes of the coefficients by numpy's rules.
``apply_spin_lift`` and ``moment_matrix`` can evaluate a given set of output
rows only, such as the rows a sparse spinor reaches (``reachable_rows``, from
the spinor's ``support``); the gather sources and phases come from bitmask
rules on just those rows, so a module holds no ``2**n`` array until an action
asks for every row, and a unit-spinor report reads no ``2**n`` coefficients.
A module keeps the tables of the last row set it built.  Dense ``2**n x 2**n``
operators are those actions applied to the rows of the identity, transposed,
available up to ``n = 8``.  Modules are capped at ``n = 16`` slots (see
``MAX_SLOTS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidOperatorError,
    InvalidSpinorError,
    UnsupportedDimensionError,
)

_DENSE_LIMIT = 8  # largest n for which dense operators are built

# Largest n a module is built for (dimension 33).  A unit-spinor report there
# stays on 137 rows, but an action on every row (a dense spinor, apply_combo)
# builds tables of 40n + 24 bytes per row: 43.5 MB per full-row set, the most a
# module keeps at rest, and 79 MB at peak during a build at n = 16.  Each further
# slot doubles them; refusing larger modules up front turns an allocation
# failure deep in numpy into a domain error.
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


@dataclass(frozen=True, eq=False)
class Spinor:
    """Coefficient vector over the subset basis of the spinor space.

    ``coeffs`` is a read-only ``(2**n,)`` complex array: a copy of the
    caller's array, or for ``one`` and ``basis`` the zero vector with its one
    entry set.  ``support`` holds the sorted indices of the nonzero
    coefficients: set directly by ``one`` and ``basis``, otherwise found by
    one scan on first use.  ``norm`` reads the support entries only, so a
    basis spinor costs no ``2**n`` work past its allocation.  Spinors compare
    and hash by identity, as the arrays they hold do not compare to one bool.
    """

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
        return cls._unit(n, 0)

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
        return cls._unit(n, mask)

    @classmethod
    def _unit(cls, n: int, mask: int) -> "Spinor":
        """Coefficient 1 on subset ``mask``, built in place: no defensive copy."""
        coeffs = _zeros(n)
        coeffs[mask] = 1.0
        coeffs.setflags(write=False)
        psi = object.__new__(cls)
        vars(psi).update(n=n, coeffs=coeffs, support=np.array([mask], dtype=np.int64))
        return psi

    @cached_property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs.take(self.support)))


class CliffordModule:
    """Clifford action of the frame of a (2n+1)-dim algebra, computed on the rows it touches.

    Each frame vector acts as ``(e_i psi)[S] = phase * psi[S ^ bit]``, indexed
    by output row ``S``; ``_bit`` and ``_frame_phase`` give both for any set
    of rows, so no ``2**n`` table exists until an action asks for every row.
    Per row set the module keeps ``perm``, the rows ``S ^ bit`` of each slot,
    the per-frame ``phase`` and, on a set of at most ``2**_DENSE_LIMIT`` rows,
    the ``_product`` of each pair as it is used.  It keeps the row set it built
    last; building another replaces it.  Every ``perm`` flips a fixed set of
    bits, so it and all its compositions are their own inverses.
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
        self._last: tuple | None = None  # (key, tables) of the last row set built

    def _frames(self, rows: np.ndarray | None) -> tuple:
        """``(perm, phase, pair cache)`` of a row set, ``None`` for every row.

        ``perm`` is ``(n+1, len(rows))``, with ``e_i`` reading ``perm[i >> 1]``
        (1-based ``i``), and ``phase`` is ``(2n+1, len(rows))``.  The pair
        cache is ``None`` on a set of more than ``2**_DENSE_LIMIT`` rows."""
        key = None if rows is None else np.asarray(rows, dtype=np.int64).tobytes()
        if self._last is None or self._last[0] != key:
            out = np.arange(self.dim_spinor) if rows is None else np.frombuffer(key, np.int64)
            perm = out ^ ((1 << np.arange(self.n + 1)[:, None]) >> 1)  # slot 0 flips no bit
            phase = _frame_phase(np.arange(self.dim_frame)[:, None], out)
            self._last = key, (perm, phase, {} if len(out) <= 1 << _DENSE_LIMIT else None)
        return self._last[1]

    def _pair(self, frames: tuple, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``_product`` of frame pair ``k`` on the row set of ``frames``, kept
        in its pair cache if it has one."""
        perm, _, pairs = frames
        if pairs is None:
            return _product(*self._pairs[k], perm[0])  # slot 0 flips no bit: the rows
        if k not in pairs:
            pairs[k] = _product(*self._pairs[k], perm[0])
        return pairs[k]

    def _identity(self) -> np.ndarray:
        if self.n > _DENSE_LIMIT:
            raise UnsupportedDimensionError(
                f"dense operators disabled for n > {_DENSE_LIMIT}; "
                "use the matrix-free apply_* methods instead"
            )
        return np.eye(self.dim_spinor)

    def vector_matrix(self, i: int) -> np.ndarray:
        """Dense matrix of the action of frame vector ``e_i`` (1-based)."""
        return self.apply_vector(i, self._identity()).swapaxes(-1, -2)

    def reachable_rows(self, psi: Spinor) -> np.ndarray | None:
        """Sorted rows on which some ``e_j psi`` or ``e_a e_b psi`` can be nonzero.

        A frame vector flips no slot bit (``e_1``) or one, so these rows are
        ``psi.support`` XOR no bit, one slot bit or two of them: ``1 + n +
        n(n-1)/2`` rows for a basis spinor.  The coefficients are not read.
        ``None`` (every row) when the support is too large for the set to be
        smaller.
        """
        flips = _flip_masks(self.n)
        if len(flips) >= self.dim_spinor:  # n <= 2: any one row reaches all of them
            return None
        support = psi.support
        if len(support) * len(flips) >= self.dim_spinor:
            return None
        # a mask, not np.unique or np.sort: np.unique imports numpy.ma (1.6 MB
        # of RSS), and the first sort faults in its code pages
        hit = np.zeros(self.dim_spinor, dtype=bool)
        hit[np.bitwise_xor.outer(support, flips)] = True
        return np.flatnonzero(hit)

    def apply_vector(self, i: int, coeffs: np.ndarray) -> np.ndarray:
        """Apply ``e_i`` to coefficients ``(..., 2**n)``."""
        if not 1 <= i <= self.dim_frame:
            raise IndexError(f"frame index {i} out of range 1..{self.dim_frame}")
        coeffs = _last_axis(coeffs, self.dim_spinor, InvalidSpinorError, "coefficients")
        perm, phase, _ = self._frames(None)
        return phase[i - 1] * coeffs.take(perm[i >> 1], axis=-1)

    def apply_combo(self, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Apply the Clifford action of the real frame vector ``sum v_i e_i``.

        ``v`` may carry batch axes ``(..., d)``, which broadcast against the
        leading axes of ``coeffs``; a frame index is skipped when its
        coefficient is zero in every vector of the stack.
        """
        v = _last_axis(v, self.dim_frame, InvalidOperatorError, "frame vectors", float)
        coeffs = _last_axis(coeffs, self.dim_spinor, InvalidSpinorError, "coefficients")
        out = np.zeros(np.broadcast_shapes(v.shape[:-1] + (1,), coeffs.shape), dtype=complex)
        perm, phase, _ = self._frames(None)
        live = (v != 0.0).any(axis=tuple(range(v.ndim - 1))).tolist()
        for i, on in enumerate(live):
            if on:
                out += v[..., i, None] * phase[i] * coeffs.take(perm[(i + 1) >> 1], axis=-1)
        return out

    def moment_matrix(self, psi: Spinor, rows: np.ndarray | None = None) -> np.ndarray:
        """Complex ``2**n x (2n+1)`` matrix of ``v -> v . psi`` on real frame vectors ``v``.

        Column ``i`` is ``e_{i+1} . psi``; the matrix has full real column rank
        for any nonzero ``psi``.  With ``rows``, only those spinor entries are
        kept (``len(rows)`` matrix rows).
        """
        perm, phase, _ = self._frames(rows)
        # one gather per slot; column i is e_{i+1} psi
        cols = phase * psi.coeffs.take(perm)[(np.arange(self.dim_frame) + 1) >> 1]
        return np.ascontiguousarray(cols.T)

    def _require_skew(self, omega: np.ndarray) -> np.ndarray:
        """``omega`` as a float array of ``(d, d)`` matrices, refused unless every
        matrix is finite and skew to within ``|omega + omega^T| <= 1e-12 max(1, max|omega|)``.

        A stack with ``omega^T == -omega`` in every entry passes that rule, so the
        scaled rule (``_inexact_skew``) runs only when some entry differs from its
        mirror's negation or is NaN.  On finite entries that test is the verdict of
        ``omega + omega^T != 0`` without the warning of ``inf + -inf``; an exactly
        mirrored ``+-inf`` pair passes it and lifts to a non-finite result.  Every
        skew matrix the package builds (``nomizu``, ``elementary_skews``, ``g - g^T``)
        is exact, so its check is one negation, one comparison and one ``any``."""
        omega = np.asarray(omega, dtype=float)
        d = self.dim_frame
        if omega.shape[-2:] != (d, d):
            raise InvalidOperatorError(
                f"expected {d}x{d} matrices, got shape {omega.shape}"
            )
        if (omega.swapaxes(-1, -2) != -omega).any() and _inexact_skew(omega):
            raise InvalidOperatorError("spin lift requires a finite skew-symmetric matrix")
        return omega

    def spin_lift(self, omega: np.ndarray) -> np.ndarray:
        """Dense spinor operator of the skew frame matrix ``omega``, or a stack of them."""
        eye = self._identity()
        omega = self._require_skew(omega)
        return self.apply_spin_lift(omega[..., None, :, :], eye).swapaxes(-1, -2)

    def apply_spin_lift(
        self, omega: np.ndarray, coeffs: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the lift of ``omega`` to coefficients ``(..., 2**n)``, matrix-free.

        ``omega`` is one skew matrix or a stack ``(..., d, d)`` whose batch axes
        broadcast against the leading axes of ``coeffs``; each result vector is
        ``lift(omega) @ psi``.  ``_require_skew`` refuses a stack that is not
        finite and skew; an exactly skew one costs it one comparison, and only
        an inexact one the scaled rule.  A pair ``(a, b)`` is skipped when
        ``omega[..., b, a]`` is zero in every matrix of the stack.  With
        ``rows``, only those output entries are evaluated (in that order along
        the spinor axis); ``None`` evaluates all of them.  Costs O(nonzero pairs
        x rows) per vector and stack entry, so it stays usable past the dense
        operator cutoff.
        """
        omega = self._require_skew(omega)
        coeffs = _last_axis(coeffs, self.dim_spinor, InvalidSpinorError, "coefficients")
        width = self.dim_spinor if rows is None else len(rows)
        shape = np.broadcast_shapes(omega.shape[:-2] + (1,), coeffs.shape[:-1] + (width,))
        out = np.zeros(shape, dtype=complex)
        live = omega != 0.0
        if omega.ndim > 2:
            live = live.any(axis=tuple(range(omega.ndim - 2)))
        frames = self._frames(rows)
        for k in np.flatnonzero(live.take(self._pair_entries)).tolist():
            a, b = self._pairs[k]
            src, coef = self._pair(frames, k)
            out += 0.5 * omega[..., b, a, None] * coef * coeffs.take(src, axis=-1)
        return out


def elementary_skews(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, skew)``: the frame pairs ``a < b``, a-major, and ``skew[k]``, the
    elementary skew matrix ``E_ba`` of pair ``k`` (entry ``(b, a) = 1``, ``(a, b) = -1``),
    so ``omega = sum_k omega[b_k, a_k] skew[k]`` for a skew ``(d, d)`` matrix."""
    a, b = np.triu_indices(d, 1)
    pair = np.arange(len(a))
    skew = np.zeros((len(a), d, d))
    skew[pair, b, a] = 1.0
    skew[pair, a, b] = -1.0
    return a, b, skew


def _last_axis(arr, size: int, error: type, what: str, dtype=None) -> np.ndarray:
    """``arr`` as an array of ``dtype``, refused with ``error`` unless its last axis
    has length ``size``."""
    arr = np.asarray(arr, dtype=dtype)
    if arr.shape[-1:] != (size,):
        raise error(f"{what} need a last axis of length {size}, got shape {arr.shape}")
    return arr


def _inexact_skew(omega: np.ndarray) -> bool:
    """True when some matrix of ``omega`` holds a NaN or infinite entry or breaks
    ``|omega + omega^T| <= 1e-12 max(1, max|omega|)``."""
    if not np.isfinite(omega).all():
        return True
    scale = np.maximum(1.0, np.abs(omega).max(axis=(-2, -1)))
    defect = np.abs(omega + omega.swapaxes(-1, -2)).max(axis=(-2, -1))
    return bool((defect > 1e-12 * scale).any())


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


def _product(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(src, coef)`` with ``(e_a e_b psi)[S] = coef psi[src]``, for 0-based frame indices
    and output rows that broadcast together: ``src = S ^ bit_a ^ bit_b``, the same
    for both orders of a pair, and ``coef = phase_a(S) phase_b(S ^ bit_a)``."""
    via = rows ^ _bit(a)
    return via ^ _bit(b), _frame_phase(a, rows) * _frame_phase(b, via)


@lru_cache(maxsize=None)
def _flip_masks(n: int) -> np.ndarray:
    """Bits flipped by a frame vector or a product of two: none, one slot bit, or two."""
    bits = [1 << p for p in range(n)]
    pairs = [x | y for k, x in enumerate(bits) for y in bits[k + 1 :]]
    return np.array([0, *bits, *pairs], dtype=np.int64)


@lru_cache(maxsize=16)
def get_module(n: int) -> CliffordModule:
    """Shared module instance for ``n`` slots; only the row set it keeps changes."""
    return CliffordModule(n)


def module_for_dim(dim: int) -> CliffordModule:
    """Shared module for a frame of odd dimension ``dim = 2n + 1 >= 3``."""
    if dim % 2 == 0:
        raise UnsupportedDimensionError(
            f"invariant-spinor analysis needs odd dimension, got {dim}"
        )
    if dim < 3:  # checked here: CliffordModule(0) would name its slot count, not the dimension
        raise UnsupportedDimensionError(
            f"invariant-spinor analysis needs dimension at least 3, got {dim}"
        )
    return get_module((dim - 1) // 2)


def cliff_relations_check(n: int) -> tuple[bool, float]:
    """Verify ``e_i e_j + e_j e_i = -2 delta_ij`` on the whole spinor space.

    Returns ``(ok, max_violation)`` of ``coef_ij + coef_ji + 2 delta_ij`` from
    ``_product`` over all frame index pairs, ``ok`` when it is at most 1e-12: a NaN
    coefficient gives ``(False, nan)``.
    """
    mod = get_module(n)
    frames, passes = np.arange(mod.dim_frame), []
    # passes of at most the rows of a dense operator: at n = 16, 20 MB and not 3 GB
    for rows in np.arange(mod.dim_spinor).reshape(-1, min(mod.dim_spinor, 1 << _DENSE_LIMIT)):
        coef = _product(frames[:, None, None], frames[:, None], rows)[1]  # (d, d, rows)
        anti = coef + coef.swapaxes(0, 1) + 2.0 * np.eye(mod.dim_frame)[..., None]
        passes.append(np.max(np.abs(anti)))
    worst = float(np.max(passes))
    return worst <= 1e-12, worst
