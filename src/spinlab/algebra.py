"""Metric Lie algebras: structure constants, Jacobi checks, orthonormal frames.

A Lie algebra is stored as a dense rank-3 tensor ``c`` with
``c[i, j, k]`` = coefficient of basis vector ``k`` in the bracket of basis
vectors ``i`` and ``j`` (0-based internally; reports and docs use 1-based
labels).  An inner product is a symmetric positive-definite Gram matrix in
the same basis.  Gram-Schmidt of the ordered basis produces the unique
upper-triangular, positive-diagonal frame matrix whose columns form an
orthonormal basis, preserving orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidFrameError, InvalidMetricError, StructureError

# Antisymmetry must hold essentially exactly in the input; it is then
# enforced bit-exactly so downstream identities cancel in floating point.
_ANTISYMMETRY_TOL = 1e-12

# Guard on frame^T gram frame = Id at construction; the test suite asserts
# the tighter 1e-12 bound on every case it builds.
_ORTHONORMALITY_GUARD = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LieAlgebra:
    """A real Lie algebra given by structure constants in a fixed basis.

    Attributes:
        dim: dimension of the algebra.
        c: shape ``(dim, dim, dim)`` array, antisymmetric in the first two
            indices, with ``c[i, j, k]`` the ``k``-coefficient of
            ``[f_i, f_j]``.
    """

    dim: int
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise StructureError(f"dimension must be positive, got {self.dim}")
        arr = np.asarray(self.c, dtype=float)
        if arr.shape != (self.dim, self.dim, self.dim):
            raise StructureError(
                f"structure tensor has shape {arr.shape}, "
                f"expected {(self.dim,) * 3}"
            )
        if not np.isfinite(arr).all():  # a NaN or mirrored inf would pass the defect test
            raise StructureError("structure constants must be finite")
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        defect = float(np.max(np.abs(arr + arr.transpose(1, 0, 2))))
        if defect > _ANTISYMMETRY_TOL * scale:
            raise StructureError(
                f"structure constants not antisymmetric (defect {defect:.3e})"
            )
        arr = 0.5 * (arr - arr.transpose(1, 0, 2))
        object.__setattr__(self, "c", _freeze(arr))

    @classmethod
    def from_brackets(
        cls, dim: int, brackets: dict[tuple[int, int], dict[int, float]]
    ) -> "LieAlgebra":
        """Build from sparse 1-based bracket data ``{(i, j): {k: coeff}}``.

        Only pairs with ``i < j`` need to be given; the antisymmetric
        completion is implicit.
        """
        c = np.zeros((dim, dim, dim))
        for (i, j), coeffs in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim and i != j):
                raise StructureError(f"bad bracket index pair ({i}, {j})")
            for k, val in coeffs.items():
                if not 1 <= k <= dim:
                    raise StructureError(f"bad bracket target index {k}")
                c[i - 1, j - 1, k - 1] += val
                c[j - 1, i - 1, k - 1] -= val
        return cls(dim, c)


def jacobi_violation(alg: LieAlgebra | np.ndarray) -> float | np.ndarray:
    """Maximum absolute entry of the Jacobi tensor of ``alg``, a ``LieAlgebra`` or
    structure constants ``(..., d, d, d)``: a float, or one maximum per algebra of a
    stack.  A NaN constant gives a NaN maximum."""
    c = alg.c if isinstance(alg, LieAlgebra) else np.asarray(alg, dtype=float)
    b, d = c.shape[:-3], c.shape[-1]
    # t[..., i, j, k, l] = sum_m c[..., i, j, m] c[..., m, k, l] as one BLAS matmul, which
    # np.einsum does not route this contraction to
    t = (c.reshape(b + (d * d, d)) @ c.reshape(b + (d, d * d))).reshape(b + (d,) * 4)
    jac = t + np.moveaxis(t, -2, -4) + np.moveaxis(t, -4, -2)  # cyclic sum over (i, j, k)
    worst = np.max(np.abs(jac), axis=(-4, -3, -2, -1), initial=0.0)
    return float(worst) if c.ndim == 3 else worst


def check_jacobi(alg: LieAlgebra, tol: float = 1e-9) -> tuple[bool, float]:
    """Test the Jacobi identity entrywise.

    Returns ``(ok, violation)`` where ``violation`` is the maximum absolute
    entry of the cyclic Jacobi sum and ``ok`` holds when it stays below
    ``tol`` scaled by the squared magnitude of the structure constants.
    """
    violation = jacobi_violation(alg)
    cmax = float(np.max(np.abs(alg.c))) if alg.c.size else 0.0
    scale = max(1.0, cmax * cmax)
    return violation <= tol * scale, violation


@lru_cache(maxsize=16)
def _frame_indices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``arange(dim)`` and ``triu_indices(dim, 1)``, built once per ``dim``."""
    return tuple(_freeze(idx) for idx in (np.arange(dim), *np.triu_indices(dim, 1)))


def _frames_from_draws(dim: int, draws: np.ndarray) -> np.ndarray:
    """``(..., dim, dim)`` frames of ``random_frames`` from their ``(..., dim + dim(dim-1)/2)``
    uniform draws: one ``exp`` and one zero stack for any number of leading axes."""
    frames = np.zeros(draws.shape[:-1] + (dim, dim))
    diag, rows, cols = _frame_indices(dim)
    frames[..., diag, diag] = np.exp(draws[..., :dim])
    frames[..., rows, cols] = draws[..., dim:]
    return frames


def random_frames(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of ``count`` random well-conditioned ``(dim, dim)`` frame matrices.

    Each sample draws its diagonal log-uniform on ``[1/e, e]`` first, then its
    strict upper triangle uniform on ``[-1, 1]`` row-major: a seeded generator
    gives the same frames drawn in one stack or one at a time.  ``gks.sweep_grid``
    makes the same draws per family and builds a whole pass through
    ``_frames_from_draws`` at once."""
    draws = rng.uniform(-1.0, 1.0, size=(count, dim + dim * (dim - 1) // 2))
    return _frames_from_draws(dim, draws)


@dataclass(frozen=True)
class FrameChange:
    """Upper-triangular positive-diagonal change of basis.

    Columns of ``matrix`` are the orthonormal frame vectors expressed in the
    original basis; for the 3-dimensional case the entries are named
    ``(alpha, beta, gamma; 0, epsilon, zeta; 0, 0, iota)``, as in the ``frame_P``
    documents of ``serialize.frame_change_from_obj``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidFrameError(f"frame matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidFrameError("frame matrix entries must be finite")
        if np.any(np.abs(np.tril(m, -1)) > 0):
            raise InvalidFrameError("frame matrix must be upper-triangular")
        if np.any(np.diag(m) <= 0):
            raise InvalidFrameError("frame diagonal entries must be positive")
        object.__setattr__(self, "matrix", _freeze(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "FrameChange":
        """Sample a well-conditioned frame change: ``random_frames`` with one sample."""
        return cls(random_frames(dim, rng, 1)[0])


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with an inner product and its orthonormal frame.

    ``frame`` columns are the orthonormal basis vectors in original
    coordinates (upper-triangular, positive diagonal), ``ortho_c`` are the
    structure constants re-expressed in that frame.
    """

    algebra: LieAlgebra
    gram: np.ndarray
    frame: np.ndarray
    ortho_c: np.ndarray

    def __post_init__(self) -> None:
        gram = np.asarray(self.gram, dtype=float)
        frame = np.asarray(self.frame, dtype=float)
        oc = np.asarray(self.ortho_c, dtype=float)
        d = self.algebra.dim
        if gram.shape != (d, d) or frame.shape != (d, d) or oc.shape != (d, d, d):
            raise StructureError("inconsistent shapes in metric Lie algebra")
        _check_orthonormal(gram, frame)
        object.__setattr__(self, "gram", _freeze(gram.copy()))
        object.__setattr__(self, "frame", _freeze(frame.copy()))
        object.__setattr__(self, "ortho_c", _freeze(oc.copy()))

    @property
    def dim(self) -> int:
        return self.algebra.dim


def _check_orthonormal(gram: np.ndarray, frame: np.ndarray) -> None:
    """Raise unless ``frame^T gram frame = Id``, for one frame or a stack."""
    defect = frame.swapaxes(-1, -2) @ gram @ frame - np.eye(frame.shape[-1])
    resid = float(np.max(np.abs(defect), initial=0.0))
    if not resid <= _ORTHONORMALITY_GUARD:  # also rejects a NaN residual
        raise InvalidMetricError(f"frame is not gram-orthonormal (residual {resid:.3e})")


def _orthonormal_structure(c: np.ndarray, frame: np.ndarray, frame_inv: np.ndarray):
    """Structure constants ``(..., d, d, d)`` in the frames ``(..., d, d)`` given in f-coords,
    with ``frame_inv`` their inverses; the leading axes of ``c`` and ``frame`` broadcast
    against each other.

    The matmuls work in the ``(..., m, i, j)`` layout, output index ``m`` first; the
    antisymmetrisation runs there too, and one ``moveaxis`` then puts ``m`` last."""
    p = frame[..., None, :, :]
    s = p.swapaxes(-1, -2) @ np.moveaxis(c, -1, -3) @ p  # (P^T c_m P)_ij at [..., m, i, j]
    t = (frame_inv @ s.reshape(*s.shape[:-2], c.shape[-1] ** 2)).reshape(s.shape)  # m with P^-1
    # exact antisymmetry, so metricity of the connection cancels bit-exactly
    return np.moveaxis(0.5 * (t - t.swapaxes(-1, -2)), -3, -1)


def frame_structure(
    alg: LieAlgebra | np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices ``inv(P P^T)`` and orthonormal structure constants of frames ``P``.

    ``frames`` is one frame matrix or a stack, ``alg`` one algebra or structure constants
    ``(..., d, d, d)`` whose leading axes broadcast against the frames' (``(F, 1, d, d, d)``
    for ``(F, N, d, d)``); raises ``InvalidMetricError`` if any frame fails the guard.
    """
    pinv = np.linalg.inv(frames)
    gram = pinv.swapaxes(-1, -2) @ pinv
    gram = 0.5 * (gram + gram.swapaxes(-1, -2))
    _check_orthonormal(gram, frames)
    c = alg.c if isinstance(alg, LieAlgebra) else alg
    return gram, _orthonormal_structure(c, frames, pinv)


def orthonormalize(alg: LieAlgebra, gram: np.ndarray) -> MetricLieAlgebra:
    """Gram-Schmidt the standard basis of ``alg`` against ``gram``.

    Returns the metric Lie algebra whose frame is the unique
    upper-triangular positive-diagonal matrix with
    ``frame.T @ gram @ frame = Id``.
    """
    gram = np.asarray(gram, dtype=float)
    d = alg.dim
    if gram.shape != (d, d):
        raise InvalidMetricError(f"gram matrix has shape {gram.shape}, expected {(d, d)}")
    if not np.all(np.isfinite(gram)):
        raise InvalidMetricError("gram matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(gram))))
    if float(np.max(np.abs(gram - gram.T))) > 1e-9 * scale:
        raise InvalidMetricError("gram matrix is not symmetric")
    gram = 0.5 * gram + 0.5 * gram.T  # halves first: a sum of two huge entries overflows
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise InvalidMetricError("gram matrix is not positive-definite") from exc
    frame = np.triu(np.linalg.inv(lower).T)
    return MetricLieAlgebra(
        alg, gram, frame, _orthonormal_structure(alg.c, frame, np.linalg.inv(frame))
    )


def metric_from_frame_change(alg: LieAlgebra, p: FrameChange) -> MetricLieAlgebra:
    """Inner product for which the columns of ``p`` are orthonormal.

    Agrees with ``orthonormalize(alg, inv(P P^T))`` but keeps the frame
    matrix exactly equal to ``p``.
    """
    if p.dim != alg.dim:
        raise InvalidFrameError(
            f"frame dimension {p.dim} does not match algebra dimension {alg.dim}"
        )
    gram, ortho_c = frame_structure(alg, p.matrix)
    return MetricLieAlgebra(alg, gram, p.matrix, ortho_c)
