"""Solving the generalised Killing equation for invariant spinors.

Given a metric Lie algebra of odd dimension and a nonzero invariant spinor
``psi``, the solver finds, for each frame vector ``e_i``, the frame vector
``v`` closest to solving ``v . psi = lift(L_i) . psi`` and assembles the
columns into a matrix ``A``.  The map ``v -> v . psi`` is ``|psi|`` times
an isometry, so ``v`` is an exact orthogonal projection.  The spinor is
generalised Killing precisely when the projection leaves no misfit and
``A`` is symmetric; in dimension 3 the same ``A`` then works for every
invariant spinor, so the space of invariant generalised Killing spinors is
either all of the spinor space or zero.  The projection runs only on the
spinor rows that ``psi`` reaches (``1 + n + n(n-1)/2`` of ``2**n`` for a
basis spinor), so the ``H(2n+1)`` ladder costs no ``2**n`` work per column.

Sweeps (``genericity_sweep``, ``table1_rows``) analyse all their metrics in
one array pass of ``sweep_frames`` over a stack from ``random_frames``,
which draws the same frames, in the same order, as ``FrameChange.random``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import LieAlgebra, MetricLieAlgebra, frame_structure, random_frames
from .catalog import BianchiFamily, make_bianchi
from .clifford import CliffordModule, Spinor, get_module
from .connection import NomizuMap, curvature, nomizu
from .errors import InvalidSpinorError, SpinlabError, StructureError, UnsupportedDimensionError

DEFAULT_TOL = 1e-9
DEFAULT_GAP_TOL = 1e-7


@dataclass(frozen=True)
class GKReport:
    """Full analysis of the invariant-spinor endomorphism of one metric.

    ``gks_space_dim`` is the complex dimension of the space of invariant
    generalised Killing spinors in dimension 3 (0 or 2); in higher
    dimensions only the designated spinor is tested, no space dimension is
    claimed, and the field is ``None`` (``tested_spinor_gk`` records the
    per-spinor outcome instead).
    """

    dim: int
    A: np.ndarray
    solve_residual: float
    is_symmetric: bool
    asymmetry: np.ndarray
    asymmetry_norm: float
    eigenvalues: list[float] | None
    distinct_count: int | None
    dirac_eigenvalue: float
    ricci: np.ndarray
    commutator_norm: float
    gks_space_dim: int | None
    basis_residual: float | None = None
    tested_spinor_gk: bool | None = None

    def to_dict(self) -> dict:
        """JSON-ready mapping with a fixed key order."""
        return {
            "A": self.A,
            "solve_residual": self.solve_residual,
            "symmetric": self.is_symmetric,
            "asymmetry": self.asymmetry,
            "eigenvalues": self.eigenvalues,
            "distinct_count": self.distinct_count,
            "dirac_eigenvalue": self.dirac_eigenvalue,
            "ricci": self.ricci,
            "commutator_norm": self.commutator_norm,
            "gks_space_dim": self.gks_space_dim,
        }


def _odd_module(dim: int) -> CliffordModule:
    if dim % 2 == 0:
        raise UnsupportedDimensionError(
            f"invariant-spinor analysis needs odd dimension, got {dim}"
        )
    return get_module((dim - 1) // 2)


def _project(
    mla: MetricLieAlgebra, psi: Spinor, nm: NomizuMap | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Exact projection of the Killing equation onto ``v -> v . psi``.

    With real and imaginary parts stacked, the moment matrix ``M`` of
    ``v -> v . psi`` satisfies ``M^T M = |psi|^2 I`` (the frame vectors
    anticommute and square to ``-1``), so the best frame vector for column
    ``i`` of ``R = [lift(L_i) . psi]`` is column ``i`` of ``M^T R / |psi|^2``.
    ``M`` and ``R`` are built only on the spinor rows ``psi`` can reach
    (``CliffordModule.reachable_rows``); every other row of both is zero, so
    nothing is dropped.  Returns that matrix ``A``, ``R``, the misfit
    ``M A - R`` (on the same rows) and ``|psi|^2``.
    """
    d = mla.dim
    mod = _odd_module(d)
    if psi.n != mod.n:
        raise InvalidSpinorError(
            f"spinor has {psi.n} slots, metric algebra needs {mod.n}"
        )
    norm = psi.norm
    if norm == 0.0:
        raise InvalidSpinorError("cannot solve the Killing equation on the zero spinor")
    nm = nm if nm is not None else nomizu(mla)
    rows = mod.reachable_rows(psi.coeffs)
    m = mod.moment_matrix(psi, rows)
    cols = np.column_stack(
        [mod.apply_spin_lift(nm.mats[i], psi.coeffs, rows) for i in range(d)]
    )
    rhs = np.vstack([cols.real, cols.imag])
    norm2 = norm**2
    a = m.T @ rhs / norm2
    return a, rhs, m @ a - rhs, norm2


def solve_endomorphism(
    mla: MetricLieAlgebra,
    psi: Spinor,
    tol: float = DEFAULT_TOL,
    _nm: NomizuMap | None = None,
) -> tuple[np.ndarray, float]:
    """Endomorphism of the generalised Killing equation by exact projection.

    Column ``i`` of the returned matrix is the frame vector ``v`` minimising
    ``|v . psi - lift(L_i) . psi|``, obtained in closed form because
    ``v -> v . psi`` scales every frame vector by ``|psi|`` and keeps them
    orthogonal; the residual is the worst per-column misfit relative to
    ``max(1, |rhs|)``.  The candidate is an actual generalised Killing
    endomorphism only when the residual is below ``tol`` and the matrix is
    symmetric.
    """
    a, rhs, misfit, _ = _project(mla, psi, _nm)
    col_res = np.linalg.norm(misfit, axis=0)
    col_scale = np.maximum(1.0, np.linalg.norm(rhs, axis=0))
    return a, float(np.max(col_res / col_scale))


def solve_symmetric_endomorphism(
    mla: MetricLieAlgebra,
    psi: Spinor,
    _nm: NomizuMap | None = None,
) -> tuple[np.ndarray, float]:
    """Best symmetric endomorphism for the Killing equation, with misfit.

    Since ``v -> v . psi`` is ``|psi|`` times an isometry, the symmetric
    matrix closest to solving all frame directions at once is the
    symmetric part of the unconstrained solution ``A``; the returned
    residual is the absolute norm of its stacked misfit,
    ``sqrt(|M A - R|^2 + |psi|^2 |skew A|^2)`` (for a unit spinor with an
    exact fit, the Frobenius norm of the skew part of ``A``).  A residual
    well above zero certifies that no symmetric solution exists.
    """
    a, _, misfit, norm2 = _project(mla, psi, _nm)
    skew = 0.5 * (a - a.T)
    residual = float(np.sqrt(np.sum(misfit**2) + norm2 * np.sum(skew**2)))
    return 0.5 * (a + a.T), residual


def explicit_A_3d(ortho_c: np.ndarray) -> np.ndarray:
    """Closed-form endomorphism matrix in dimension 3.

    Direct transcription in terms of the orthonormal-frame structure
    constants; must agree with ``solve_endomorphism`` on the unit spinor.
    """
    c = np.asarray(ortho_c, dtype=float)
    if c.shape != (3, 3, 3):
        raise UnsupportedDimensionError(
            f"explicit endomorphism needs dimension 3, got shape {c.shape}"
        )
    c121, c122, c123 = c[0, 1, 0], c[0, 1, 1], c[0, 1, 2]
    c131, c132, c133 = c[0, 2, 0], c[0, 2, 1], c[0, 2, 2]
    c231, c232, c233 = c[1, 2, 0], c[1, 2, 1], c[1, 2, 2]
    return np.array(
        [
            [0.25 * (c123 - c132 - c231), -0.5 * c232, -0.5 * c233],
            [0.5 * c131, 0.25 * (c123 + c132 + c231), 0.5 * c133],
            [-0.5 * c121, -0.5 * c122, 0.25 * (-c123 - c132 + c231)],
        ]
    )


def symmetry_conditions_3d(ortho_c: np.ndarray, tol: float = DEFAULT_TOL) -> bool | np.ndarray:
    """The three structure-constant identities equivalent to ``A`` symmetric, per stack entry."""
    c = np.asarray(ortho_c, dtype=float)
    if c.shape[-3:] != (3, 3, 3):
        raise UnsupportedDimensionError(
            f"symmetry conditions need dimension 3, got shape {c.shape}"
        )
    conds = (
        c[..., 0, 2, 0] + c[..., 1, 2, 1],
        c[..., 0, 1, 0] - c[..., 1, 2, 2],
        c[..., 0, 1, 1] + c[..., 0, 2, 2],
    )
    scale = np.maximum(1.0, np.max(np.abs(c), axis=(-3, -2, -1)))
    ok = np.all([np.abs(v) <= tol * scale for v in conds], axis=0)
    return ok if c.ndim > 3 else bool(ok)


def dirac_trace_3d(ortho_c: np.ndarray) -> float:
    """Trace of the endomorphism in dimension 3, as a structure-constant form."""
    c = np.asarray(ortho_c, dtype=float)
    return 0.25 * float(c[0, 1, 2] - c[0, 2, 1] + c[1, 2, 0])


def eigen_analysis(
    a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL, sym_tol: float = 1e-8
) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of a symmetric matrix and their distinct count.

    Eigenvalues closer than ``gap_tol * max(1, spectral radius)`` are
    clustered together.  Raises if the input is not symmetric within
    ``sym_tol`` (relative): the rule of the symmetry verdict, so
    ``full_report`` and ``sweep_frames`` pass their ``tol``.  A ``(N, d, d)``
    stack gives ``(N, d)`` eigenvalues and an array of ``N`` counts.
    """
    a = np.asarray(a, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(np.max(np.abs(a - a.swapaxes(-1, -2)), axis=(-2, -1)) > sym_tol * scale):
        raise StructureError("eigen analysis requires a symmetric matrix")
    vals = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(-1, -2)))
    spread = np.maximum(1.0, np.max(np.abs(vals), axis=-1, keepdims=True))
    distinct = 1 + np.count_nonzero(np.diff(vals) > gap_tol * spread, axis=-1)
    return vals, distinct if a.ndim > 2 else int(distinct)


def gk_equation_residual(
    mla: MetricLieAlgebra,
    a: np.ndarray,
    psi: Spinor,
    _nm: NomizuMap | None = None,
) -> float:
    """Worst relative misfit of the Killing equation for a given ``A`` and spinor."""
    d = mla.dim
    mod = _odd_module(d)
    nm = _nm if _nm is not None else nomizu(mla)
    worst = 0.0
    for i in range(d):
        rhs = mod.apply_spin_lift(nm.mats[i], psi.coeffs)
        lhs = mod.apply_combo(a[:, i], psi.coeffs)
        denom = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / denom)
    return worst


def full_report(
    mla: MetricLieAlgebra,
    tol: float = DEFAULT_TOL,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> GKReport:
    """Solve, classify and cross-check one metric Lie algebra.

    In dimension 3 a symmetric solution certifies a 2-dimensional space of
    invariant generalised Killing spinors, re-verified on both basis
    spinors; a non-symmetric solution certifies that the space is zero.
    """
    d = mla.dim
    mod = _odd_module(d)
    nm = nomizu(mla)
    a, residual = solve_endomorphism(mla, Spinor.one(mod.n), tol, _nm=nm)
    asym = a - a.T
    asym_norm = float(np.max(np.abs(asym)))
    symmetric = asym_norm <= tol * max(1.0, float(np.max(np.abs(a))))
    solved = symmetric and residual <= tol

    eigenvalues: list[float] | None = None
    distinct: int | None = None
    if symmetric:
        vals, distinct = eigen_analysis(a, gap_tol, sym_tol=tol)
        eigenvalues = [float(v) for v in vals]

    ric = curvature(nm, mla).ricci
    comm = a @ ric - ric @ a
    report_kwargs: dict = {
        "dim": d,
        "A": a,
        "solve_residual": residual,
        "is_symmetric": symmetric,
        "asymmetry": asym,
        "asymmetry_norm": asym_norm,
        "eigenvalues": eigenvalues,
        "distinct_count": distinct,
        "dirac_eigenvalue": float(np.trace(a)),
        "ricci": ric,
        "commutator_norm": float(np.max(np.abs(comm))),
    }
    if d == 3:
        basis_residual = None
        if solved:
            basis_residual = max(
                gk_equation_residual(mla, a, Spinor.one(1), _nm=nm),
                gk_equation_residual(mla, a, Spinor.basis(1, 1), _nm=nm),
            )
        report_kwargs.update(
            gks_space_dim=2 if solved else 0,
            basis_residual=basis_residual,
            tested_spinor_gk=None,
        )
    else:
        report_kwargs.update(
            gks_space_dim=None,
            basis_residual=None,
            tested_spinor_gk=solved,
        )
    return GKReport(**report_kwargs)


@lru_cache(maxsize=None)
def _unit_spinor_tensors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Moment matrix ``M`` of the unit spinor and its lift tensor ``W``, once per size.

    Column ``b * d + a`` of ``W`` is the realified ``lift(E_ba) . psi`` for
    the elementary skew matrix ``E_ba`` (entry ``(b, a) = 1``) when
    ``a < b``, and zero otherwise, so ``W @ L.ravel()`` is ``lift(L) . psi``."""
    mod, psi = get_module(n), Spinor.one(n)
    d, eye = mod.dim_frame, np.eye(mod.dim_frame)
    w = np.zeros((2 * mod.dim_spinor, d, d))
    for a, b in zip(*np.triu_indices(d, 1)):
        col = mod.apply_spin_lift(np.outer(eye[b], eye[a]) - np.outer(eye[a], eye[b]), psi.coeffs)
        w[:, b, a] = np.concatenate([col.real, col.imag])
    m, w = mod.moment_matrix(psi), w.reshape(-1, d * d)
    m.setflags(write=False)
    w.setflags(write=False)
    return m, w


@dataclass(frozen=True)
class FrameSweep:
    """Per-sample arrays of ``sweep_frames``; ``distinct_count`` is 0 where ``A`` is not symmetric."""

    ortho_c: np.ndarray
    A: np.ndarray
    solve_residual: np.ndarray
    symmetric: np.ndarray
    distinct_count: np.ndarray


def sweep_frames(
    alg: LieAlgebra, frames: np.ndarray, tol: float = DEFAULT_TOL, gap_tol: float = DEFAULT_GAP_TOL
) -> FrameSweep:
    """The unit-spinor solve and verdicts of ``full_report`` for a ``(N, d, d)`` frame stack.

    Per sample: ``solve_endomorphism`` on the unit spinor (norm 1, so
    ``A = M^T R``), the symmetry verdict of ``full_report`` and, where ``A``
    is symmetric, ``eigen_analysis``.  Raises ``InvalidMetricError`` if any
    frame fails the orthonormality guard of ``MetricLieAlgebra``."""
    d = alg.dim
    m, w = _unit_spinor_tensors(_odd_module(d).n)
    _, oc = frame_structure(alg, frames)
    lam = nomizu(oc).mats.reshape(len(frames), d, d * d)
    rhs = w @ lam.swapaxes(-1, -2)
    a = m.T @ rhs
    col_res = np.linalg.norm(m @ a - rhs, axis=-2)
    residual = np.max(col_res / np.maximum(1.0, np.linalg.norm(rhs, axis=-2)), axis=-1)
    asym = np.max(np.abs(a - a.swapaxes(-1, -2)), axis=(-2, -1))
    symmetric = asym <= tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    distinct = np.zeros(len(frames), dtype=int)
    distinct[symmetric] = eigen_analysis(a[symmetric], gap_tol, sym_tol=tol)[1]
    return FrameSweep(oc, a, residual, symmetric, distinct)


def genericity_sweep(
    family: BianchiFamily,
    samples: int,
    seed: int | list[int],
    gap_tol: float = DEFAULT_GAP_TOL,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Eigenvalue-multiplicity statistics over random metrics on a family.

    Draws ``samples`` frames with ``random_frames`` and analyses them in one
    ``sweep_frames`` pass; reports the distribution of the distinct count
    ``r`` over the symmetric cases and the fraction with ``r < 3``.
    """
    frames = random_frames(3, np.random.default_rng(seed), samples)
    batch = sweep_frames(make_bianchi(family), frames, tol, gap_tol)
    rs, counts = np.unique(batch.distinct_count[batch.symmetric], return_counts=True)
    r_counts = {int(r): int(cnt) for r, cnt in zip(rs, counts)}
    symmetric_count = int(np.count_nonzero(batch.symmetric))
    below = sum(cnt for r, cnt in r_counts.items() if r < 3)
    modal_r = max(r_counts, key=lambda r: (r_counts[r], r)) if r_counts else None
    return {
        "family": family.label,
        "samples": samples,
        "symmetric_count": symmetric_count,
        "modal_r": modal_r,
        "r_counts": {str(r): r_counts[r] for r in sorted(r_counts)},
        "fraction_r_lt_3": below / symmetric_count if symmetric_count else None,
    }


TABLE1_ROWS: tuple[tuple[str, tuple[float | None, ...], str], ...] = (
    ("L3(-1)", (None,), ""),
    ("L3(1)", (None,), ""),
    ("L3(2,x)", (-1.0,), "x = -1"),
    ("L3(2,x)", (-0.5, 0.5, 1.0), "x != -1"),
    ("L3(3)", (None,), ""),
    ("L3(4,x)", (0.0,), "x = 0"),
    ("L3(4,x)", (0.5, 1.0, 2.0), "x != 0"),
    ("L3(5)", (None,), ""),
    ("L3(6)", (None,), ""),
)


def table1_rows(samples: int, seed: int, gap_tol: float, tol: float) -> list[dict]:
    """Eigenvalue-count table per family, via seeded metric sweeps."""
    rows = []
    for row_idx, (tag, xs, case) in enumerate(TABLE1_ROWS):
        stats = [
            genericity_sweep(BianchiFamily(tag, x), samples, [seed, row_idx, x_idx], gap_tol, tol)
            for x_idx, x in enumerate(xs)
        ]
        sym_counts = [st["symmetric_count"] for st in stats]
        modal_rs = [st["modal_r"] for st in stats]
        r = degenerate = None
        if all(c == samples for c in sym_counts):
            gk_dim = 2
            if len(set(modal_rs)) != 1:
                raise SpinlabError(f"inconsistent generic r within row {tag}: {modal_rs}")
            r = modal_rs[0]
            below = sum(c for st in stats for k, c in st["r_counts"].items() if int(k) < r)
            degenerate = below / sum(sym_counts)
        elif all(c == 0 for c in sym_counts):
            gk_dim = 0
        else:
            raise SpinlabError(
                f"inconsistent symmetry verdicts within row {tag} {case!r}: {sym_counts}"
            )
        rows.append(
            {
                "family": tag,
                "case": case,
                "gk_dim": gk_dim,
                "r": r,
                "degenerate_fraction": degenerate,
            }
        )
    return rows
