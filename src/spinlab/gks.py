"""Solving the generalised Killing equation for invariant spinors.

Given a metric Lie algebra of odd dimension and a nonzero invariant spinor
``psi``, the equations ``v . psi = lift(L_i) . psi`` over the frame vectors
``e_i`` form one complex system ``M A = R`` in a real unknown ``A``: ``M`` is the
moment matrix of ``v -> v . psi`` and column ``i`` of ``R`` is ``lift(L_i) . psi``.
``_fit`` solves it exactly, and is the one place that takes real parts;
``_symmetric`` gives the symmetry verdict.  The spinor
is generalised Killing precisely when the fit leaves no misfit and ``A`` is
symmetric; in dimension 3 the same ``A`` then works for every invariant
spinor, so the space of invariant generalised Killing spinors is either all
of the spinor space or zero.

``solve_endomorphism`` takes, as every function of ``connection`` does, a
``MetricLieAlgebra`` or orthonormal structure constants, ``(d, d, d)`` or a
``(..., d, d, d)`` stack solved as one system; ``solve_heisenberg`` is its solve on
the diagonal Heisenberg metrics, behind the ``heisenberg`` command and the
``selftest`` ladder, whose parameters ``catalog.heisenberg_params`` validates and
defaults; it builds no algebra or metric object (only ``analyze`` does).
``_project`` is the one builder of ``R``: ``d`` matrix-free spin lifts per system, one
per column, on the rows ``psi`` reaches (``1 + n + n(n-1)/2`` of ``2**n`` for a basis
spinor), so the ``H(2n+1)`` ladder reads no ``2**n`` coefficients per report; only the
unit spinor's zero vector and the row mask reach that size.  The 3-d frame sweep builds
none: there the constants are a 3x3 matrix ``C`` under Hodge duality, ``c[a, b, :] =
eps_abe C[e, :]`` (Milnor, 1976), a frame ``P`` takes ``C`` to ``det(P) P^-1 C P^-T``,
and Nomizu, lift and fit are linear, so ``sweep_frames`` applies one constant ``9 x 9``
map, ``_dual_map``, which ``_project`` and ``_fit`` build once per process from the
nine basis duals.  It returns the plain pair ``(dual, A)``; the ``(..., 3, 3, 3)``
constants are scattered from the duals (``_from_dual``) only by the one caller whose
reducers read them, ``selftest.closed_form_sweep``.
``sweep_grid`` is the one driver of seeded frame sweeps: ``table1_rows``
and the closed-form comparison of ``selftest`` run it over the 13 ``FAMILY_GRID``
families, ``genericity_sweep`` over one family.  No ``sweep_frames`` pass holds more
than ``GRID_PASS_FRAMES`` frames, so memory stays flat in the sample count; the sweep
only solves, and each pass's reducer judges what it reads, one row per family.  The
``r`` statistics of both ``r`` sweeps come from one summary of the summed tallies,
``_r_summary``.

Constants that never change are built once per process, on first use, and are
read-only: the grid families and their stacked structure constants (``_grid_stack``),
the row of each family (``_grid_rows``), the index arrays of ``algebra.random_frames``
and the dual map.  The Heisenberg algebras and metrics are not cached: at n = 12..16
their tensors would stay resident for the life of the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import LieAlgebra, MetricLieAlgebra, _check_orthonormal, _frames_from_draws, _freeze
from .catalog import BianchiFamily, _mat3, _structure_3d, heisenberg_ortho_c, make_bianchi
from .clifford import Spinor, module_for_dim
from .connection import curvature, nomizu
from .errors import InvalidSpinorError, SpinlabError, StructureError

DEFAULT_TOL = 1e-9
DEFAULT_GAP_TOL = 1e-7


@dataclass(frozen=True)
class GKReport:
    """Full analysis of the invariant-spinor endomorphism of one metric.

    ``gks_space_dim`` is the complex dimension of the space of invariant
    generalised Killing spinors in dimension 3: 2 when ``A`` is symmetric and
    both ``solve_residual`` and ``basis_residual`` (the Killing equation with
    this ``A`` on both basis spinors) are at most ``tol``, else 0.  In higher
    dimensions only the designated spinor is tested, no space dimension is
    claimed, and the field is ``None``.
    """

    A: np.ndarray
    solve_residual: float
    is_symmetric: bool
    asymmetry: np.ndarray
    eigenvalues: list[float] | None
    distinct_count: int | None
    dirac_eigenvalue: float
    ricci: np.ndarray
    commutator_norm: float
    gks_space_dim: int | None
    basis_residual: float | None = None

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


def _project(
    mla: MetricLieAlgebra | np.ndarray, psi: Spinor, nm: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The complex Killing system ``M v = R`` of a metric and a spinor: ``(M, R, |psi|^2)``.

    ``mla`` is read through ``nomizu`` unless its Nomizu stack ``nm`` is given; a stack
    of structure constants gives a ``(..., rows, d)`` stack of ``R`` against the one
    ``M``; either way the system takes ``d`` spin-lift calls, one per column.  Both
    are kept on the rows ``psi`` can reach (``CliffordModule.reachable_rows``): every
    other row of both is zero.
    """
    nm = nm if nm is not None else nomizu(mla)
    d = nm.shape[-1]
    mod = module_for_dim(d)
    if psi.n != mod.n:
        raise InvalidSpinorError(
            f"spinor has {psi.n} slots, metric algebra needs {mod.n}"
        )
    norm = psi.norm
    if norm == 0.0:
        raise InvalidSpinorError("cannot solve the Killing equation on the zero spinor")
    rows = mod.reachable_rows(psi)
    m = mod.moment_matrix(psi, rows)
    rhs = np.stack(
        [mod.apply_spin_lift(nm[..., i, :, :], psi.coeffs, rows) for i in range(d)], axis=-1
    )
    return m, rhs, norm**2


def _fit(m: np.ndarray, rhs: np.ndarray, norm2: float) -> tuple:
    """Least-squares fit of ``M A = R`` over real ``A``: ``(A, M A - R, worst column residual)``.

    The frame vectors anticommute and square to ``-1``, so ``Re(M^H M) =
    |psi|^2 I`` and the real fit is exactly ``A = Re(M^H R) / |psi|^2``, taken as
    two real products (``(M^H R).real`` can flip the sign of a zero entry).  The
    misfit stays complex.  Each column misfit is relative to ``max(1, |R column|)``;
    a stack of ``R`` gives a stack of fits and residuals.
    """
    a = (m.real.T @ rhs.real + m.imag.T @ rhs.imag) / norm2
    # real products: a complex matmul would page in the complex GEMM kernels, about
    # 0.3 MB more peak RSS per process
    misfit = m.real @ a + 1j * (m.imag @ a) - rhs
    col_res = np.linalg.norm(misfit, axis=-2)
    residual = np.max(col_res / np.maximum(1.0, np.linalg.norm(rhs, axis=-2)), axis=-1)
    return a, misfit, residual


def _symmetric(a: np.ndarray, tol: float) -> bool | np.ndarray:
    """The symmetry verdict ``max|A - A^T| <= tol * max(1, max|A|)``, per stack entry."""
    asym = np.max(np.abs(a - a.swapaxes(-1, -2)), axis=(-2, -1))
    return asym <= tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))


def solve_endomorphism(
    mla: MetricLieAlgebra | np.ndarray,
    psi: Spinor,
    _nm: np.ndarray | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Endomorphism ``A`` of the generalised Killing equation, and its residual.

    Column ``i`` is the frame vector ``v`` that best solves ``v . psi =
    lift(L_i) . psi`` (``_fit``).  ``A`` is a generalised Killing endomorphism
    only when the residual is below a tolerance and ``A`` is symmetric.  ``mla`` is a
    ``MetricLieAlgebra`` or orthonormal structure constants: one metric gives a float
    residual, a ``(..., d, d, d)`` stack gives ``(..., d, d)`` and ``(...)`` arrays.
    """
    a, _, residual = _fit(*_project(mla, psi, _nm))
    return a, residual if residual.ndim else float(residual)


def solve_heisenberg(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """``solve_endomorphism(heisenberg_ortho_c(a, b, c), Spinor.one(n))`` as arrays, for
    parameters ``a, b: (..., n)`` and ``c: (...)`` that are not validated here."""
    psi = Spinor.one(np.shape(a)[-1])
    # not a solve_endomorphism call: perfbench's tracer reads .dim of its first argument
    a_solved, _, residual = _fit(*_project(heisenberg_ortho_c(a, b, c), psi, None))
    return a_solved, residual


def solve_symmetric_endomorphism(
    mla: MetricLieAlgebra,
    psi: Spinor,
    _nm: np.ndarray | None = None,
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
    m, rhs, norm2 = _project(mla, psi, _nm)
    a, misfit, _ = _fit(m, rhs, norm2)
    skew = 0.5 * (a - a.T)
    residual = float(np.sqrt(np.sum(np.abs(misfit) ** 2) + norm2 * np.sum(skew**2)))
    return 0.5 * (a + a.T), residual


def explicit_A_3d(ortho_c: np.ndarray) -> np.ndarray:
    """Closed-form endomorphism matrix in dimension 3, per stack entry.

    Direct transcription in terms of the orthonormal-frame structure
    constants; must agree with ``solve_endomorphism`` on the unit spinor.
    """
    c = _structure_3d(ortho_c, "explicit endomorphism")
    c121, c122, c123 = c[..., 0, 1, 0], c[..., 0, 1, 1], c[..., 0, 1, 2]
    c131, c132, c133 = c[..., 0, 2, 0], c[..., 0, 2, 1], c[..., 0, 2, 2]
    c231, c232, c233 = c[..., 1, 2, 0], c[..., 1, 2, 1], c[..., 1, 2, 2]
    return _mat3(
        [
            [0.25 * (c123 - c132 - c231), -0.5 * c232, -0.5 * c233],
            [0.5 * c131, 0.25 * (c123 + c132 + c231), 0.5 * c133],
            [-0.5 * c121, -0.5 * c122, 0.25 * (-c123 - c132 + c231)],
        ]
    )


def symmetry_conditions_3d(ortho_c: np.ndarray, tol: float = DEFAULT_TOL) -> bool | np.ndarray:
    """The three structure-constant identities equivalent to ``A`` symmetric, per stack entry."""
    c = _structure_3d(ortho_c, "symmetry conditions")
    conds = (
        c[..., 0, 2, 0] + c[..., 1, 2, 1],
        c[..., 0, 1, 0] - c[..., 1, 2, 2],
        c[..., 0, 1, 1] + c[..., 0, 2, 2],
    )
    scale = np.maximum(1.0, np.max(np.abs(c), axis=(-3, -2, -1)))
    ok = np.all([np.abs(v) <= tol * scale for v in conds], axis=0)
    return ok if c.ndim > 3 else bool(ok)


def dirac_trace_3d(ortho_c: np.ndarray) -> np.ndarray:
    """Trace of the endomorphism in dimension 3, as a structure-constant form, per stack entry."""
    c = _structure_3d(ortho_c, "Dirac trace")
    return 0.25 * (c[..., 0, 1, 2] - c[..., 0, 2, 1] + c[..., 1, 2, 0])


def _spectrum(a: np.ndarray, gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenvalues of the symmetric parts of ``(..., d, d)`` float matrices and their
    distinct counts, with no symmetry verdict: the caller has judged ``a`` already."""
    vals = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(-1, -2)))
    spread = np.maximum(1.0, np.abs(vals).max(axis=-1, keepdims=True))
    return vals, 1 + (vals[..., 1:] - vals[..., :-1] > gap_tol * spread).sum(axis=-1)


def eigen_analysis(
    a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL, sym_tol: float = 1e-8
) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of a symmetric matrix and their distinct count.

    Eigenvalues closer than ``gap_tol * max(1, spectral radius)`` are
    clustered together.  Raises unless ``a`` passes the symmetry verdict
    ``_symmetric`` at ``sym_tol`` (``full_report`` passes its ``tol``).  A
    ``(N, d, d)`` stack gives ``(N, d)`` eigenvalues and ``N`` counts.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(_symmetric(a, sym_tol)):
        raise StructureError("eigen analysis requires a symmetric matrix")
    vals, distinct = _spectrum(a, gap_tol)
    return vals, distinct if a.ndim > 2 else int(distinct)


def gk_equation_residual(
    mla: MetricLieAlgebra,
    a: np.ndarray,
    psi: Spinor,
    _nm: np.ndarray | None = None,
) -> float:
    """Worst relative misfit of the Killing equation for a given ``A`` and spinor.

    Per column ``i``, the largest modulus of ``M a_i - R_i`` on the complex
    system of ``_project``, relative to ``max(1, max |R_i|)``.
    """
    m, rhs, _ = _project(mla, psi, _nm)
    misfit = np.max(np.abs(m @ a - rhs), axis=0)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=0))
    return float(np.max(misfit / scale))


def full_report(
    mla: MetricLieAlgebra,
    tol: float = DEFAULT_TOL,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> GKReport:
    """Solve, classify and cross-check one metric Lie algebra.

    In dimension 3 a symmetric solution, re-verified on both basis spinors,
    certifies a 2-dimensional space of invariant generalised Killing
    spinors; otherwise the space is zero.
    """
    d = mla.dim
    nm = nomizu(mla)
    if not np.isfinite(nm).all():
        raise StructureError(
            "Nomizu map is not finite: the structure constants are out of floating-point range"
        )
    a, residual = solve_endomorphism(mla, Spinor.one(module_for_dim(d).n), _nm=nm)
    symmetric = bool(_symmetric(a, tol))
    solved = symmetric and residual <= tol

    eigenvalues: list[float] | None = None
    distinct: int | None = None
    if symmetric:
        vals, distinct = eigen_analysis(a, gap_tol, sym_tol=tol)
        eigenvalues = [float(v) for v in vals]

    basis_residual = None
    if d == 3 and solved:
        basis_residual = float(np.max([  # numpy's max, so a NaN residual fails
            gk_equation_residual(mla, a, Spinor.one(1), _nm=nm),
            gk_equation_residual(mla, a, Spinor.basis(1, 1), _nm=nm),
        ]))
        solved = basis_residual <= tol
    ric = curvature(nm, mla)
    return GKReport(
        A=a,
        solve_residual=residual,
        is_symmetric=symmetric,
        asymmetry=a - a.T,
        eigenvalues=eigenvalues,
        distinct_count=distinct,
        dirac_eigenvalue=float(np.trace(a)),
        ricci=ric,
        commutator_norm=float(np.max(np.abs(a @ ric - ric @ a))),
        gks_space_dim=(2 if solved else 0) if d == 3 else None,
        basis_residual=basis_residual,
    )


# (i, j) with eps_ijl = 1 for l = 0, 1, 2: c[..., _DUAL_I, _DUAL_J, :] is the Hodge dual C
_DUAL_I, _DUAL_J = (1, 2, 0), (2, 0, 1)


def _from_dual(dual: np.ndarray) -> np.ndarray:
    """``c[..., i, j, :] = eps_ijl C[..., l, :]`` of duals ``C``, with +0.0 at ``i = j``."""
    c = np.zeros(dual.shape[:-2] + (3, 3, 3))
    c[..., _DUAL_I, _DUAL_J, :], c[..., _DUAL_J, _DUAL_I, :] = dual, -dual
    return c


# [l, 3 i + j] = eps_ijl: u @ _AXIAL is the flattened skew matrix of the axial vector u
_AXIAL = _freeze(np.moveaxis(_from_dual(np.eye(3)), -1, 0).reshape(3, 9))


@lru_cache(maxsize=1)
def _dual_map() -> np.ndarray:
    """Read-only ``T`` with ``A = C.ravel() @ T`` for the unit spinor and any 3-d dual ``C``:
    row ``3 l + m`` is the fit of the basis dual ``E_lm`` (the fit is linear in ``C``)."""
    basis = _from_dual(np.eye(9).reshape(9, 3, 3))
    # not a solve_endomorphism call: perfbench's tracer reads .dim of its first argument
    return _freeze(_fit(*_project(basis, Spinor.one(1), None))[0].reshape(9, 9))


def sweep_frames(alg: LieAlgebra | np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit-spinor ``A`` of ``full_report`` for a ``(N, 3, 3)`` frame stack, no verdict.

    Returns ``(dual, A)``, both ``(..., 3, 3)``: ``dual`` holds the Hodge duals of the
    orthonormal structure constants, which ``_from_dual`` scatters to ``(..., 3, 3, 3)``.
    ``(F, 3, 3, 3)`` structure constants with ``(F, N, 3, 3)`` frames keep the family axis.
    ``A = C'.ravel() @ _dual_map`` for the frame's dual ``C' = det(P) P^-1 C P^-T``, built
    as a symmetric part plus the skew part of axial vector ``w P`` (``w = -tr c / 2``), so
    ``A`` is exactly symmetric where ``C`` is.  Raises ``UnsupportedDimensionError`` unless
    3-d, ``InvalidMetricError`` if a frame fails the orthonormality guard (a nonzero lower
    entry does) and ``StructureError`` if ``A`` is not finite."""
    c = _structure_3d(alg.c if isinstance(alg, LieAlgebra) else alg, "the frame sweep")
    # P^-1 of the upper-triangular P, row-major: the diagonal is flat 0, 4, 8, the first
    # superdiagonal flat 1 and 5, the corner flat 2 (back-substitution)
    p = frames.reshape(*frames.shape[:-2], 9)
    pinv = np.zeros(p.shape)
    pinv[..., ::4] = inv_diag = 1.0 / p[..., ::4]
    pinv[..., 1:6:4] = -p[..., 1:6:4] * inv_diag[..., :2] * inv_diag[..., 1:]
    pinv[..., 2] = -inv_diag[..., 0] * (p[..., 1] * pinv[..., 5] + p[..., 2] * inv_diag[..., 2])
    pinv = pinv.reshape(frames.shape)
    pinv_t = pinv.swapaxes(-1, -2).copy()  # a copy: numpy's A^T A path is slow on 3x3 stacks
    _check_orthonormal(pinv_t @ pinv, frames)
    half_det = 0.5 * p[..., 0] * p[..., 4] * p[..., 8]
    half = pinv @ c[..., None, _DUAL_I, _DUAL_J, :] @ pinv_t * half_det[..., None, None]
    axial = -0.5 * np.trace(c, axis1=-2, axis2=-1)[..., None, None, :] @ frames
    dual = (half + half.swapaxes(-1, -2)).reshape(p.shape) + (axial @ _AXIAL)[..., 0, :]
    a = dual @ _dual_map()
    if not np.isfinite(a).all():
        raise StructureError(
            "A is not finite: the structure constants are out of floating-point range"
        )
    return dual.reshape(frames.shape), a.reshape(frames.shape)


def _r_tally(tol: float, gap_tol: float):
    """The ``sweep_grid`` reducer of the ``r`` statistics: per family, ``tally[r]`` samples
    with ``r = 1..3`` distinct eigenvalues, and in bin 0 those failing ``_symmetric`` at ``tol``.
    One verdict a pass: the symmetric samples go to ``_spectrum``, not ``eigen_analysis``,
    whose guard would judge them again, and a pass with none makes no ``_spectrum`` call."""

    def tally(fams, frames, dual, a) -> np.ndarray:
        symmetric = _symmetric(a, tol)
        distinct = np.zeros(symmetric.shape, dtype=int)
        if symmetric.any():  # four of the seven families never have a symmetric sample
            distinct[symmetric] = _spectrum(a[symmetric], gap_tol)[1]
        return (distinct[..., None] == np.arange(4)).sum(axis=-2)

    return tally


def _r_summary(tallies: np.ndarray) -> tuple[list, list, list, list]:
    """Per row of ``(F, 4)`` ``_r_tally`` rows summed over a sweep, as lists of Python ints:
    the samples, the symmetric count, the modal ``r`` (of tied counts the larger ``r``;
    ``None`` without a symmetric sample) and the symmetric samples below the modal ``r``.
    A few rows of four counts, so plain Python beats a chain of numpy calls here."""
    rows = tallies.tolist()
    samples = [sum(row) for row in rows]
    symmetric = [n - row[0] for n, row in zip(samples, rows)]
    # max keeps the first of tied counts, so r runs downwards
    modal_r = [max((3, 2, 1), key=row.__getitem__) if n else None
               for row, n in zip(rows, symmetric)]
    below = [sum(row[1:r]) if r else 0 for row, r in zip(rows, modal_r)]
    return samples, symmetric, modal_r, below


def genericity_sweep(
    family: BianchiFamily,
    samples: int,
    seed: int | list[int],
    gap_tol: float = DEFAULT_GAP_TOL,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Eigenvalue-multiplicity statistics over random metrics on a family.

    Draws ``samples`` frames with ``random_frames`` from ``default_rng(seed)`` and
    analyses them in ``sweep_grid`` passes of one family; reports the distribution of
    the distinct count ``r`` over the symmetric cases and the fraction with ``r < 3``.
    """
    # a grid member reuses its cached row; any other family goes to make_bianchi
    row = _grid_rows().get((family.tag, str(family.x)))
    c = make_bianchi(family).c[None] if row is None else _grid_stack()[1][row : row + 1]
    tallies = sweep_grid([seed], samples, _r_tally(tol, gap_tol), ((family,), c)).sum(axis=1)
    (total,), (symmetric,), (modal_r,), _ = _r_summary(tallies)
    counts = tallies[0].tolist()
    return {
        "family": family.label,
        "samples": total,
        "symmetric_count": symmetric,
        "modal_r": modal_r,
        "r_counts": {str(r): counts[r] for r in (1, 2, 3) if counts[r]},
        "fraction_r_lt_3": (counts[1] + counts[2]) / symmetric if symmetric else None,
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

# every (family tag, parameter) of Table 1's rows: all seven families, including
# the symmetric boundary parameters x = -1 and x = 0; same-tag entries are
# consecutive, so a pass takes each tag's closed forms in one call
FAMILY_GRID: tuple[tuple[str, float | None], ...] = tuple(
    (tag, x) for tag, xs, _ in TABLE1_ROWS for x in xs
)

# the most frames in one sweep_frames pass of sweep_grid, which splits a family with
# more samples into chunks: the bound on the temporaries of sweep_frames
GRID_PASS_FRAMES = 4096


def family_grid() -> list[BianchiFamily]:
    return [BianchiFamily(tag, x) for tag, x in FAMILY_GRID]


@lru_cache(maxsize=1)
def _grid_stack() -> tuple[tuple[BianchiFamily, ...], np.ndarray]:
    """The ``FAMILY_GRID`` families and their stacked ``(13, 3, 3, 3)`` structure
    constants, built on first use and read-only for the rest of the process."""
    fams = tuple(family_grid())
    return fams, _freeze(np.stack([make_bianchi(fam).c for fam in fams]))


@lru_cache(maxsize=1)
def _grid_rows() -> dict[tuple[str, str], int]:
    """The row of each ``_grid_stack`` family, keyed ``(tag, str(x))``: ``str`` tells every
    float apart, so ``L3(4,-0)`` (equal to ``L3(4,0)``, but x is -0.0) has no row."""
    return {(fam.tag, str(fam.x)): k for k, fam in enumerate(_grid_stack()[0])}


def sweep_grid(seeds, samples: int, reduce, grid=None):
    """Seeded ``sweep_frames`` passes over a family stack, reduced to ``(families, chunks, k)``.

    ``grid`` is ``(families, (F, 3, 3, 3) structure constants)``, by default the
    ``FAMILY_GRID`` stack of ``_grid_stack`` (built once per process, read-only).  Family
    ``i`` gets ``samples`` frames from ``default_rng(seeds[i])``: a pass draws each family's
    uniforms from its own generator and builds one ``(F, n, 3, 3)`` frame stack from them
    (``algebra._frames_from_draws``), bit for bit the ``random_frames(3, rng, n)`` of each
    family.  Up to
    ``GRID_PASS_FRAMES`` samples, one pass solves ``max(1, GRID_PASS_FRAMES // samples)``
    consecutive families whole; past that, each family runs alone as successive chunks of
    at most ``GRID_PASS_FRAMES`` frames drawn from its one generator, which gives the
    frames of one draw bit for bit.  ``reduce(families, (F, n, 3, 3) frames, dual, A)``,
    given the ``(F, n, 3, 3)`` pair of ``sweep_frames``, returns an ``(F, k)`` array, one
    row per family, and only those rows outlive a pass: callers combine a family's chunks
    with ``.sum(axis=1)`` or ``.max(axis=1)``."""
    fams, cs = grid if grid is not None else _grid_stack()
    rngs, rows = [np.random.default_rng(seed) for seed in seeds], []
    step = max(1, GRID_PASS_FRAMES // (samples or 1))  # 0 samples: one empty pass
    chunks = [min(GRID_PASS_FRAMES, samples - k) for k in range(0, samples or 1, GRID_PASS_FRAMES)]
    for i in range(0, len(fams), step):
        for n in chunks:  # several only when a pass holds one family: rows stay in grid order
            draws = [rng.uniform(-1.0, 1.0, (n, 6)) for rng in rngs[i : i + step]]
            frames = _frames_from_draws(3, np.array(draws))  # random_frames(3, rng, n) per rng
            dual, a = sweep_frames(cs[i : i + step], frames)
            rows.append(reduce(fams[i : i + step], frames, dual, a))
            del draws, frames, dual, a  # let go of this pass before the next draw
    return np.concatenate(rows).reshape(len(fams), len(chunks), -1)


def table1_rows(samples: int, seed: int, gap_tol: float, tol: float) -> list[dict]:
    """Eigenvalue-count table per family, via seeded metric sweeps of the whole grid."""
    seeds = [[seed, row, k] for row, (_, xs, _) in enumerate(TABLE1_ROWS) for k in range(len(xs))]
    tallies = sweep_grid(seeds, samples, _r_tally(tol, gap_tol)).sum(axis=1)
    _, symmetric, modal_r, below = _r_summary(tallies)
    rows, start = [], 0
    for tag, xs, case in TABLE1_ROWS:
        part = slice(start, start + len(xs))
        start = part.stop
        sym_counts, modal_rs = symmetric[part], modal_r[part]
        r = degenerate = None
        if all(c == samples for c in sym_counts):
            gk_dim = 2
            if len(set(modal_rs)) != 1:
                raise SpinlabError(f"inconsistent generic r within row {tag}: {modal_rs}")
            r = modal_rs[0]
            degenerate = sum(below[part]) / sum(sym_counts)
        elif all(c == 0 for c in sym_counts):
            gk_dim = 0
        else:
            label = f"{tag} ({case})" if case else tag
            per_x = " (one count per x)" if len(xs) > 1 else ""
            raise SpinlabError(
                f"--tol {tol:g} splits the symmetry verdicts of row {label}: "
                f"{', '.join(map(str, sym_counts))} of {samples} samples symmetric{per_x}; "
                "a row needs all or none"
            )
        rows.append(dict(family=tag, case=case, gk_dim=gk_dim, r=r, degenerate_fraction=degenerate))
    return rows
