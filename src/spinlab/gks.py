"""Solving the generalised Killing equation for invariant spinors.

Given a metric Lie algebra of odd dimension and a nonzero invariant spinor
``psi``, the equations ``v . psi = lift(L_i) . psi`` over the frame vectors
``e_i`` form one real system ``M A = R``: ``M`` is the moment matrix of
``v -> v . psi`` and column ``i`` of ``R`` is ``lift(L_i) . psi``.  ``_fit``
solves it exactly and ``_symmetric`` gives the symmetry verdict.  The spinor
is generalised Killing precisely when the fit leaves no misfit and ``A`` is
symmetric; in dimension 3 the same ``A`` then works for every invariant
spinor, so the space of invariant generalised Killing spinors is either all
of the spinor space or zero.

Two builders of ``R`` remain, each the fast one on its workload.  For one
metric, ``_project`` makes one matrix-free spin lift per column on the rows
``psi`` reaches (``1 + n + n(n-1)/2`` of ``2**n`` for a basis spinor), so the
``H(2n+1)`` ladder costs no ``2**n`` work per column.  For a frame stack from
``random_frames``, ``sweep_frames`` multiplies by the cached unit-spinor lift
tensor: a few array calls per stack, but ``2**(n+1) d**2`` entries, so only for
small ``d``.  ``sweep_grid`` (``table1_rows`` and the closed-form comparison of
``selftest``) stacks the 13 ``FAMILY_GRID`` families, ``max(1, GRID_PASS_FRAMES //
samples)`` to a ``sweep_frames`` pass; ``genericity_sweep`` solves one family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import LieAlgebra, MetricLieAlgebra, frame_structure, random_frames
from .catalog import BianchiFamily, _mat3, make_bianchi
from .clifford import CliffordModule, Spinor, module_for_dim
from .connection import NomizuMap, curvature, nomizu
from .errors import InvalidSpinorError, SpinlabError, StructureError, UnsupportedDimensionError

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
    mla: MetricLieAlgebra, psi: Spinor, nm: NomizuMap | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The Killing system ``M v = R`` of one metric and spinor: ``(M, R, |psi|^2)``.

    Real and imaginary parts are stacked, on the rows ``psi`` can reach
    (``CliffordModule.reachable_rows``): every other row of both is zero.
    """
    mod = module_for_dim(mla.dim)
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
        [mod.apply_spin_lift(nm.mats[i], psi.coeffs, rows) for i in range(mla.dim)]
    )
    return m, np.vstack([cols.real, cols.imag]), norm**2


def _fit(m: np.ndarray, rhs: np.ndarray, norm2: float = 1.0) -> tuple:
    """Least-squares fit of ``M A = R``: ``(A, M A - R, worst column residual)``.

    The frame vectors anticommute and square to ``-1``, so ``M^T M =
    |psi|^2 I`` and the fit is exactly ``A = M^T R / |psi|^2``.  Each column
    misfit is relative to ``max(1, |R column|)``; a stack of ``R`` gives a
    stack of fits and residuals.
    """
    a = m.T @ rhs / norm2
    misfit = m @ a - rhs
    col_res = np.linalg.norm(misfit, axis=-2)
    residual = np.max(col_res / np.maximum(1.0, np.linalg.norm(rhs, axis=-2)), axis=-1)
    return a, misfit, residual


def _symmetric(a: np.ndarray, tol: float) -> bool | np.ndarray:
    """The symmetry verdict ``max|A - A^T| <= tol * max(1, max|A|)``, per stack entry."""
    asym = np.max(np.abs(a - a.swapaxes(-1, -2)), axis=(-2, -1))
    return asym <= tol * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))


def solve_endomorphism(
    mla: MetricLieAlgebra,
    psi: Spinor,
    _nm: NomizuMap | None = None,
) -> tuple[np.ndarray, float]:
    """Endomorphism ``A`` of the generalised Killing equation, and its residual.

    Column ``i`` is the frame vector ``v`` that best solves ``v . psi =
    lift(L_i) . psi`` (``_fit``).  ``A`` is a generalised Killing endomorphism
    only when the residual is below a tolerance and ``A`` is symmetric.
    """
    m, rhs, norm2 = _project(mla, psi, _nm)
    a, _, residual = _fit(m, rhs, norm2)
    return a, float(residual)


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
    m, rhs, norm2 = _project(mla, psi, _nm)
    a, misfit, _ = _fit(m, rhs, norm2)
    skew = 0.5 * (a - a.T)
    residual = float(np.sqrt(np.sum(misfit**2) + norm2 * np.sum(skew**2)))
    return 0.5 * (a + a.T), residual


def _structure_3d(ortho_c: np.ndarray, what: str) -> np.ndarray:
    """``ortho_c`` as a float ``(..., 3, 3, 3)`` array; ``what`` names the caller's result."""
    c = np.asarray(ortho_c, dtype=float)
    if c.shape[-3:] != (3, 3, 3):
        raise UnsupportedDimensionError(f"{what} needs dimension 3, got shape {c.shape}")
    return c


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
    c = np.asarray(ortho_c, dtype=float)
    return 0.25 * (c[..., 0, 1, 2] - c[..., 0, 2, 1] + c[..., 1, 2, 0])


def eigen_analysis(
    a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL, sym_tol: float = 1e-8
) -> tuple[np.ndarray, int]:
    """Sorted eigenvalues of a symmetric matrix and their distinct count.

    Eigenvalues closer than ``gap_tol * max(1, spectral radius)`` are
    clustered together.  Raises unless ``a`` passes the symmetry verdict
    ``_symmetric`` at ``sym_tol`` (``full_report`` and ``sweep_frames`` pass
    their ``tol``).  A ``(N, d, d)`` stack gives ``(N, d)`` eigenvalues and ``N`` counts.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(_symmetric(a, sym_tol)):
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
    """Worst relative misfit of the Killing equation for a given ``A`` and spinor.

    Per column ``i``, the largest complex entry of ``M a_i - R_i`` on the
    system of ``_project``, relative to ``max(1, max |R_i|)``.
    """
    m, rhs, _ = _project(mla, psi, _nm)
    half = len(rhs) // 2  # real rows, then imaginary rows
    miss = m @ a - rhs
    misfit = np.max(np.hypot(miss[:half], miss[half:]), axis=0)
    scale = np.maximum(1.0, np.max(np.hypot(rhs[:half], rhs[half:]), axis=0))
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
        basis_residual = max(
            gk_equation_residual(mla, a, Spinor.one(1), _nm=nm),
            gk_equation_residual(mla, a, Spinor.basis(1, 1), _nm=nm),
        )
        solved = basis_residual <= tol
    ric = curvature(nm, mla).ricci
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


@lru_cache(maxsize=16)  # the size of get_module's cache
def _unit_spinor_tensors(mod: CliffordModule) -> tuple[np.ndarray, np.ndarray]:
    """Moment matrix ``M`` of the unit spinor and its lift tensor ``W``, once per module.

    Column ``b * d + a`` of ``W`` is the realified ``lift(E_ba) . psi`` for
    the elementary skew matrix ``E_ba`` (entry ``(b, a) = 1``) when
    ``a < b``, and zero otherwise, so ``W @ L.ravel()`` is ``lift(L) . psi``."""
    psi = Spinor.one(mod.n)
    d = mod.dim_frame
    a, b = np.triu_indices(d, 1)
    pair = np.arange(len(a))
    skew = np.zeros((len(a), d, d))  # skew[pair] is E_ba for the pair's a < b
    skew[pair, b, a] = 1.0
    skew[pair, a, b] = -1.0
    cols = mod.apply_spin_lift(skew, psi.coeffs)  # one call for every pair
    w = np.zeros((2 * mod.dim_spinor, d, d))
    w[:, b, a] = np.concatenate([cols.real, cols.imag], axis=-1).T
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

    def __getitem__(self, k) -> FrameSweep:
        """Family ``k`` of a sweep over an ``(F, N, d, d)`` frame stack."""
        return FrameSweep(*(arr[k] for arr in vars(self).values()))


def sweep_frames(
    alg: LieAlgebra | np.ndarray, frames: np.ndarray, tol=DEFAULT_TOL, gap_tol=DEFAULT_GAP_TOL
) -> FrameSweep:
    """The unit-spinor solve and verdicts of ``full_report`` for a ``(N, d, d)`` frame stack.

    Per sample: ``_fit`` on the unit spinor (norm 1), the ``_symmetric`` verdict and, where
    ``A`` is symmetric, ``eigen_analysis``; ``(F, d, d, d)`` structure constants with
    ``(F, N, d, d)`` frames keep the family axis in every array.  Raises ``InvalidMetricError``
    if any frame fails the orthonormality guard of ``MetricLieAlgebra``, and ``StructureError``
    if any ``A`` is not finite (the structure constants left floating-point range)."""
    c = alg.c if isinstance(alg, LieAlgebra) else alg
    d = c.shape[-1]
    m, w = _unit_spinor_tensors(module_for_dim(d))
    _, oc = frame_structure(c[..., None, :, :, :], frames)
    lam = nomizu(oc).mats.reshape(*frames.shape[:-2], d, d * d)
    a, _, residual = _fit(m, w @ lam.swapaxes(-1, -2))
    if not np.isfinite(a).all():
        raise StructureError(
            "A is not finite: the structure constants are out of floating-point range"
        )
    symmetric = _symmetric(a, tol)
    distinct = np.zeros(symmetric.shape, dtype=int)
    distinct[symmetric] = eigen_analysis(a[symmetric], gap_tol, sym_tol=tol)[1]
    return FrameSweep(oc, a, residual, symmetric, distinct)


def _r_stats(family: BianchiFamily, frames: np.ndarray, batch: FrameSweep) -> dict:
    """Distribution of the distinct count ``r`` over the symmetric samples of one family."""
    rs, counts = np.unique(batch.distinct_count[batch.symmetric], return_counts=True)
    r_counts = {int(r): int(cnt) for r, cnt in zip(rs, counts)}
    symmetric_count = int(np.count_nonzero(batch.symmetric))
    below = sum(cnt for r, cnt in r_counts.items() if r < 3)
    modal_r = max(r_counts, key=lambda r: (r_counts[r], r)) if r_counts else None
    return {
        "family": family.label,
        "samples": len(frames),
        "symmetric_count": symmetric_count,
        "modal_r": modal_r,
        "r_counts": {str(r): r_counts[r] for r in sorted(r_counts)},
        "fraction_r_lt_3": below / symmetric_count if symmetric_count else None,
    }


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
    return _r_stats(family, frames, sweep_frames(make_bianchi(family), frames, tol, gap_tol))


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
# the symmetric boundary parameters x = -1 and x = 0
FAMILY_GRID: tuple[tuple[str, float | None], ...] = tuple(
    (tag, x) for tag, xs, _ in TABLE1_ROWS for x in xs
)

# frames per pass of sweep_grid (a pass holds at least one family): the bound on
# the temporaries of sweep_frames
GRID_PASS_FRAMES = 4096


def family_grid() -> list[BianchiFamily]:
    return [BianchiFamily(tag, x) for tag, x in FAMILY_GRID]


def sweep_grid(seeds, samples: int, reduce, tol=DEFAULT_TOL, gap_tol=DEFAULT_GAP_TOL) -> list:
    """``reduce(family, frames, FrameSweep)`` for every ``FAMILY_GRID`` family, in grid order.

    Family ``i`` gets the ``samples`` frames ``genericity_sweep`` draws from seed
    ``seeds[i]``.  One ``sweep_frames`` pass solves ``max(1, GRID_PASS_FRAMES //
    samples)`` families, and only ``reduce``'s results outlive a pass."""
    fams, rngs, out = family_grid(), [np.random.default_rng(seed) for seed in seeds], []
    cs = np.stack([make_bianchi(fam).c for fam in fams])
    step = max(1, GRID_PASS_FRAMES // samples)
    for i in range(0, len(fams), step):
        frames = np.stack([random_frames(3, rng, samples) for rng in rngs[i : i + step]])
        batch = sweep_frames(cs[i : i + step], frames, tol, gap_tol)
        out += [reduce(fam, frames[k], batch[k]) for k, fam in enumerate(fams[i : i + step])]
        del frames, batch  # let go of this pass before the next draw
    return out


def table1_rows(samples: int, seed: int, gap_tol: float, tol: float) -> list[dict]:
    """Eigenvalue-count table per family, via seeded metric sweeps of the whole grid."""
    seeds = [[seed, row, k] for row, (_, xs, _) in enumerate(TABLE1_ROWS) for k in range(len(xs))]
    grid_stats = iter(sweep_grid(seeds, samples, _r_stats, tol, gap_tol))
    rows = []
    for tag, xs, case in TABLE1_ROWS:
        stats = [next(grid_stats) for _ in xs]
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
            label = f"{tag} ({case})" if case else tag
            per_x = " (one count per x)" if len(xs) > 1 else ""
            raise SpinlabError(
                f"--tol {tol:g} splits the symmetry verdicts of row {label}: "
                f"{', '.join(map(str, sym_counts))} of {samples} samples symmetric{per_x}; "
                "a row needs all or none"
            )
        rows.append(dict(family=tag, case=case, gk_dim=gk_dim, r=r, degenerate_fraction=degenerate))
    return rows
