"""Built-in invariant suite backing the ``selftest`` CLI command.

Each check exercises one structural identity of the pipeline against an
independent route (closed forms, direct definitions, or exact algebraic
cancellations) and reports its worst deviation together with the tolerance
it is held to.  All randomness is drawn from child seeds of the given seed,
so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .algebra import FrameChange, check_jacobi, metric_from_frame_change, random_frames
from .catalog import (
    BianchiFamily,
    HeisenbergParams,
    heisenberg_gk_eigenvalues,
    heisenberg_metric,
    is_symmetric_family,
    make_bianchi,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
    reference_ricci_3d,
)
from .clifford import Spinor, cliff_relations_check, get_module
from .connection import (
    curvature,
    metricity_violation,
    nomizu,
    ricci_spinorial_check,
    torsion_violation,
)
from .gks import dirac_trace_3d, explicit_A_3d, solve_endomorphism, sweep_frames

# (family tag, parameter) grid covering all seven families including the
# symmetric boundary parameters x = -1 and x = 0
FAMILY_GRID: tuple[tuple[str, float | None], ...] = (
    ("L3(-1)", None),
    ("L3(1)", None),
    ("L3(2,x)", -1.0),
    ("L3(2,x)", -0.5),
    ("L3(2,x)", 0.5),
    ("L3(2,x)", 1.0),
    ("L3(3)", None),
    ("L3(4,x)", 0.0),
    ("L3(4,x)", 0.5),
    ("L3(4,x)", 1.0),
    ("L3(4,x)", 2.0),
    ("L3(5)", None),
    ("L3(6)", None),
)


def family_grid() -> list[BianchiFamily]:
    return [BianchiFamily(tag, x) for tag, x in FAMILY_GRID]


def _check(name: str, deviation: float, tol: float) -> dict:
    return {
        "name": name,
        "deviation": float(deviation),
        "tol": float(tol),
        "pass": bool(deviation <= tol),
    }


def _clifford_relations(n_max: int, broken: bool) -> float:
    worst = 0.0
    for n in range(1, n_max + 1):
        _, violation = cliff_relations_check(n, _flip_contraction_sign=broken)
        worst = max(worst, violation)
    return worst


def _equivariance(seed, n_max: int = 4, pairs: int = 100) -> float:
    """Worst deviation of [lift(omega), v.] from (omega v). over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, n_max + 1):
        mod = get_module(n)
        d = mod.dim_frame
        mats = [mod.vector_matrix(i) for i in range(1, d + 1)]
        for _ in range(pairs):
            g = rng.uniform(-1.0, 1.0, size=(d, d))
            omega = g - g.T
            v = rng.uniform(-1.0, 1.0, size=d)
            lift = mod.spin_lift(omega)
            ev = sum(v[i] * mats[i] for i in range(d))
            target = omega @ v
            et = sum(target[i] * mats[i] for i in range(d))
            worst = max(worst, float(np.max(np.abs(lift @ ev - ev @ lift - et))))
    return worst


def _catalog_jacobi() -> float:
    worst = 0.0
    for fam in family_grid():
        _, violation = check_jacobi(make_bianchi(fam))
        worst = max(worst, violation)
    for n in range(1, 5):
        _, violation = check_jacobi(make_heisenberg(n))
        worst = max(worst, violation)
    return worst


def closed_form_deviations(fam: BianchiFamily, p: FrameChange, a, ortho_c) -> np.ndarray:
    """Worst-entry deviations of a solved 3-d ``A`` from its three closed forms.

    In order: ``reference_A`` (relative to its size), ``reference_asymmetry``
    of ``A - A^T``, and ``explicit_A_3d`` of ``ortho_c``."""
    ref = reference_A(fam, p)
    asym = np.max(np.abs((a - a.T) - reference_asymmetry(fam, p)))
    explicit = np.max(np.abs(a - explicit_A_3d(ortho_c)))
    return np.array([np.max(np.abs(a - ref)) / max(1.0, np.max(np.abs(ref))), asym, explicit])


def _metric_sweep(seed, per_family: int = 20):
    """(family, metric, frame change, engine A) of the seeded verification sweep."""
    out = []
    for idx, fam in enumerate(family_grid()):
        alg = make_bianchi(fam)
        frames = random_frames(3, np.random.default_rng([seed, idx]), per_family)
        for frame, a in zip(frames, sweep_frames(alg, frames).A):
            p = FrameChange(frame)
            out.append((fam, metric_from_frame_change(alg, p), p, a))
    return out


def _heisenberg_sweep(seed, n_max: int = 6, per_n: int = 5):
    rng = np.random.default_rng(seed)
    out = [HeisenbergParams.defaults(n) for n in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        for _ in range(per_n):
            a = tuple(np.exp(rng.uniform(-1.0, 1.0, size=n)))
            b = tuple(np.exp(rng.uniform(-1.0, 1.0, size=n)))
            c = float(np.exp(rng.uniform(-1.0, 1.0)))
            out.append(HeisenbergParams(n, a, b, c))
    return out


def run_selftest(
    tol: float | None = None,
    seed: int = 1,
    break_clifford_sign: bool = False,
) -> dict:
    """Run every invariant check; ``tol`` overrides all per-check tolerances."""

    def t(default: float) -> float:
        return default if tol is None else tol

    checks: list[dict] = []
    checks.append(
        _check("clifford_relations_nupto6", _clifford_relations(6, break_clifford_sign), t(1e-12))
    )
    checks.append(_check("spin_lift_equivariance_n_upto4", _equivariance([seed, 1]), t(1e-12)))
    checks.append(_check("catalog_jacobi", _catalog_jacobi(), t(1e-10)))

    sweep = _metric_sweep([seed, 2])
    torsion = metricity = spinorial = 0.0
    ricci_dev = dirac_dev = 0.0
    closed_dev = np.zeros(3)
    basis = (Spinor.one(1), Spinor.basis(1, 1))
    for fam, mla, p, a_solved in sweep:
        nm = nomizu(mla)
        c = mla.ortho_c
        metricity = max(metricity, metricity_violation(nm))
        torsion = max(torsion, torsion_violation(nm, mla))
        for psi in basis:
            _, res = ricci_spinorial_check(nm, mla, psi)
            spinorial = max(spinorial, res)
        closed_dev = np.maximum(closed_dev, closed_form_deviations(fam, p, a_solved, c))
        dirac_dev = max(dirac_dev, abs(float(np.trace(a_solved)) - dirac_trace_3d(c)))
        if is_symmetric_family(fam):
            ric = curvature(nm, mla).ricci
            ref = reference_ricci_3d(c)
            rscale = max(1.0, float(np.max(np.abs(ref))))
            ricci_dev = max(ricci_dev, float(np.max(np.abs(ric - ref))) / rscale)

    checks.append(_check("nomizu_torsion_free", torsion, t(1e-12)))
    checks.append(_check("nomizu_metricity", metricity, t(1e-12)))
    checks.append(_check("spinorial_ricci_identity", spinorial, t(1e-9)))
    checks.append(_check("solver_vs_family_closed_form", closed_dev[0], t(1e-9)))
    checks.append(_check("solver_vs_explicit_3d_form", closed_dev[2], t(1e-10)))
    checks.append(_check("asymmetry_vs_closed_form", closed_dev[1], t(1e-10)))
    checks.append(_check("ricci_vs_closed_form_symmetric", ricci_dev, t(1e-9)))
    checks.append(_check("dirac_trace_identity", dirac_dev, t(1e-12)))

    heis_dev = 0.0
    for params in _heisenberg_sweep([seed, 3]):
        mla = heisenberg_metric(params)
        a_solved, _ = solve_endomorphism(mla, Spinor.one(params.n))
        lam_vals, mu = heisenberg_gk_eigenvalues(params)
        expected = np.diag([mu] + [v for lv in lam_vals for v in (lv, lv)])
        heis_dev = max(heis_dev, float(np.max(np.abs(a_solved - expected))))
    checks.append(_check("heisenberg_eigenvalue_ladder", heis_dev, t(1e-10)))

    return {
        "seed": seed,
        "tol_override": tol,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
