"""Built-in invariant suite backing the ``selftest`` CLI command.

Each check exercises one structural identity of the pipeline against an
independent route (closed forms, direct definitions, or exact algebraic
cancellations) and reports its worst deviation together with the tolerance
it is held to.  All randomness is drawn from child seeds of the given seed,
so runs are reproducible.

The 3-d closed-form comparison is one pass, ``closed_form_sweep``, shared by
``verify_appendix`` (the ``verify-appendix`` command) and ``run_selftest``;
each adds its own checks on the pass's per-sample stacks.
"""

from __future__ import annotations

import numpy as np

from .algebra import FrameChange, check_jacobi, random_frames
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
    reference_eigenvalues,
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
from .gks import (
    DEFAULT_GAP_TOL,
    DEFAULT_TOL,
    TABLE1_ROWS,
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    solve_endomorphism,
    sweep_frames,
    symmetry_conditions_3d,
)

# every (family tag, parameter) of Table 1's rows: all seven families, including
# the symmetric boundary parameters x = -1 and x = 0
FAMILY_GRID: tuple[tuple[str, float | None], ...] = tuple(
    (tag, x) for tag, xs, _ in TABLE1_ROWS for x in xs
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


def _skew_vector_pairs(rng: np.random.Generator, d: int, pairs: int):
    """``pairs`` random ``(omega, v)`` in one draw: per pair a ``(d, d)`` matrix
    ``g`` with ``omega = g - g^T``, then ``v``, the order of one draw per pair."""
    draws = rng.uniform(-1.0, 1.0, size=(pairs, d * d + d))
    g = draws[:, : d * d].reshape(pairs, d, d)
    return g - g.swapaxes(-1, -2), draws[:, d * d :]


def _equivariance(seed, n_max: int = 4, pairs: int = 100) -> float:
    """Worst deviation of [lift(omega), v.] from (omega v). over random draws,
    all pairs of one module size checked in one stacked commutator."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(1, n_max + 1):
        mod = get_module(n)
        eye = np.eye(mod.dim_spinor)
        omega, v = _skew_vector_pairs(rng, mod.dim_frame, pairs)
        lift = mod.spin_lift(omega)
        ev = mod.apply_combo(v, eye)
        et = mod.apply_combo((omega @ v[..., None])[..., 0], eye)
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


def closed_form_sweep(seed, samples: int, tol=DEFAULT_TOL, gap_tol=DEFAULT_GAP_TOL):
    """The seeded comparison of the solver with the closed forms, one family at a time.

    Family ``idx`` of ``FAMILY_GRID`` gets ``samples`` frames from
    ``default_rng([seed, idx])`` and one ``sweep_frames`` pass; yields its
    ``(family, FrameChange list, FrameSweep, (samples, 3) closed_form_deviations)``."""
    for idx, fam in enumerate(family_grid()):
        frames = random_frames(3, np.random.default_rng([seed, idx]), samples)
        batch = sweep_frames(make_bianchi(fam), frames, tol, gap_tol)
        changes = [FrameChange(frame) for frame in frames]
        devs = [closed_form_deviations(fam, *x) for x in zip(changes, batch.A, batch.ortho_c)]
        yield fam, changes, batch, np.array(devs)


def verify_appendix(samples: int, seed: int, tol: float, gap_tol: float) -> dict:
    """Solver against the closed forms of every ``FAMILY_GRID`` family.

    Per family: the worst deviation from each closed form, whether every
    symmetry verdict (the engine's and ``symmetry_conditions_3d``) matches
    ``is_symmetric_family``, and, where ``reference_eigenvalues`` has a
    display, the worst eigenvalue deviation relative to its size."""
    results = []
    for fam, changes, batch, devs in closed_form_sweep(seed, samples, tol, gap_tol):
        expected_sym = is_symmetric_family(fam)
        verdicts = np.concatenate([batch.symmetric, symmetry_conditions_3d(batch.ortho_c, tol)])
        verdicts_ok = bool(np.all(verdicts == expected_sym))
        a_dev, asym_dev, explicit_dev = (float(v) for v in np.max(devs, axis=0))
        eigen_dev: float | None = None
        closed = [reference_eigenvalues(fam, p) for p in changes]
        if None not in closed:
            ref = np.sort(closed, axis=-1)
            vals = eigen_analysis(batch.A, gap_tol)[0]
            escale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))
            eigen_dev = float(np.max(np.max(np.abs(vals - ref), axis=-1) / escale))
        worst = (a_dev, asym_dev, explicit_dev, eigen_dev)
        results.append(
            {
                "family": fam.label,
                "samples": samples,
                "max_A_deviation": a_dev,
                "max_asymmetry_deviation": asym_dev,
                "max_explicit_A_deviation": explicit_dev,
                "max_eigenvalue_deviation": eigen_dev,
                "symmetry_expected": expected_sym,
                "symmetry_verdicts_ok": verdicts_ok,
                "pass": verdicts_ok and all(v <= tol for v in worst if v is not None),
            }
        )
    all_pass = all(r["pass"] for r in results)
    return {"samples": samples, "seed": seed, "tol": tol, "results": results, "all_pass": all_pass}


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

    fams, _, batches, devs = zip(*closed_form_sweep([seed, 2], 20))
    ortho_c = np.concatenate([batch.ortho_c for batch in batches])
    a_stack = np.concatenate([batch.A for batch in batches])
    nm = nomizu(ortho_c)
    metricity = float(np.max(metricity_violation(nm)))
    torsion = float(np.max(torsion_violation(nm, ortho_c)))
    spinorial = max(
        float(np.max(ricci_spinorial_check(nm, ortho_c, psi)[1]))
        for psi in (Spinor.one(1), Spinor.basis(1, 1))
    )
    ricci = curvature(nm, ortho_c).ricci
    closed_dev = np.max(np.concatenate(devs), axis=0)
    ricci_dev = dirac_dev = 0.0
    per_sample = [fam for fam, batch in zip(fams, batches) for _ in batch.A]
    for fam, c, a_solved, ric in zip(per_sample, ortho_c, a_stack, ricci):
        dirac_dev = max(dirac_dev, abs(float(np.trace(a_solved)) - dirac_trace_3d(c)))
        if is_symmetric_family(fam):
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
