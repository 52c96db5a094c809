"""Built-in invariant suite backing the ``selftest`` CLI command.

Each check exercises one structural identity of the pipeline against an
independent route (closed forms, direct definitions, or exact algebraic
cancellations) and reports its worst deviation together with the tolerance
it is held to.  A check with several parts folds them with numpy's max, which keeps a
NaN where Python's ``max`` drops it, so a NaN part fails its check.  All randomness is
drawn from child seeds of the given seed, so runs are reproducible.

The 3-d closed-form comparison, ``closed_form_sweep``, is one ``gks.sweep_grid``
over the 13 grid families, shared by ``verify_appendix`` (the ``verify-appendix``
command) and ``run_selftest``; each reduces every pass's ``(F, N)`` stacks at once
to one row of per-family maxima and flags, and combines a family's chunks by max.
Both read the constants, so ``closed_form_sweep`` scatters each pass's duals to the
``(F, N, 3, 3, 3)`` ``ortho_c`` once (``gks._from_dual``) and hands them plain arrays.
The sweep only solves: ``verify_appendix`` judges symmetry itself (``gks._symmetric``)
and takes no ``gap_tol``; the ``run_selftest`` grid pass computes no verdict or eigenvalues.
The ``run_selftest`` grid pass builds one Ricci stack with ``curvature`` and passes it
to the spinorial Ricci identity on both basis spinors and to the closed-form Ricci check.
Every closed form is evaluated on a whole frame stack, the family closed forms once
per run of same-tag families, so no check loops over samples; the Clifford relations check
reads the spin lift's product rule, ``clifford._product``, on every row.  Spin-lift
equivariance checks each module size's pairs in chunks of ``_EQUIVARIANCE_CHUNK``: a
chunk's dense lifts and frame-vector actions are one matmul of its drawn weights with
the module's cached dense bases, ``_dense_bases``, which ``apply_spin_lift`` and
``apply_combo`` build on the identity.  The
Heisenberg ladder stacks each rung's default parameters, ``catalog.heisenberg_params``,
over five sets drawn in one call and solves them as one stacked Killing system with
``gks.solve_heisenberg``, the solve of the ``heisenberg`` command, on the stacked
structure constants ``catalog.heisenberg_ortho_c``; it compares ``A`` with the stacked closed form
``heisenberg_spectrum`` and builds no per-metric parameter, algebra or metric object.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

import numpy as np

from .algebra import jacobi_violation
from .catalog import (
    BianchiFamily,
    heisenberg_params,
    heisenberg_spectrum,
    is_symmetric_family,
    make_heisenberg,
    reference_A,
    reference_asymmetry,
    reference_eigenvalues,
    reference_ricci_3d,
)
from .clifford import CliffordModule, Spinor, cliff_relations_check, elementary_skews, get_module
from .connection import (
    curvature,
    metricity_violation,
    nomizu,
    ricci_spinorial_check,
    torsion_violation,
)
from .gks import (
    FAMILY_GRID,
    _from_dual,
    _grid_stack,
    _symmetric,
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    family_grid,  # noqa: F401  (imported from here by the tests and perfbench/reference.py)
    solve_heisenberg,
    sweep_grid,
    symmetry_conditions_3d,
)

_EQUIVARIANCE_N_MAX, _EQUIVARIANCE_PAIRS = 4, 100  # spin_lift_equivariance_n_upto4
# pairs per commutator stack: at n = 4 a chunk of 25 peaks near 0.7 MB, all 100 near 2.2 MB
_EQUIVARIANCE_CHUNK = 25
_HEISENBERG_N_MAX, _HEISENBERG_PER_N = 6, 5  # heisenberg_eigenvalue_ladder


def _check(name: str, deviation: float, tol: float) -> dict:
    return {
        "name": name,
        "deviation": float(deviation),
        "tol": float(tol),
        "pass": bool(deviation <= tol),
    }


def _skew_vector_pairs(rng: np.random.Generator, d: int, pairs: int):
    """``pairs`` random ``(omega, v)`` in one call: per pair a ``(d, d)`` matrix
    ``g`` with ``omega = g - g^T``, then ``v``, the order of one draw per pair.  Calls
    on one generator continue its stream, so chunks of pairs draw what one call draws."""
    draws = rng.uniform(-1.0, 1.0, size=(pairs, d * d + d))
    g = draws[:, : d * d].reshape(pairs, d, d)
    return g - g.swapaxes(-1, -2), draws[:, d * d :]


@lru_cache(maxsize=_EQUIVARIANCE_N_MAX)  # the modules of one run
def _dense_bases(mod: CliffordModule) -> tuple[np.ndarray, ...]:
    """``(b, a)`` of the frame pairs, the dense lifts of their ``E_ba`` and the dense
    actions of the frame vectors, once per module and read-only.

    Row ``k`` of the lifts is ``spin_lift(E_ba)`` of pair ``k`` from one ``apply_spin_lift``
    call, row ``i`` of the actions ``vector_matrix(i + 1)`` from one ``apply_combo`` call.
    Each operator is kept transposed, the layout those routes return on the rows of the
    identity, and realified as ``2 * 4**n`` floats, so weights ``(K, rows)`` times a basis
    are ``K`` operators."""
    a, b, skew = elementary_skews(mod.dim_frame)
    eye = np.eye(mod.dim_spinor)
    lifts = mod.apply_spin_lift(skew[:, None], eye)
    actions = mod.apply_combo(np.eye(mod.dim_frame)[:, None], eye)
    bases = [op.view(float).reshape(len(op), -1) for op in (lifts, actions)]
    for arr in (b, a, *bases):
        arr.setflags(write=False)
    return (b, a, *bases)


def _equivariance(seed) -> float:
    """Worst deviation of [lift(omega), v.] from (omega v). over random draws,
    the pairs of one module size checked in stacked commutators of at most
    ``_EQUIVARIANCE_CHUNK`` pairs, each chunk drawn in turn from one generator.

    The dense operators are linear in their weights: a chunk's lifts are one matmul of
    the drawn ``omega[b, a]`` with the cached lifts of the ``E_ba``, the frame-vector
    actions of ``v`` and ``omega v`` one matmul with the cached actions.  Every float
    of a basis is 0, +-1/2 or +-1, so each product is exact; a matmul that adds them in
    pair order, as ``apply_spin_lift`` does, gives the ``spin_lift`` route's deviation
    bit for bit (a test checks it against the BLAS it runs on)."""
    rng, worst = np.random.default_rng(seed), []
    for n in range(1, _EQUIVARIANCE_N_MAX + 1):
        mod = get_module(n)
        b, a, lifts, actions = _dense_bases(mod)
        shape = (-1, mod.dim_spinor, mod.dim_spinor)
        for start in range(0, _EQUIVARIANCE_PAIRS, _EQUIVARIANCE_CHUNK):
            pairs = min(_EQUIVARIANCE_CHUNK, _EQUIVARIANCE_PAIRS - start)
            omega, v = _skew_vector_pairs(rng, mod.dim_frame, pairs)
            omega = mod._require_skew(omega)
            lift = (omega[:, b, a] @ lifts).view(complex).reshape(shape).swapaxes(-1, -2)
            weights = np.concatenate([v, (omega @ v[..., None])[..., 0]])
            ev, et = np.split((weights @ actions).view(complex).reshape(shape).swapaxes(-1, -2), 2)
            worst.append(np.max(np.abs(lift @ ev - ev @ lift - et)))
    return float(np.max(worst))


def _catalog_jacobi() -> float:
    """Worst Jacobi violation of the 13 cached grid constants, recomputed in one stacked
    call each time, and of ``H(3)`` to ``H(9)``."""
    grid = np.max(jacobi_violation(_grid_stack()[1]))  # np.max refuses a list of a stack and floats
    return float(np.max([grid, *(jacobi_violation(make_heisenberg(n)) for n in range(1, 5))]))


def closed_form_deviations(fams, frames, a, ortho_c) -> np.ndarray:
    """Worst-entry deviations of solved 3-d ``A`` from their three closed forms, ``(F, N, 3)``.

    For ``F`` families, ``(F, N, ...)`` frames, ``A`` and ``ortho_c``, in order: ``reference_A``
    (relative to its size), ``reference_asymmetry`` of ``A - A^T`` and ``explicit_A_3d`` of
    ``ortho_c``.  The family closed forms take each run of same-tag families in one call,
    their ``x`` as a ``(G, 1)`` column."""

    def worst(m):  # reduced at once, so a large stack holds one difference at a time
        return np.max(np.abs(m), axis=(-2, -1))

    ref, ref_asym, start = np.empty_like(a), np.empty_like(a), 0
    for tag, run in groupby(fams, key=lambda fam: fam.tag):
        xs = [fam.x for fam in run]
        col = BianchiFamily(tag, None if xs[0] is None else np.array(xs)[:, None])
        stop = start + len(xs)
        ref[start:stop] = reference_A(col, frames[start:stop])
        ref_asym[start:stop] = reference_asymmetry(col, frames[start:stop])
        start = stop
    rel = worst(a - ref) / np.maximum(1.0, worst(ref))
    asym = worst((a - a.swapaxes(-1, -2)) - ref_asym)
    return np.stack([rel, asym, worst(a - explicit_A_3d(ortho_c))], axis=-1)


def closed_form_sweep(seed, samples: int, reduce):
    """The seeded comparison of the solver with the closed forms, as one ``sweep_grid``.

    Family ``idx`` of ``FAMILY_GRID`` gets ``samples`` frames from ``default_rng([seed,
    idx])``; ``reduce(families, (F, n, 3, 3) frames, (F, n, 3, 3) A, (F, n, 3, 3, 3)
    ortho_c, (F, n, 3) closed_form_deviations)`` returns one row per family, and the result
    is ``sweep_grid``'s ``(families, chunks, k)`` array.  Both reducers read ``ortho_c``, so
    each pass scatters it from the sweep's duals once, here."""

    def compare(fams, frames, dual, a):
        ortho_c = _from_dual(dual)
        return reduce(fams, frames, a, ortho_c, closed_form_deviations(fams, frames, a, ortho_c))

    seeds = [[seed, idx] for idx in range(len(FAMILY_GRID))]
    return sweep_grid(seeds, samples, compare)


def verify_appendix(samples: int, seed: int, tol: float) -> dict:
    """Solver against the closed forms of every ``FAMILY_GRID`` family.

    Per family: the worst deviation from each closed form, whether every
    symmetry verdict at ``tol`` (``_symmetric`` of ``A`` and ``symmetry_conditions_3d``)
    matches ``is_symmetric_family``, and, where ``reference_eigenvalues`` has a
    display, the worst eigenvalue deviation relative to its size.  Each chunk
    is reduced at once to per-family rows: the three deviations, the eigenvalue
    deviation (0 without a display), a flag for a closed-form eigenvalue display
    and a flag for a mismatched verdict; the chunks of a family combine by max."""

    def check(fams, frames, a, ortho_c, devs):
        expected = np.array([is_symmetric_family(fam) for fam in fams])[:, None]
        symmetric, conditions = _symmetric(a, tol), symmetry_conditions_3d(ortho_c, tol)
        rows = np.zeros((len(fams), 6))
        rows[:, :3] = np.max(devs, axis=1)
        rows[:, 5] = np.any((symmetric != expected) | (conditions != expected), axis=-1)
        closed = {k: reference_eigenvalues(fam, frames[k]) for k, fam in enumerate(fams)}
        closed = {k: ref for k, ref in closed.items() if ref is not None}
        if closed:  # one eigen_analysis call for every family with closed-form eigenvalues
            ref = np.sort(list(closed.values()), axis=-1)
            vals = eigen_analysis(a[list(closed)])[0]  # the values need no gap_tol
            escale = np.maximum(1.0, np.max(np.abs(ref), axis=-1))
            rows[list(closed), 3] = np.max(np.max(np.abs(vals - ref), axis=-1) / escale, axis=-1)
            rows[list(closed), 4] = 1.0
        return rows

    worst = closed_form_sweep(seed, samples, check).max(axis=1)
    # numpy comparisons, so a NaN deviation fails
    passed = np.all(worst[:, :4] <= tol, axis=-1) & (worst[:, 5] == 0.0)
    results = [
        {
            "family": fam.label,
            "samples": samples,
            "max_A_deviation": a_dev,
            "max_asymmetry_deviation": asym_dev,
            "max_explicit_A_deviation": explicit_dev,
            "max_eigenvalue_deviation": eigen_dev if has_eigen else None,
            "symmetry_expected": is_symmetric_family(fam),
            "symmetry_verdicts_ok": not mismatch,
            "pass": ok,
        }
        for fam, (a_dev, asym_dev, explicit_dev, eigen_dev, has_eigen, mismatch), ok in zip(
            _grid_stack()[0], worst.tolist(), passed.tolist()
        )
    ]
    all_pass = all(r["pass"] for r in results)
    return {"samples": samples, "seed": seed, "tol": tol, "results": results, "all_pass": all_pass}


def run_selftest(tol: float | None = None, seed: int = 1) -> dict:
    """Run every invariant check; ``tol`` overrides all per-check tolerances."""

    def t(default: float) -> float:
        return default if tol is None else tol

    checks: list[dict] = []
    relations = np.max([cliff_relations_check(n)[1] for n in range(1, 7)])
    checks.append(_check("clifford_relations_nupto6", relations, t(1e-12)))
    checks.append(_check("spin_lift_equivariance_n_upto4", _equivariance([seed, 1]), t(1e-12)))
    checks.append(_check("catalog_jacobi", _catalog_jacobi(), t(1e-10)))

    def grid_checks(fams, frames, a, ortho_c, devs):  # per-family maxima, one row per family
        psis = Spinor.one(1), Spinor.basis(1, 1)
        nm, sym = nomizu(ortho_c), np.array([is_symmetric_family(fam) for fam in fams])
        ric = curvature(nm, ortho_c)  # one stack for both Ricci checks
        spinorial = np.maximum(*(ricci_spinorial_check(nm, ortho_c, p, _ricci=ric)[1] for p in psis))
        ref, ricci_dev = reference_ricci_3d(ortho_c[sym]), np.zeros(a.shape[:-2])
        rscale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
        # symmetric families only: 0 elsewhere
        ricci_dev[sym] = np.max(np.abs(ric[sym] - ref), axis=(-2, -1)) / rscale
        dirac = np.abs(np.trace(a, axis1=-2, axis2=-1) - dirac_trace_3d(ortho_c))
        per_sample = (metricity_violation(nm), torsion_violation(nm, ortho_c), spinorial, ricci_dev)
        return np.max(np.concatenate([np.stack([*per_sample, dirac], -1), devs], axis=-1), axis=1)

    # 13 x 20 frames are one grid pass
    worst = closed_form_sweep([seed, 2], 20, grid_checks).max(axis=(0, 1)).tolist()
    metricity, torsion, spinorial, ricci_dev, dirac_dev, *closed_dev = worst

    checks.append(_check("nomizu_torsion_free", torsion, t(1e-12)))
    checks.append(_check("nomizu_metricity", metricity, t(1e-12)))
    checks.append(_check("spinorial_ricci_identity", spinorial, t(1e-9)))
    checks.append(_check("solver_vs_family_closed_form", closed_dev[0], t(1e-9)))
    checks.append(_check("solver_vs_explicit_3d_form", closed_dev[2], t(1e-10)))
    checks.append(_check("asymmetry_vs_closed_form", closed_dev[1], t(1e-10)))
    checks.append(_check("ricci_vs_closed_form_symmetric", ricci_dev, t(1e-9)))
    checks.append(_check("dirac_trace_identity", dirac_dev, t(1e-12)))

    heis_dev, rng = [], np.random.default_rng([seed, 3])
    for n in range(1, _HEISENBERG_N_MAX + 1):  # one draw and one stacked Killing system per rung
        draws = np.exp(rng.uniform(-1.0, 1.0, size=(_HEISENBERG_PER_N, 2 * n + 1)))
        # a metric a row, a | b | c: the defaults, then draws in [1/e, e]
        rung = np.vstack([np.hstack(heisenberg_params(n)), draws])
        a, b, c = rung[:, :n], rung[:, n:-1], rung[:, -1]
        a_solved = solve_heisenberg(a, b, c)[0]
        lam, mu = heisenberg_spectrum(a, b, c)
        expected, diag = np.zeros_like(a_solved), np.arange(2 * n + 1)
        expected[:, diag, diag] = np.c_[mu, np.repeat(lam, 2, axis=-1)]  # (mu, l1, l1, l2, ...)
        heis_dev.append(np.max(np.abs(a_solved - expected)))
    checks.append(_check("heisenberg_eigenvalue_ladder", np.max(heis_dev), t(1e-10)))

    return {
        "seed": seed,
        "tol_override": tol,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
