"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spinlab.algebra import (
    FrameChange,
    LieAlgebra,
    check_jacobi,
    metric_from_frame_change,
    random_frames,
)
from spinlab.catalog import (
    BianchiFamily,
    heisenberg_metric,
    heisenberg_params,
    heisenberg_spectrum,
    is_symmetric_family,
    make_bianchi,
    reference_A,
    reference_asymmetry,
    reference_ricci_3d,
)
from spinlab.clifford import Spinor, cliff_relations_check, get_module
from spinlab.cli import table1_rows
from spinlab.connection import (
    curvature,
    metricity_violation,
    nomizu,
    ricci_spinorial_check,
    torsion_violation,
)
from spinlab.gks import (
    dirac_trace_3d,
    eigen_analysis,
    explicit_A_3d,
    gk_equation_residual,
    solve_endomorphism,
    solve_symmetric_endomorphism,
)
from spinlab.selftest import FAMILY_GRID

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP_SEED = 2024
SWEEP_SAMPLES = 100


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    return ok


def family_sweep():
    """Shared seeded sweep: (family, frame change, metric) per grid point."""
    out = []
    for idx, (tag, x) in enumerate(FAMILY_GRID):
        fam = BianchiFamily(tag, x)
        alg = make_bianchi(fam)
        rng = np.random.default_rng([SWEEP_SEED, idx])
        for frame in random_frames(3, rng, SWEEP_SAMPLES):
            p = FrameChange(frame)
            out.append((fam, p, metric_from_frame_change(alg, p)))
    return out


def test_criterion_1_heisenberg_eigenvalue_ladder():
    start = time.perf_counter()
    worst_eig = worst_res = 0.0
    distinct_ok = True
    for n in range(1, 9):
        params = heisenberg_params(n)
        mla = heisenberg_metric(n, *params)
        a, residual = solve_endomorphism(mla, Spinor.one(n))
        lam, mu = heisenberg_spectrum(*params)
        expected = np.sort([mu] + [v for lv in lam for v in (lv, lv)])
        solved, distinct = eigen_analysis(a)
        worst_eig = max(worst_eig, float(np.max(np.abs(solved - expected))))
        worst_res = max(worst_res, residual)
        if distinct != n + 1:
            distinct_ok = False
        # the closed form is {1/(4p)} plus the negative sum
        np.testing.assert_allclose(lam, [1.0 / (4 * p) for p in range(1, n + 1)])
    elapsed = time.perf_counter() - start
    ok = worst_eig <= 1e-12 and worst_res <= 1e-12 and distinct_ok and elapsed < 10.0
    assert _verdict(
        1,
        "heisenberg ladder n=1..8",
        ok,
        f"eig dev {worst_eig:.2e}, residual {worst_res:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_oracle_equivalence():
    worst_a = worst_asym = worst_explicit = 0.0
    verdicts_ok = True
    for fam, p, mla in family_sweep():
        a, _ = solve_endomorphism(mla, Spinor.one(1))
        ref = reference_A(fam, p.matrix)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_a = max(worst_a, float(np.max(np.abs(a - ref))) / scale)
        worst_asym = max(
            worst_asym, float(np.max(np.abs((a - a.T) - reference_asymmetry(fam, p.matrix))))
        )
        worst_explicit = max(
            worst_explicit, float(np.max(np.abs(a - explicit_A_3d(mla.ortho_c))))
        )
        observed = float(np.max(np.abs(a - a.T))) <= 1e-9 * max(
            1.0, float(np.max(np.abs(a)))
        )
        if observed != is_symmetric_family(fam):
            verdicts_ok = False
    ok = (
        worst_a <= 1e-9
        and worst_asym <= 1e-9
        and worst_explicit <= 1e-10
        and verdicts_ok
    )
    assert _verdict(
        2,
        "family closed forms, 13 x 100 metrics",
        ok,
        f"A dev {worst_a:.2e}, skew dev {worst_asym:.2e}, "
        f"explicit-form dev {worst_explicit:.2e}, verdicts {verdicts_ok}",
    )


def test_criterion_3_table_reproduction():
    rows = table1_rows(samples=1000, seed=1, gap_tol=1e-7, tol=1e-9)
    expected = [
        ("L3(-1)", "", 0, None),
        ("L3(1)", "", 2, 2),
        ("L3(2,x)", "x = -1", 2, 3),
        ("L3(2,x)", "x != -1", 0, None),
        ("L3(3)", "", 0, None),
        ("L3(4,x)", "x = 0", 2, 3),
        ("L3(4,x)", "x != 0", 0, None),
        ("L3(5)", "", 2, 3),
        ("L3(6)", "", 2, 3),
    ]
    got = [(r["family"], r["case"], r["gk_dim"], r["r"]) for r in rows]
    table_ok = got == expected
    degenerate = {
        (r["family"], r["case"]): r["degenerate_fraction"] for r in rows
    }
    frac_ok = (
        degenerate[("L3(4,x)", "x = 0")] == 0.0
        and degenerate[("L3(5)", "")] == 0.0
        and degenerate[("L3(6)", "")] == 0.0
    )
    ok = table_ok and frac_ok
    assert _verdict(
        3,
        "eigenvalue-count table, 1000 samples/family",
        ok,
        f"rows {'match' if table_ok else 'differ'}, degenerate fractions "
        f"{[degenerate[k] for k in [('L3(4,x)', 'x = 0'), ('L3(5)', ''), ('L3(6)', '')]]}",
    )


def test_criterion_4_ricci_commutation():
    worst_comm = worst_ric = 0.0
    count = 0
    for fam, p, mla in family_sweep():
        if not is_symmetric_family(fam):
            continue
        count += 1
        a, _ = solve_endomorphism(mla, Spinor.one(1))
        ric = curvature(nomizu(mla), mla)
        comm = float(np.max(np.abs(a @ ric - ric @ a)))
        bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(ric) + 1.0)
        worst_comm = max(worst_comm, comm / bound)
        ref = reference_ricci_3d(mla.ortho_c)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst_ric = max(worst_ric, float(np.max(np.abs(ric - ref))) / scale)
    ok = worst_comm <= 1.0 and worst_ric <= 1e-9 and count == 5 * SWEEP_SAMPLES
    assert _verdict(
        4,
        "A commutes with Ricci on symmetric cases",
        ok,
        f"commutator/bound {worst_comm:.2e}, Ricci dev {worst_ric:.2e}, {count} cases",
    )


def test_criterion_5_dichotomy():
    worst_basis = 0.0
    obstruction_ok = True
    for fam, p, mla in family_sweep():
        a, _ = solve_endomorphism(mla, Spinor.one(1))
        if is_symmetric_family(fam):
            worst_basis = max(
                worst_basis,
                gk_equation_residual(mla, a, Spinor.one(1)),
                gk_equation_residual(mla, a, Spinor.basis(1, 1)),
            )
        else:
            _, sym_residual = solve_symmetric_endomorphism(mla, Spinor.one(1))
            table_dev = float(
                np.max(np.abs((a - a.T) - reference_asymmetry(fam, p.matrix)))
            )
            if not (sym_residual > 1e-3 or table_dev <= 1e-10):
                obstruction_ok = False
    ok = worst_basis <= 1e-10 and obstruction_ok
    assert _verdict(
        5,
        "all-or-nothing dichotomy in dimension 3",
        ok,
        f"basis-spinor residual {worst_basis:.2e}, obstructions {obstruction_ok}",
    )


def test_criterion_6_structural_suite():
    worst_cliff = 0.0
    for n in range(1, 7):
        _, violation = cliff_relations_check(n)
        worst_cliff = max(worst_cliff, violation)

    rng = np.random.default_rng(SWEEP_SEED)
    worst_equiv = 0.0
    for n in range(1, 5):
        mod = get_module(n)
        d = mod.dim_frame
        mats = [mod.vector_matrix(i) for i in range(1, d + 1)]
        for _ in range(100):
            g = rng.uniform(-1, 1, size=(d, d))
            omega = g - g.T
            v = rng.uniform(-1, 1, size=d)
            lift = mod.spin_lift(omega)
            ev = sum(v[i] * mats[i] for i in range(d))
            target = omega @ v
            et = sum(target[i] * mats[i] for i in range(d))
            worst_equiv = max(worst_equiv, float(np.max(np.abs(lift @ ev - ev @ lift - et))))

    worst_torsion = worst_metricity = worst_jacobi = 0.0
    worst_spinorial = worst_dirac = 0.0
    sweep = family_sweep()
    for fam, p, mla in sweep:
        nm = nomizu(mla)
        worst_torsion = max(worst_torsion, torsion_violation(nm, mla))
        worst_metricity = max(worst_metricity, metricity_violation(nm))
        _, jac = check_jacobi(LieAlgebra(3, mla.ortho_c))
        worst_jacobi = max(worst_jacobi, jac)
        a, _ = solve_endomorphism(mla, Spinor.one(1))
        worst_dirac = max(worst_dirac, abs(float(np.trace(a)) - dirac_trace_3d(mla.ortho_c)))
    for fam, p, mla in sweep:
        nm = nomizu(mla)
        for psi in (Spinor.one(1), Spinor.basis(1, 1)):
            _, res = ricci_spinorial_check(nm, mla, psi)
            worst_spinorial = max(worst_spinorial, res)
    for n in (1, 2, 3):
        mla = heisenberg_metric(n)
        nm = nomizu(mla)
        worst_torsion = max(worst_torsion, torsion_violation(nm, mla))
        worst_metricity = max(worst_metricity, metricity_violation(nm))
        _, res = ricci_spinorial_check(nm, mla, Spinor.one(n))
        worst_spinorial = max(worst_spinorial, res)

    ok = (
        worst_cliff <= 1e-12
        and worst_equiv <= 1e-12
        and worst_torsion <= 1e-12
        and worst_metricity <= 1e-12
        and worst_jacobi <= 1e-10
        and worst_spinorial <= 1e-9
        and worst_dirac <= 1e-12
    )
    assert _verdict(
        6,
        "structural identities",
        ok,
        f"clifford {worst_cliff:.1e}, equivariance {worst_equiv:.1e}, "
        f"torsion {worst_torsion:.1e}, metricity {worst_metricity:.1e}, "
        f"jacobi {worst_jacobi:.1e}, spinorial {worst_spinorial:.1e}, "
        f"dirac {worst_dirac:.1e}",
    )


def test_criterion_7_byte_determinism():
    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "spinlab", *args],
            capture_output=True,
            env=env,
        )

    commands = [
        ("analyze", "--algebra", "L3(6)", "--metric", "identity"),
        ("heisenberg", "--n", "4"),
        ("sweep", "--algebra", "L3(5)", "--samples", "20", "--seed", "6"),
        ("table1", "--samples", "10", "--seed", "5"),
        ("verify-appendix", "--samples", "5", "--seed", "2"),
        ("selftest",),
    ]
    ok = True
    for cmd in commands:
        first, second = run(*cmd), run(*cmd)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            ok = False
    assert _verdict(7, "byte-identical reruns across all commands", ok)
