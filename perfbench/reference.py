"""Re-measure the reference timings listed in ROADMAP.md, open item 1.

Usage (from the repository root):

    python3 perfbench/reference.py

Prints a markdown table with each ROADMAP figure next to the figure
measured now.  Whole commands run in-process through ``spinlab.cli.main``
(``analyze`` runs in a fresh interpreter, because its ROADMAP figure is
mostly import time); per-call figures are medians over batches of calls on
seeded random ``L3(6)`` metrics (``full_report`` also over the 13-family
closed-form grid), with no tracer installed.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def time_command(main, argv, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = perf_counter()
        code = _quiet(main, list(argv))
        walls.append(perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
    return statistics.median(walls)


def time_fresh_analyze(repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-m", "spinlab", "analyze", "--algebra", "L3(1)"],
            check=True, capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def per_call_us(fn, args_list, batches: int = 7) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    means = []
    for _ in range(batches):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        means.append((perf_counter() - t0) / len(args_list))
    return statistics.median(means) * 1e6


def main() -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from spinlab.algebra import FrameChange, metric_from_frame_change
    from spinlab.catalog import BianchiFamily, make_bianchi
    from spinlab.cli import main as cli_main
    from spinlab.clifford import Spinor
    from spinlab.gks import eigen_analysis, full_report, gk_equation_residual, solve_endomorphism
    from spinlab.selftest import family_grid

    alg = make_bianchi(BianchiFamily("L3(6)"))
    rng = np.random.default_rng(1)
    frames = [FrameChange.random(3, rng) for _ in range(300)]
    metrics = [metric_from_frame_change(alg, p) for p in frames]
    psi = Spinor.one(1)
    a_mats = [solve_endomorphism(m, psi)[0] for m in metrics]
    grid_metrics = [
        metric_from_frame_change(make_bianchi(fam), FrameChange.random(3, rng))
        for fam in family_grid() for _ in range(25)
    ]

    rows = [
        ("table1 --samples 1000", "10.0 s",
         f"{time_command(cli_main, ('table1', '--samples', '1000', '--seed', '1'), 1):.2f} s"),
        ("verify-appendix --samples 100", "1.06 s",
         f"{time_command(cli_main, ('verify-appendix', '--samples', '100', '--seed', '1'), 3):.2f} s"),
        ("selftest", "0.92 s", f"{time_command(cli_main, ('selftest',), 3):.2f} s"),
        ("analyze, fresh interpreter", "0.22 s", f"{time_fresh_analyze(5):.2f} s"),
        # seconds per 1000 metrics read as milliseconds per metric
        ("sweep --samples 1000, per metric", "1.4 ms",
         f"{time_command(cli_main, ('sweep', '--algebra', 'L3(6)', '--samples', '1000'), 1):.2f} ms"),
        ("full_report (13-family grid)", "706 us",
         f"{per_call_us(full_report, [(m,) for m in grid_metrics]):.0f} us"),
        ("full_report (L3(6) only)", "706 us",
         f"{per_call_us(full_report, [(m,) for m in metrics]):.0f} us"),
        ("metric_from_frame_change", "247 us",
         f"{per_call_us(metric_from_frame_change, [(alg, p) for p in frames]):.0f} us"),
        ("solve_endomorphism", "224 us",
         f"{per_call_us(solve_endomorphism, [(m, psi) for m in metrics]):.0f} us"),
        ("gk_equation_residual", "215 us",
         f"{per_call_us(gk_equation_residual, list(zip(metrics, a_mats, [psi] * 300))):.0f} us"),
        ("eigen_analysis", "46 us",
         f"{per_call_us(eigen_analysis, [(a,) for a in a_mats]):.0f} us"),
    ]
    print("| measurement | ROADMAP | now |")
    print("|---|---|---|")
    for name, ref, now in rows:
        print(f"| {name} | {ref} | {now} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
