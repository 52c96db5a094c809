"""spinlab benchmark: drives ``spinlab.cli.main`` in-process and times it.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep3d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload's first cycle repeatedly, alternating passes
with and without the span tracer, and reports per-function metrics plus the
tracing overhead.  The last line of stdout is the result object; the line
before it describes the machine and the run.  A human-readable summary goes
to stderr.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# Time of a fresh interpreter that imports numpy and nothing else
# (BASELINE_CHILD), on the reference machine in a quiet period.  setup_s is
# set-up in units of this start-up, times this fixed figure.
BASELINE_START_REF_S = 0.130

# Fresh-interpreter set-up: import, parser construction, the workload's
# warm-up command lines and its Clifford modules; prints "ready" when done.
SETUP_CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spinlab.cli as cli
from spinlab.clifford import get_module
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        if cli.main(argv) != 0:
            raise SystemExit(f"warm-up command failed: {argv}")
for n in json.loads(sys.argv[3]):
    get_module(n)
print("ready", flush=True)
"""
# The same interpreter start-up without spinlab: the reference each set-up is
# divided by.
BASELINE_CHILD = 'import numpy; print("ready", flush=True)'


# ------------------------------------------------------------------ machine
def _openblas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def machine_description(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "seed": seed,
    }


# ------------------------------------------------------------------ running
def run_invocation(main, argv) -> tuple[float, int | None, str, str]:
    """Run one command line; returns (wall seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed item, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
    if code != 0 and not error:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return wall, code, out.getvalue(), error


def gate(inv: wl.Invocation, code, stdout: str, error: str) -> str:
    """Empty string when the invocation passed its gate, else the reason."""
    if code != 0:
        return error or f"exit {code}"
    try:
        doc = wl.parse_output(stdout)
        wl.check_finite(doc)
        inv.gate(doc)
    except (wl.GateError, KeyError, TypeError) as exc:
        return f"{inv.slot}: {type(exc).__name__}: {exc}"
    return ""


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, items: int, problem: str) -> None:
        self.attempted += items
        if problem:
            self.failed += items
            if len(self.errors) < 20:
                self.errors.append(problem)


def _time_to_ready(argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter until it prints "ready"."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up in a fresh interpreter failed: {err.strip()[-500:]}")
    return elapsed


def measure_setup(workload: wl.Workload, seed: int) -> tuple[list[float], list[float]]:
    """Alternate set-up starts with numpy-only starts; returns both lists.

    Process creation and library loading speed up and slow down with the
    host over seconds to minutes, so each set-up is compared with the
    numpy-only start that runs just after it.
    """
    child = [sys.executable, "-c", SETUP_CHILD, str(SRC),
             json.dumps([list(a) for a in workload.warmup(seed)]),
             json.dumps(list(workload.module_sizes))]
    setup, baseline = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(_time_to_ready(child))
        baseline.append(_time_to_ready([sys.executable, "-c", BASELINE_CHILD]))
    return setup, baseline


def warm_up(main, workload: wl.Workload, seed: int) -> None:
    from spinlab.clifford import get_module

    for argv in workload.warmup(seed):
        _, code, _, error = run_invocation(main, argv)
        if code != 0:
            raise SystemExit(f"warm-up command {argv} failed: {error}")
    for n in workload.module_sizes:
        get_module(n)
    CALIBRATION[workload.name][0]()


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank: the value at rank ``ceil(p N / 100)`` of the sorted samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def calibrate_small() -> float:
    """Wall time of a fixed kernel of small calls that shares no code with spinlab.

    Small least-squares, einsum and eigenvalue calls plus a Python loop, the
    mix a 3-d report makes.  It runs before and after every timed command
    and so measures the host's speed at the time the command ran.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(100):
        a = rng.standard_normal((24, 9))
        x = np.linalg.lstsq(a, rng.standard_normal(24), rcond=None)[0]
        acc += float(np.linalg.eigvalsh(np.einsum("ij,ik->jk", a, a))[0])
        acc += sum(v * v for v in x.tolist())
    wall = perf_counter() - t0
    if not math.isfinite(acc):
        raise SystemExit("calibration kernel produced a non-finite number")
    return wall


_LARGE_INPUTS: list = []


def calibrate_large() -> float:
    """Wall time of a fixed kernel of large calls that shares no code with spinlab.

    One tall least-squares (16384 x 29, half the rows of an n = 14 Heisenberg
    solve), complex vector updates of 8192 entries and a contraction of a
    29^4 tensor: the memory-bound mix of a large Heisenberg report, on which
    a slow host weighs less than on small calls.
    """
    import numpy as np

    if not _LARGE_INPUTS:
        rng = np.random.default_rng(12345)
        _LARGE_INPUTS.extend((
            rng.standard_normal((16384, 29)),
            rng.standard_normal(16384),
            rng.standard_normal((29, 8192)) + 1j * rng.standard_normal((29, 8192)),
            rng.standard_normal((29, 29, 29, 29)),
        ))
    a, b, v, r = _LARGE_INPUTS
    t0 = perf_counter()
    acc = float(np.linalg.lstsq(a, b, rcond=None)[0][0])
    for k in range(3):
        acc += float(np.abs(v * (0.5 + k) + v[::-1]).sum())
    acc += float(np.einsum("ijkl,jl->ik", r, r[0, 0])[0, 0])
    wall = perf_counter() - t0
    if not math.isfinite(acc):
        raise SystemExit("calibration kernel produced a non-finite number")
    return wall


# The kernel each workload's times are divided by, and that kernel's time on
# the reference machine in a quiet period (BASELINE.md).  wall_s is the cycle
# in units of the kernel's time, times this fixed figure; changing it
# rescales wall_s and items_per_s.
CALIBRATION = {
    "sweep3d": (calibrate_small, 0.0050),
    "oracle3d": (calibrate_small, 0.0050),
    "heisenberg_large": (calibrate_large, 0.0150),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- end to end
def end_to_end(main, workload: wl.Workload, seed: int, seconds: float, tally: Tally):
    per_slot: dict[str, list[float]] = {}
    per_slot_scaled: dict[str, list[float]] = {}
    slot_items: dict[str, int] = {}
    per_item_us: list[float] = []
    per_item_us_raw: list[float] = []
    first_stdout: dict[str, str] = {}
    calibrate, calibration_ref_s = CALIBRATION[workload.name]
    calibration = [calibrate()]
    cycles = 0
    start = perf_counter()
    while True:
        for inv in workload.cycle(seed, cycles):
            wall, code, stdout, error = run_invocation(main, inv.argv)
            calibration.append(calibrate())
            host = (calibration[-2] + calibration[-1]) / 2
            tally.add(inv.items, gate(inv, code, stdout, error))
            per_slot.setdefault(inv.slot, []).append(wall)
            scaled = wall / host * calibration_ref_s
            per_slot_scaled.setdefault(inv.slot, []).append(scaled)
            slot_items[inv.slot] = inv.items
            per_item_us.append(scaled / inv.items * 1e6)
            per_item_us_raw.append(wall / inv.items * 1e6)
            if cycles == 0:
                first_stdout[inv.slot] = stdout
        cycles += 1
        if perf_counter() - start >= seconds:
            break
    phase_wall = perf_counter() - start

    # the first cycle again, untimed: stdout must repeat byte for byte
    for inv in workload.cycle(seed, 0):
        _, code, stdout, error = run_invocation(main, inv.argv)
        problem = gate(inv, code, stdout, error)
        if not problem and stdout != first_stdout[inv.slot]:
            problem = f"{inv.slot}: stdout differs on rerun with the same seed"
        tally.add(inv.items, problem)

    # The host's speed changes by up to 2 times, for seconds at a time or
    # for minutes, so raw medians vary from run to run.  Each command's time
    # is divided by the mean of the calibration runs just before and after
    # it, and the median of these ratios is reported in seconds of the
    # reference machine (CALIBRATION).
    slot_median = {slot: statistics.median(walls) for slot, walls in per_slot.items()}
    slot_scaled = {slot: statistics.median(walls) for slot, walls in per_slot_scaled.items()}
    cycle_wall = sum(slot_scaled.values())
    median_cycle_s = sum(slot_median.values())
    cycle_items = sum(slot_items.values())
    tail_pct, tail_us = tail(per_item_us)
    metrics = {
        "items_per_s": (cycle_items / cycle_wall, "1/s"),
        "wall_s": (cycle_wall, "s"),
    }
    details = {
        "cycles": cycles,
        "timed_phase_s": phase_wall,
        "items_per_cycle": cycle_items,
        "median_cycle_s": median_cycle_s,
        "calibration_median_s": statistics.median(calibration),
        "calibration_best_s": min(calibration),
        "host_scale": cycle_wall / median_cycle_s,
        # per-item latency percentiles, without a bound (README.md): scaled
        # to the reference machine like wall_s, and as measured
        "item_us.p50": statistics.median(per_item_us),
        "item_us.tail": tail_us,
        "raw_item_us.p50": statistics.median(per_item_us_raw),
        "raw_item_us.tail": tail(per_item_us_raw)[1],
        "item_samples": len(per_item_us),
        "tail_percentile": tail_pct,
        "slot_median_s": slot_median,
        "slot_scaled_s": slot_scaled,
    }
    return metrics, details


# ------------------------------------------------------------------ traced
SYMMETRIC_REPORT = {
    "connection.nomizu": 1,
    "gks.solve_endomorphism": 1,
    "clifford.CliffordModule.apply_spin_lift": 9,
    "gks.gk_equation_residual": 2,
    "gks.eigen_analysis": 1,
    "connection.curvature": 1,
}
NONSYMMETRIC_REPORT = {
    "clifford.CliffordModule.apply_spin_lift": 3,
    "gks.gk_equation_residual": 0,
}


def tracer_self_check(main, tracer: Tracer) -> list[str]:
    """Exact call counts of one 3-d report, and identical stdout with tracing."""
    problems = []
    for algebra, expected in (("L3(6)", SYMMETRIC_REPORT), ("L3(3)", NONSYMMETRIC_REPORT)):
        argv = ("analyze", "--algebra", algebra, "--metric", "identity")
        _, code, plain, _ = run_invocation(main, argv)
        tracer.install()
        try:
            missing = tracer.unpatched_bindings()
            if missing:
                problems.append(f"traced functions left unpatched: {missing}")
            tracer.reset_pass()
            _, traced_code, traced, _ = run_invocation(main, argv)
        finally:
            tracer.uninstall()
        if code != 0 or traced_code != 0:
            problems.append(f"self-check report {algebra} exited {code}/{traced_code}")
        if traced != plain:
            problems.append(f"stdout of {algebra} differs with tracing on")
        for name, count in expected.items():
            got = tracer.stats[name].calls
            if got != count:
                problems.append(f"{algebra}: {name} called {got} times, expected {count}")
    return problems


def traced_run(main, workload: wl.Workload, seed: int, seconds: float, tally: Tally):
    tracer = Tracer()
    problems = tracer_self_check(main, tracer)
    unit = workload.cycle(seed, 0)
    reference: dict[str, str] = {}
    walls = {False: [], True: []}
    passes: list[dict] = []
    start = perf_counter()
    pair = 0
    while pair == 0 or perf_counter() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.reset_pass()
                tracer.keep_spans = not passes
            t0 = perf_counter()
            try:
                outputs = [(inv, run_invocation(main, inv.argv)) for inv in unit]
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.keep_spans = False
            walls[traced].append(perf_counter() - t0)
            for inv, (_, code, stdout, error) in outputs:
                problem = gate(inv, code, stdout, error)
                if not problem and reference.setdefault(inv.slot, stdout) != stdout:
                    problem = f"{inv.slot}: stdout differs between passes"
                tally.add(inv.items, problem)
            if traced:
                passes.append({
                    "stats": tracer.stats,
                    "hits": tracer.get_module_hits,
                    "solve_bytes": tracer.solve_bytes,
                    "solve_flops": tracer.solve_flops,
                    "json_bytes": tracer.json_bytes,
                })
        pair += 1

    first = passes[0]
    for p in passes[1:]:
        if any(p["stats"][n].calls != first["stats"][n].calls for n in SPAN_NAMES):
            problems.append("call counts differ between traced passes")
            break

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls = first["stats"][name].calls
        total_calls = sum(p["stats"][name].calls for p in passes)
        total_time = sum(p["stats"][name].total for p in passes)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.us_per_call"] = (
            total_time / total_calls * 1e6 if total_calls else 0.0, "us")
        metrics[f"{name}.self_ms"] = (
            statistics.median(p["stats"][name].self_total for p in passes) * 1e3, "ms")
    gm_calls = first["stats"]["clifford.get_module"].calls
    metrics["clifford.get_module.hit_ratio"] = (
        first["hits"] / gm_calls if gm_calls else 0.0, "ratio")
    metrics["gks.solve_endomorphism.bytes_computed"] = (first["solve_bytes"], "B")
    metrics["gks.solve_endomorphism.flops_computed"] = (first["solve_flops"], "flop")
    metrics["serialize.to_json.bytes"] = (first["json_bytes"], "B")
    plain = statistics.median(walls[False])
    overhead = statistics.median(walls[True]) - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.spans_json()))
    details = {
        "passes_per_side": len(passes),
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "self_check_problems": problems,
    }
    return metrics, details, problems


# --------------------------------------------------------------------- main
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "spinlab" / "cli.py").is_file():
        print(f"error: spinlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spinlab.cli import main as spinlab_main

    workload = wl.WORKLOADS[args.workload]
    setup_times, baseline_times = ([], []) if args.trace else measure_setup(workload, args.seed)
    warm_up(spinlab_main, workload, args.seed)
    tally = Tally()
    problems: list[str] = []
    if args.trace:
        metrics, details, problems = traced_run(
            spinlab_main, workload, args.seed, args.seconds, tally)
    else:
        metrics, details = end_to_end(spinlab_main, workload, args.seed, args.seconds, tally)
        metrics["setup_s"] = (statistics.median(
            t / b * BASELINE_START_REF_S for t, b in zip(setup_times, baseline_times)), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    error_rate = tally.failed / tally.attempted
    details.update(setup_s_samples=setup_times, baseline_start_samples=baseline_times,
                   error_rate=error_rate, errors=tally.errors)
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_description(args.seed),
        "details": details,
    }))
    print(f"{args.workload} (trace {args.trace}, seed {args.seed}): "
          f"{tally.attempted} items, error_rate {error_rate:g}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}", file=sys.stderr)
    for name in ("item_us.p50", "item_us.tail"):
        if name in details:
            print(f"  {name + ' (no bound)':<52} {details[name]:>16.6g} us", file=sys.stderr)
    for problem in problems + tally.errors:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
