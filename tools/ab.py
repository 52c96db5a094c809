"""Paired before/after timing of whole benchmark cycles: a revision against this tree.

    python tools/ab.py <rev> [--workload w] [--rounds k]

``<rev>`` (tree A) is checked out with ``git worktree`` into a temporary directory,
which is removed on exit; this checkout's working tree is tree B.  Each tree gets
one long-lived child process that imports ``spinlab`` from that tree's ``src/`` and
the workloads of this checkout's ``perfbench/workloads.py``, and runs and gates each
command line with the ``run_invocation`` and ``gate`` of its ``perfbench/run.py``
(read-only, so both trees run the same command lines through the same output gates,
and a failed item is what the benchmark counts as one).  A child first runs
its workload's warm-up lines and one untimed cycle, whose time sets the round length.

A round times the same number of whole cycles in each child, on benchmark seed ``SEED``
and the same cycle indices, so a round is one pair of like samples.  That number is
``round_cycles`` of the two warm-up cycles: at least ``CYCLES``, and enough for
``ROUND_SECONDS`` of the slower tree, so a round outlasts the host's short load swings.  The children alternate in
ABBA order: A first in even rounds and B first in odd ones.  Per workload the tool
prints the median and interquartile range of each tree's milliseconds per cycle and
items per second, the ratio B/A of the median cycle times, how many rounds B was
faster in, whether the median gap exceeds A's interquartile range, and a verdict
(``verdict``): "faster" when B was faster in at least 9 of 10 rounds and its median
is faster by more than A's interquartile range, "slower" when its median is slower
by more than that range, and "unresolved" otherwise or when fewer than ten rounds
ran (CI's two-round A/A run reads "unresolved").  The gap flag alone misreads:
an A/A run can read a gap beyond A's range with B faster in 4 of 10 rounds.  A second
line gives each child's peak resident set size (``ru_maxrss``) after the workload,
with no verdict.  One child serves every workload of a run, so that figure is the
peak of this workload and every one before it; ``--workload`` gives one workload's.  A gate
failure or a non-zero exit fails the run (exit 1); a bad revision exits 2.  Children
run with ``OPENBLAS_NUM_THREADS=1`` unless it is set, and write no bytecode.

A/A check, the checked-out commit against itself on every workload::

    python tools/ab.py HEAD --rounds 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("sweep3d", "oracle3d", "heisenberg_large")
# the fewest cycles per sample, long against the request round trip to a child, and the
# least seconds of the slower tree per sample: 20 sweep3d cycles are about 0.09 s of work
# on a 2-CPU Xeon guest, shorter than that host's load swings
CYCLES, ROUND_SECONDS, SEED = 20, 0.5, 1
# below ten rounds a verdict is chance: 2 wins in 2 rounds meet "9 of 10", and an A/A
# run of two rounds has read B faster with a median gap beyond A's IQR
MIN_ROUNDS = 10


# ------------------------------------------------------------------ statistics
def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, by ``statistics.quantiles``' inclusive method; one
    sample is its own three quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(a: list[float], b: list[float]) -> dict:
    """Paired cycle times (lower is better) of trees A and B, one pair a round."""
    if len(a) != len(b) or not a:
        raise ValueError("compare needs one A and one B sample per round")
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    return {
        "rounds": len(a),
        "median_a": ma,
        "iqr_a": qa3 - qa1,
        "median_b": mb,
        "iqr_b": qb3 - qb1,
        "ratio": mb / ma,
        "b_faster": sum(y < x for x, y in zip(a, b)),
        "resolved": abs(mb - ma) > qa3 - qa1,
    }


def verdict(c: dict) -> str:
    """The verdict on a ``compare`` result: ``faster`` needs B faster in at least 9 of
    10 rounds and a median gap beyond A's IQR, ``slower`` only a gap beyond A's IQR
    the other way, and anything else, or fewer than ``MIN_ROUNDS`` rounds, is
    ``unresolved``."""
    if c["rounds"] < MIN_ROUNDS:
        return "unresolved"
    gap = c["median_a"] - c["median_b"]
    if gap > c["iqr_a"] and 10 * c["b_faster"] >= 9 * c["rounds"]:
        return "faster"
    return "slower" if -gap > c["iqr_a"] else "unresolved"


def round_cycles(warm_seconds: list[float]) -> int:
    """Cycles per round for both trees, from each tree's untimed warm-up cycle:
    ``max(CYCLES, ceil(ROUND_SECONDS / slower warm-up cycle))``."""
    return max(CYCLES, math.ceil(ROUND_SECONDS / max(warm_seconds)))


# ---------------------------------------------------------------------- child
def run_cycles(main, workload, seed: int, first: int, cycles: int) -> dict:
    """Run cycles ``first .. first + cycles - 1`` of ``workload`` through ``main``,
    each command line run and gated by ``perfbench/run.py``'s ``run_invocation`` and
    ``gate``; stdout and stderr of the command lines are discarded."""
    from run import gate, run_invocation  # perfbench/, put on the path by the caller

    items = failed = 0
    errors: list[str] = []
    seconds = 0.0
    for k in range(first, first + cycles):
        for inv in workload.cycle(seed, k):
            wall, code, stdout, error = run_invocation(main, inv.argv)
            seconds += wall
            problem = gate(inv, code, stdout, error)
            items += inv.items
            if problem:
                failed += inv.items
                errors = (errors + [problem])[:5]
    return {"seconds": seconds, "cycles": cycles, "items": items, "failed": failed,
            "errors": errors,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def child(tree: str) -> None:
    """Serve requests, one JSON line each on stdin, with one JSON line each on stdout."""
    sys.path[:0] = [str(Path(tree) / "src"), str(BENCH)]
    import workloads as wl

    from spinlab import cli

    reply = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies on the pipe
    print(json.dumps({"spinlab": str(Path(sys.modules["spinlab"].__file__).resolve())}),
          file=reply, flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        workload = wl.WORKLOADS[req["workload"]]
        if req.get("warm"):
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                for argv in workload.warmup(req["seed"]):
                    cli.main(list(argv))
        result = run_cycles(cli.main, workload, req["seed"], req["first"], req["cycles"])
        print(json.dumps(result), file=reply, flush=True)


# --------------------------------------------------------------------- parent
class Child:
    def __init__(self, tree: Path):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        hello = self._read()
        expected = (tree / "src" / "spinlab").resolve()
        if Path(hello["spinlab"]).parent != expected:
            self.close()
            raise SystemExit(f"error: child for {tree} imported {hello['spinlab']}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: benchmark child exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          capture_output=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str):
    """A detached checkout of ``rev`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="spinlab-ab-") as tmp:
        path = Path(tmp) / "tree"
        git("worktree", "add", "--detach", "--quiet", str(path), rev)
        try:
            yield path
        finally:
            git("worktree", "remove", "--force", str(path))


def measure(children: dict[str, Child], workload: str, rounds: int) -> tuple[
        dict[str, list[float]], dict[str, list[float]], dict[str, float], list[str], int]:
    """Per tree, ms per cycle and items per second of every round and the child's peak
    RSS in MB after the last; then the failures and the cycles per round."""
    ms = {"A": [], "B": []}
    rate = {"A": [], "B": []}
    rss = {}
    problems: list[str] = []
    warm: list[float] = []
    for tree, proc in children.items():  # warm-up and one untimed cycle
        out = proc.run(workload=workload, seed=SEED, first=0, cycles=1, warm=True)
        warm.append(out["seconds"])
        problems += [f"{tree} warm-up: {e}" for e in out["errors"]]
    cycles = round_cycles(warm)
    for r in range(rounds):
        for tree in ("AB" if r % 2 == 0 else "BA"):
            out = children[tree].run(workload=workload, seed=SEED, first=1 + r * cycles,
                                     cycles=cycles)
            ms[tree].append(out["seconds"] / out["cycles"] * 1e3)
            rate[tree].append(out["items"] / out["seconds"])
            rss[tree] = out["peak_rss_mb"]
            problems += [f"{tree} round {r}: {e}" for e in out["errors"]]
    return ms, rate, rss, problems, cycles


def report(workload: str, ms: dict[str, list[float]], rate: dict[str, list[float]],
           rss: dict[str, float], cycles: int) -> str:
    """The timing line with its verdict, then each child's peak RSS so far."""
    c = compare(ms["A"], ms["B"])
    ia, ib = quartiles(rate["A"]), quartiles(rate["B"])
    return (
        f"{workload} ({cycles} cycles a round): ms/cycle A {c['median_a']:.3f} (IQR {c['iqr_a']:.3f}), "
        f"B {c['median_b']:.3f} (IQR {c['iqr_b']:.3f}), B/A {c['ratio']:.4f}; "
        f"items/s A {ia[1]:.1f} (IQR {ia[2] - ia[0]:.1f}), B {ib[1]:.1f} "
        f"(IQR {ib[2] - ib[0]:.1f}); B faster in {c['b_faster']}/{c['rounds']} rounds; "
        f"median gap {'exceeds' if c['resolved'] else 'within'} A's IQR; "
        f"verdict: {verdict(c)}\n"
        f"  peak RSS of each child so far (no verdict): A {rss['A']:.1f} MB, B {rss['B']:.1f} MB"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="revision of tree A; tree B is this working tree")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        commit = git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: {args.rev!r} is not a commit", file=sys.stderr)
        return 2
    print(f"A = {args.rev} ({commit[:12]}), B = working tree {ROOT}; {args.rounds} rounds of "
          f"at least {CYCLES} cycles and {ROUND_SECONDS} s, seed {SEED}, ABBA order", flush=True)
    failed = False
    with worktree(commit) as tree_a:
        children: dict[str, Child] = {}
        try:
            children["A"] = Child(tree_a)
            children["B"] = Child(ROOT)
            for workload in [args.workload] if args.workload else WORKLOADS:
                ms, rate, rss, problems, cycles = measure(children, workload, args.rounds)
                print(report(workload, ms, rate, rss, cycles), flush=True)
                for problem in problems:
                    print(f"  FAILED {problem}", flush=True)
                failed |= bool(problems)
        finally:
            for proc in children.values():
                proc.close()
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main())
