"""One digest of what a fixed set of ``spinlab`` command lines print.

Each command runs in this process through ``spinlab.cli.main``.  Per command
the script prints ``sha256  argv``: the hash covers stdout, stderr without
its ``runtime_seconds`` timing line, and the exit code.  A last line hashes
all of them.  Two trees, or two processes of one tree, print the same
output exactly when every command prints the same bytes and exits the same
way, so ``diff`` of two runs is a byte-identity check:

    python tools/output_digest.py > a.txt
    PYTHONHASHSEED=1 python tools/output_digest.py > b.txt
    diff a.txt b.txt

The command set: the first 5 cycles of every benchmark workload
(``perfbench/workloads.py``, imported and not changed) on seeds 1..3;
``selftest`` on seeds 1..5 in both formats; ``verify-appendix --samples
100`` (one grid pass), ``--samples 1024`` (four families a pass, so pass
boundaries split the ``L3(2,x)`` and ``L3(4,x)`` runs) and ``--samples 4097``
(one family a pass, in chunks of 4096 and 1 frames); ``table1 --samples
1000``; ``sweep --algebra L3(6) --samples 9000 --seed 3`` (chunks of 4096,
4096 and 808 frames) and ``sweep --algebra L3(4,-0)`` (a family equal to a grid
member that keeps its own -0.0 structure constants); ``heisenberg`` at n = 8, 9
and 16 with non-default ``--a/--b/--c``, where the order of the sum that gives
``mu`` shows in the last digit; ``analyze`` on the 13 Table 1 grid
families (identity and one ``frame_P`` metric, both formats), on H(5),
H(25) and H(33) with the identity metric (where every structure-constant product
is exact), and with a dense SPD ``gram`` on ``H(7)`` and on ``SEMIDIRECT_5``, a
5-dimensional JSON algebra with dense, rounded structure constants, where a
reordered sum in the orthonormal-frame constants shows in the last digit; one
``--format table`` line each of ``heisenberg`` (n = 9, non-default
``--a/--b/--c``), ``sweep``, ``table1`` and a ``verify-appendix --tol 1e-300``
that exits 2; four command lines whose non-default ``--tol`` or
``--gap-tol`` moves the symmetry verdicts or the distinct counts (``sweep`` of
``L3(3)`` at ``--tol 0.5`` and of ``L3(2,-0.5)`` at ``--gap-tol 0.05 --tol 0.3``,
``table1 --gap-tol 0.01`` and a ``verify-appendix --tol 0.5`` that exits 2); and a
few command lines that exit 2 or 3, among them ``analyze --algebra "L3(4,1e308)"``,
whose all-NaN Nomizu stack the spin lift refuses.  Takes no options; run from anywhere.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/, on the path above)
from spinlab import cli  # noqa: E402
from spinlab.gks import family_grid  # noqa: E402

CYCLES, BENCH_SEEDS, SELFTEST_SEEDS = 5, (1, 2, 3), range(1, 6)
# (n, c) of the heisenberg lines with a_p = 1 + 0.37 p and b_p = 2.3 - 0.11 p: at each,
# numpy's pairwise sum of the lambdas rounds differently from the printed mu's left-to-right sum
HEISENBERG_ABC = ((8, 2.5), (9, 2.5), (16, 0.7))
FRAME_P = ('{"frame_P": {"alpha": 1.3, "beta": -0.4, "gamma": 0.7, '
           '"epsilon": 0.8, "zeta": 0.2, "iota": 1.9}}')
# R acting on the abelian ideal span(e2..e5) by a dense derivation D: [e1, e_k] = sum_j
# D[j][k] e_j, so Jacobi holds for any D, and every structure constant has a rounded value
SEMIDIRECT_D = ((0.7, -1.3, 0.4, 0.2), (0.3, 0.9, -0.6, 1.1),
                (-0.5, 0.8, 1.7, -0.2), (1.2, -0.4, 0.3, -0.9))
SEMIDIRECT_5 = json.dumps({"dim": 5, "brackets": [
    {"i": 1, "j": k, "coeffs": [0.0] + [row[k - 2] for row in SEMIDIRECT_D]}
    for k in range(2, 6)]})


def dense_gram(d: int) -> str:
    """A dense SPD gram: 1.3 on the diagonal and 0.4 ** |i - j| off it."""
    return json.dumps({"gram": [[1.3 if i == j else 0.4 ** abs(i - j) for j in range(d)]
                                for i in range(d)]})


FAILING = (
    ("analyze", "--algebra", '{"dim": 3, "brackets": ['),
    ("analyze", "--algebra", '{"dim": 3.9, "brackets": []}'),
    ("analyze", "--algebra", "L3(6)", "--metric", '{"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
    ("analyze", "--algebra", "L3(2,7)"),
    ("analyze", "--algebra", "L3(6)", "--metric",
     '{"gram": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}'),
    ("heisenberg", "--n", "40"),
    ("selftest", "--seed", "-1"),
    ("selftest", "--seed", "1", "--tol", "1e-300"),
    ("table1", "--samples", "7", "--tol", "0.5"),
    ("sweep", "--algebra", "L3(4,8.9e307)", "--samples", "5", "--seed", "1"),
    ("analyze", "--algebra", "L3(4,1e308)"),
)


def command_lines() -> list[tuple[str, ...]]:
    argvs = []
    for wl in workloads.WORKLOADS.values():
        for seed in BENCH_SEEDS:
            for k in range(CYCLES):
                argvs += [inv.argv for inv in wl.cycle(seed, k)]
    for seed in SELFTEST_SEEDS:
        argvs += [("selftest", "--seed", str(seed), "--format", fmt) for fmt in ("json", "table")]
    argvs += [("verify-appendix", "--samples", str(n)) for n in (100, 1024, 4097)]
    argvs += [("table1", "--samples", "1000")]
    argvs += [("sweep", "--algebra", "L3(6)", "--samples", "9000", "--seed", "3")]
    argvs += [("sweep", "--algebra", "L3(4,-0)", "--samples", "200", "--seed", "2")]
    for n, c in HEISENBERG_ABC:
        a = ",".join(format(1 + 0.37 * p, ".2f") for p in range(1, n + 1))
        b = ",".join(format(2.3 - 0.11 * p, ".2f") for p in range(1, n + 1))
        argvs += [("heisenberg", "--n", str(n), "--a", a, "--b", b, "--c", str(c))]
    argvs += [argvs[-2] + ("--format", "table")]  # n = 9
    for fam in family_grid():
        for metric in ("identity", FRAME_P):
            argvs += [("analyze", "--algebra", fam.label, "--metric", metric, "--format", fmt)
                      for fmt in ("json", "table")]
    argvs += [("analyze", "--algebra", f"H({d})") for d in (5, 25, 33)]
    argvs += [("analyze", "--algebra", alg, "--metric", dense_gram(d))
              for alg, d in (("H(7)", 7), (SEMIDIRECT_5, 5))]
    argvs += [
        ("sweep", "--algebra", "L3(5)", "--samples", "300", "--seed", "4", "--format", "table"),
        ("table1", "--samples", "200", "--seed", "6", "--format", "table"),
        ("verify-appendix", "--samples", "20", "--tol", "1e-300", "--format", "table"),
    ]
    argvs += [
        ("sweep", "--algebra", "L3(3)", "--samples", "50", "--seed", "2", "--tol", "0.5"),
        ("sweep", "--algebra", "L3(2,-0.5)", "--samples", "200", "--seed", "9",
         "--gap-tol", "0.05", "--tol", "0.3"),
        ("table1", "--samples", "100", "--seed", "4", "--gap-tol", "0.01"),
        ("verify-appendix", "--samples", "50", "--seed", "5", "--tol", "0.5"),
    ]
    return argvs + list(FAILING)


def digest(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is output too: hash its type and message
            code = f"raised {type(exc).__name__}: {exc}"
    stderr = "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not line.startswith("runtime_seconds:")
    )
    blob = "\0".join((out.getvalue(), stderr, str(code)))
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    os.environ.pop("SPINLAB_SEED", None)  # commands without --seed use the built-in fallback
    total = hashlib.sha256()
    for argv in command_lines():
        line = f"{digest(argv)}  {shlex.join(argv)}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
