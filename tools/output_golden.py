"""The output gate: fixed ``spinlab`` command lines against a golden, or as a digest.

Every command line runs in this process through ``spinlab.cli.main`` with
``SPINLAB_SEED`` unset, by one runner (``run``) that captures stdout, stderr
without its ``runtime_seconds`` timing line, and the exit code, or
``raised <Type>: <message>`` in place of the code when the call raises:

    python tools/output_golden.py            # compare this tree with the golden
    python tools/output_golden.py --write    # regenerate the golden from this tree
    python tools/output_golden.py --digest   # one sha256 per command line, and a total

**Golden.** The north star's output rule: exit codes, strings, booleans,
integers and ``null`` stay exactly as they were, and printed floats stay within
1e-12 relative.  ``tests/data/output_golden.json`` records, for each line of
``golden_lines`` in both formats, the exit code, the parsed stdout and the
parsed stderr.  JSON stdout is parsed with ``json.loads``; table stdout and
stderr are parsed into one token list per line, each number a token of its
own, so the same rule covers both formats.  The comparison prints one line per
mismatch and exits 1 if there is any.  A change that moves output regenerates
the golden and lists what moved.

Rounding-level fields, ``verify-appendix``'s ``max_*`` deviations and
``selftest``'s ``deviation``, are the disagreement of two floating-point routes
to one quantity.  Their values are a few ulp of the O(1) to O(10) quantities
compared (at most 7.1e-15 in the golden, an eigenvalue deviation over 4097
samples), and any reordered sum moves them by their own size, so a relative
rule says nothing about them.  They compare within an absolute
``ROUNDING_FLOOR`` of 1e-13: 10x below 1e-12, the tightest tolerance any of
them is judged against, so a change that brings a deviation within reach of a
verdict still fails, and 14x above the largest of them.

**Digest.** Per line of ``digest_lines`` it prints ``sha256  argv``, the hash
of stdout, stderr and the exit code, and a last line hashes all of them.  Two
trees, or two processes of one tree, print the same digest exactly when every
command prints the same bytes and exits the same way, so ``diff`` of two runs
is a byte-identity check:

    python tools/output_golden.py --digest > a.txt
    PYTHONHASHSEED=1 python tools/output_golden.py --digest > b.txt
    diff a.txt b.txt

Takes ``--write`` or ``--digest``; run from anywhere.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "output_golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/, on the path above)
from spinlab import cli  # noqa: E402
from spinlab.gks import family_grid  # noqa: E402

RELATIVE_TOL, ROUNDING_FLOOR = 1e-12, 1e-13
FORMATS = ("json", "table")
# a number standing alone: not the 3 of "L3" nor the 6 of "nupto6"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")

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
# a sweep in chunks of 4096, 4096 and 808 frames, and a family equal to a grid member
# that keeps its own -0.0 structure constants
SWEEP_SPLIT = (
    ("sweep", "--algebra", "L3(6)", "--samples", "9000", "--seed", "3"),
    ("sweep", "--algebra", "L3(4,-0)", "--samples", "200", "--seed", "2"),
)
# non-default --tol or --gap-tol that moves the symmetry verdicts or the distinct counts
TOL_LINES = (
    ("sweep", "--algebra", "L3(3)", "--samples", "50", "--seed", "2", "--tol", "0.5"),
    ("sweep", "--algebra", "L3(2,-0.5)", "--samples", "200", "--seed", "9",
     "--gap-tol", "0.05", "--tol", "0.3"),
    ("table1", "--samples", "100", "--seed", "4", "--gap-tol", "0.01"),
    ("verify-appendix", "--samples", "50", "--seed", "5", "--tol", "0.5"),
)
# exit 2 or 3; the last one's all-NaN Nomizu stack is refused by the spin lift
FAILING = (
    ("analyze", "--algebra", '{"dim": 3, "brackets": ['),
    ("analyze", "--algebra", '{"dim": 3.9, "brackets": []}'),
    ("analyze", "--algebra", "L3(6)", "--metric", '{"gram": [[1, 0, 0], [0, 1], [0, 0, 1]]}'),
    ("analyze", "--algebra", "L3(2,7)"),
    ("analyze", "--algebra", "L3(6)", "--metric",
     '{"gram": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]}'),
    ("analyze", "--algebra", "L3(6)", "--metric", '{"frame_P": {"alpha": -1}}'),
    ("analyze", "--algebra", "H(5)", "--metric", '{"frame_P": {"alpha": 1}}'),
    ("heisenberg", "--n", "40"),
    ("heisenberg", "--n", "0"),
    ("heisenberg", "--n", "2", "--a", "1,2,3"),
    ("heisenberg", "--n", "1", "--a", "0x10"),
    ("heisenberg", "--n", "2", "--a", "1,nan"),
    ("heisenberg", "--n", "1", "--c", "-1"),
    ("heisenberg", "--n", "1", "--c", "inf"),
    ("heisenberg", "--n", "2", "--a", "1,2", "--b", "1e-200,1e-200", "--c", "1e200"),
    ("selftest", "--seed", "-1"),
    ("selftest", "--seed", "1", "--tol", "1e-300"),
    ("table1", "--samples", "7", "--tol", "0.5"),
    ("sweep", "--algebra", "L3(4,8.9e307)", "--samples", "5", "--seed", "1"),
    ("analyze", "--algebra", "L3(4,1e308)"),
)


def dense_gram(d: int) -> str:
    """A dense SPD gram: 1.3 on the diagonal and 0.4 ** |i - j| off it."""
    return json.dumps({"gram": [[1.3 if i == j else 0.4 ** abs(i - j) for j in range(d)]
                                for i in range(d)]})


def with_formats(argvs) -> list[tuple[str, ...]]:
    return [argv + ("--format", fmt) for argv in argvs for fmt in FORMATS]


def heisenberg_abc() -> list[tuple[str, ...]]:
    """The ``heisenberg`` lines of ``HEISENBERG_ABC``, with ``--a/--b/--c`` spelled out."""
    argvs = []
    for n, c in HEISENBERG_ABC:
        a = ",".join(format(1 + 0.37 * p, ".2f") for p in range(1, n + 1))
        b = ",".join(format(2.3 - 0.11 * p, ".2f") for p in range(1, n + 1))
        argvs += [("heisenberg", "--n", str(n), "--a", a, "--b", b, "--c", str(c))]
    return argvs


def analyze_grid() -> list[tuple[str, ...]]:
    return [("analyze", "--algebra", fam.label, "--metric", metric)
            for fam in family_grid() for metric in ("identity", FRAME_P)]


def analyze_dense() -> list[tuple[str, ...]]:
    """A dense gram on H(7) and on ``SEMIDIRECT_5``, where a reordered sum in the
    orthonormal-frame constants shows in the last digit."""
    return [("analyze", "--algebra", alg, "--metric", dense_gram(d))
            for alg, d in (("H(7)", 7), (SEMIDIRECT_5, 5))]


def golden_lines() -> list[tuple[str, ...]]:
    """Each command line of the golden, without ``--format``: every command, the 13 grid
    families, H(5)..H(33), and both sides of the ``sweep`` overflow boundary."""
    argvs = analyze_grid()
    argvs += [("analyze", "--algebra", f"H({d})") for d in (5, 9, 17, 33)]
    argvs += analyze_dense()
    argvs += [("heisenberg", "--n", str(n)) for n in range(2, 17)]
    argvs += heisenberg_abc()
    argvs += [("sweep", "--algebra", fam.label, "--samples", "300", "--seed", str(k))
              for k, fam in enumerate(family_grid())]
    argvs += SWEEP_SPLIT
    argvs += [
        ("sweep", "--algebra", "L3(4,3e307)", "--samples", "5", "--seed", "1"),
        ("table1", "--samples", "1000"),
        ("table1", "--samples", "200", "--seed", "6"),
        ("verify-appendix", "--samples", "100"),
        ("verify-appendix", "--samples", "4097"),
        ("verify-appendix", "--samples", "20", "--tol", "1e-300"),
    ]
    argvs += [("selftest", "--seed", str(seed)) for seed in (1, 2, 3)]
    return argvs + list(TOL_LINES + FAILING)


def digest_lines() -> list[tuple[str, ...]]:
    """Each command line of the digest: the first 5 cycles of every benchmark workload on
    seeds 1..3, then lines that reach what those cycles do not."""
    argvs = []
    for wl in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            for k in range(5):
                argvs += [inv.argv for inv in wl.cycle(seed, k)]
    argvs += with_formats(("selftest", "--seed", str(seed)) for seed in range(1, 6))
    # one grid pass; four families a pass, so pass boundaries split the L3(2,x) and L3(4,x)
    # runs; one family a pass, in chunks of 4096 and 1 frames
    argvs += [("verify-appendix", "--samples", str(n)) for n in (100, 1024, 4097)]
    argvs += [("table1", "--samples", "1000"), *SWEEP_SPLIT]
    abc = heisenberg_abc()
    argvs += abc + [abc[1] + ("--format", "table")]  # n = 9
    argvs += with_formats(analyze_grid())
    # the identity metric, where every structure-constant product is exact
    argvs += [("analyze", "--algebra", f"H({d})") for d in (5, 25, 33)]
    argvs += analyze_dense()
    argvs += [  # one table line each of sweep, table1 and a verify-appendix that exits 2
        ("sweep", "--algebra", "L3(5)", "--samples", "300", "--seed", "4", "--format", "table"),
        ("table1", "--samples", "200", "--seed", "6", "--format", "table"),
        ("verify-appendix", "--samples", "20", "--tol", "1e-300", "--format", "table"),
    ]
    return argvs + list(TOL_LINES + FAILING)


def run(argv: tuple[str, ...]) -> tuple[str, str, int | str]:
    """Stdout, stderr without its ``runtime_seconds:`` line, and the exit code of one
    in-process ``cli.main`` call; a raised exception is output too, and its type and
    message take the place of the code."""
    os.environ.pop("SPINLAB_SEED", None)  # commands without --seed use the built-in fallback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("runtime_seconds:"))
    return out.getvalue(), stderr, code


def digest(argv: tuple[str, ...]) -> str:
    """The sha256 of what ``run`` captures."""
    stdout, stderr, code = run(argv)
    return hashlib.sha256("\0".join((stdout, stderr, str(code))).encode()).hexdigest()


def _number(text: str):
    return float(text) if any(ch in text for ch in ".eE") else int(text)


def parse_text(text: str) -> list[list]:
    """One token list per line: words split on whitespace, each number a token."""
    lines = []
    for line in text.splitlines():
        tokens, pos = [], 0
        for m in NUMBER.finditer(line):
            tokens += line[pos : m.start()].split() + [_number(m.group())]
            pos = m.end()
        lines.append(tokens + line[pos:].split())
    return lines


def record(argv: tuple[str, ...]) -> dict:
    """The golden's entry for ``argv``, which ends in ``--format json`` or ``--format table``."""
    stdout, stderr, code = run(argv)
    return {"argv": list(argv), "code": code,
            "stdout": json.loads(stdout) if stdout and argv[-1] == "json" else parse_text(stdout),
            "stderr": parse_text(stderr)}


def runs() -> list[dict]:
    return [record(argv) for argv in with_formats(golden_lines())]


def _rounding_level(command: str, path: tuple, line) -> bool:
    """Whether the leaf at ``path`` is a rounding-level field: in JSON by its key, in a
    table line by its column (``line`` is the token list holding it, else ``None``)."""
    key = path[-1]
    if line is None:
        return (command == "verify-appendix" and str(key).startswith("max_")) or (
            command == "selftest" and key == "deviation")
    if command == "selftest":  # "PASS  <name> deviation <value>  (tol <tol>)"
        return key > 0 and line[key - 1] == "deviation"
    # "<family> <max|dA|> <max|dAsym|> <sym> <ok>": the two deviations before the last two
    return command == "verify-appendix" and line[-1] in ("yes", "NO") and key - len(line) in (-4, -3)


def compare(want, got, command: str, path: tuple, text: bool = False, line=None) -> list[str]:
    """Mismatches of ``got`` against ``want`` under the output rule, one string each.

    ``path`` starts with the field (``code``, ``stdout`` or ``stderr``); ``text`` marks a
    parsed table or stderr, whose lines are the token lists at depth 2."""
    where = "/".join(map(str, path))
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(want)} != {list(got)}"]
        return [msg for k in want for msg in compare(want[k], got[k], command, path + (k,), text)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        tokens = want if text and len(path) == 2 else None
        return [msg for k, (w, g) in enumerate(zip(want, got))
                for msg in compare(w, g, command, path + (k,), text, tokens)]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want, got))
    if numbers and (isinstance(want, float) or isinstance(got, float)):  # %.17g prints 1.0 as 1
        bound = RELATIVE_TOL * max(abs(want), abs(got))
        if _rounding_level(command, path, line):
            bound = max(bound, ROUNDING_FLOOR)
        if math.isfinite(want) and math.isfinite(got) and abs(want - got) <= bound:
            return []
        return [f"{where}: {want!r} != {got!r}"]
    if type(want) is not type(got) or want != got:
        return [f"{where}: {want!r} != {got!r}"]
    return []


def check(golden: list[dict], current: list[dict]) -> list[str]:
    """Every mismatch between two lists of runs, prefixed by its command line."""
    if [g["argv"] for g in golden] != [c["argv"] for c in current]:
        return ["the command lines differ from the golden's: regenerate it with --write"]
    return [f"{' '.join(g['argv'])}: {msg}" for g, c in zip(golden, current)
            for field in ("code", "stdout", "stderr")
            for msg in compare(g[field], c[field], g["argv"][0], (field,),
                               field == "stderr" or isinstance(g["stdout"], list))]


def main(argv: list[str]) -> int:
    if argv == ["--digest"]:
        total = hashlib.sha256()
        for argv in digest_lines():
            line = f"{digest(argv)}  {shlex.join(argv)}"
            total.update(line.encode() + b"\n")
            print(line)
        print(f"{total.hexdigest()}  total")
        return 0
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        text = "[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in runs()) + "\n]\n"
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(text)} bytes")
        return 0
    if argv:
        print("usage: output_golden.py [--write | --digest]", file=sys.stderr)
        return 2
    problems = check(json.loads(GOLDEN.read_text(encoding="utf-8")), runs())
    for msg in problems:
        print(msg)
    print(f"{len(problems)} mismatches against {GOLDEN.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
