"""The north star's output rule as a portable check against a checked-in golden.

The rule: exit codes, strings, booleans, integers and ``null`` stay exactly as
they were, and printed floats stay within 1e-12 relative.  ``tests/data/
output_golden.json`` records, for each command line below, the exit code, the
parsed stdout and the parsed stderr (without the ``runtime_seconds`` line).
JSON stdout is parsed with ``json.loads``; table stdout and stderr are parsed
into one token list per line, each number a token of its own, so the same rule
covers both formats:

    python tools/output_golden.py           # compare this tree with the golden
    python tools/output_golden.py --write   # regenerate the golden from this tree

The comparison prints one line per mismatch and exits 1 if there is any.  A
change that moves output regenerates the golden and lists what moved.

Rounding-level fields, ``verify-appendix``'s ``max_*`` deviations and
``selftest``'s ``deviation``, are the disagreement of two floating-point routes
to one quantity.  Their values are a few ulp of the O(1) to O(10) quantities
compared (at most 7.1e-15 in the golden, an eigenvalue deviation over 4097
samples), and any reordered sum moves them by their own size, so a relative
rule says nothing about them.  They compare within an absolute
``ROUNDING_FLOOR`` of 1e-13: 10x below 1e-12, the tightest tolerance any of
them is judged against, so a change that brings a deviation within reach of a
verdict still fails, and 14x above the largest of them.

The command set: every command in both formats; ``analyze`` on the 13
``FAMILY_GRID`` families (identity and one ``frame_P`` metric), on H(5), H(9),
H(17) and H(33), and with a dense ``gram`` on H(7) and on ``SEMIDIRECT_5``;
``heisenberg`` at n = 2..16 (H(5)..H(33)) and with the non-default ``--a/--b/--c``
lines of ``tools/output_digest.py``; ``sweep`` on each of the 13 families and the
two sides of its overflow boundary; ``table1``, ``verify-appendix`` and
``selftest`` runs, the ``--tol``/``--gap-tol`` lines of the digest, and its failing
lines.  Takes ``--write`` only; run from anywhere.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "output_golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

import output_digest as digest  # noqa: E402  (tools/, on the path above)
from spinlab import cli  # noqa: E402
from spinlab.gks import family_grid  # noqa: E402

RELATIVE_TOL, ROUNDING_FLOOR = 1e-12, 1e-13
FORMATS = ("json", "table")
# a number standing alone: not the 3 of "L3" nor the 6 of "nupto6"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def command_lines() -> list[tuple[str, ...]]:
    """Each command line of the golden, without ``--format``."""
    argvs = []
    for fam in family_grid():
        argvs += [("analyze", "--algebra", fam.label, "--metric", metric)
                  for metric in ("identity", digest.FRAME_P)]
    argvs += [("analyze", "--algebra", f"H({d})") for d in (5, 9, 17, 33)]
    argvs += [("analyze", "--algebra", alg, "--metric", digest.dense_gram(d))
              for alg, d in (("H(7)", 7), (digest.SEMIDIRECT_5, 5))]
    argvs += [("heisenberg", "--n", str(n)) for n in range(2, 17)]
    for n, c in digest.HEISENBERG_ABC:
        a = ",".join(format(1 + 0.37 * p, ".2f") for p in range(1, n + 1))
        b = ",".join(format(2.3 - 0.11 * p, ".2f") for p in range(1, n + 1))
        argvs += [("heisenberg", "--n", str(n), "--a", a, "--b", b, "--c", str(c))]
    argvs += [("sweep", "--algebra", fam.label, "--samples", "300", "--seed", str(k))
              for k, fam in enumerate(family_grid())]
    argvs += [
        ("sweep", "--algebra", "L3(6)", "--samples", "9000", "--seed", "3"),
        ("sweep", "--algebra", "L3(4,-0)", "--samples", "200", "--seed", "2"),
        ("sweep", "--algebra", "L3(4,3e307)", "--samples", "5", "--seed", "1"),
        ("table1", "--samples", "1000"),
        ("table1", "--samples", "200", "--seed", "6"),
        ("verify-appendix", "--samples", "100"),
        ("verify-appendix", "--samples", "4097"),
        ("verify-appendix", "--samples", "20", "--tol", "1e-300"),
    ]
    argvs += [("selftest", "--seed", str(seed)) for seed in (1, 2, 3)]
    argvs += [
        ("sweep", "--algebra", "L3(3)", "--samples", "50", "--seed", "2", "--tol", "0.5"),
        ("sweep", "--algebra", "L3(2,-0.5)", "--samples", "200", "--seed", "9",
         "--gap-tol", "0.05", "--tol", "0.3"),
        ("table1", "--samples", "100", "--seed", "4", "--gap-tol", "0.01"),
        ("verify-appendix", "--samples", "50", "--seed", "5", "--tol", "0.5"),
    ]
    return argvs + list(digest.FAILING)


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


def run(argv: tuple[str, ...]) -> dict:
    """Exit code, parsed stdout and parsed stderr of one in-process ``cli.main`` call whose
    ``argv`` ends in ``--format json`` or ``--format table``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("runtime_seconds:"))
    return {"argv": list(argv), "code": code,
            "stdout": json.loads(stdout) if stdout and argv[-1] == "json" else parse_text(stdout),
            "stderr": parse_text(stderr)}


def runs() -> list[dict]:
    os.environ.pop("SPINLAB_SEED", None)  # commands without --seed use the built-in fallback
    return [run(argv + ("--format", fmt)) for argv in command_lines() for fmt in FORMATS]


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
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        text = "[\n" + ",\n".join(json.dumps(r, separators=(",", ":")) for r in runs()) + "\n]\n"
        GOLDEN.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(text)} bytes")
        return 0
    if argv:
        print("usage: output_golden.py [--write]", file=sys.stderr)
        return 2
    problems = check(json.loads(GOLDEN.read_text(encoding="utf-8")), runs())
    for msg in problems:
        print(msg)
    print(f"{len(problems)} mismatches against {GOLDEN.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
