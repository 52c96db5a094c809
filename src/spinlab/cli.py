"""Command-line front end.

Examples:
  spinlab analyze --algebra "L3(1)" --metric identity
  spinlab analyze --algebra "L3(2,-1)" --metric '{"frame_P":{"alpha":1,"beta":0,"gamma":0,"epsilon":1,"zeta":0,"iota":1}}'
  spinlab heisenberg --n 3
  spinlab verify-appendix --samples 100 --seed 1
  spinlab table1 --samples 1000 --seed 1
  spinlab sweep --algebra "L3(6)" --samples 1000 --seed 7
  spinlab selftest

Exit codes: 0 success, 2 domain validation failure, 3 I/O or parse failure.
Output on stdout is byte-deterministic for a fixed seed; timing notes go to
stderr.  The environment variable ``SPINLAB_SEED`` provides a fallback seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .algebra import check_jacobi
from .catalog import (
    BianchiFamily,
    heisenberg_params,
    heisenberg_spectrum,
    make_bianchi,
    make_heisenberg,
)
from .clifford import check_slots
from .errors import FormatError, InvalidParameterError, SpinlabError
from .gks import (
    DEFAULT_GAP_TOL,
    DEFAULT_TOL,
    eigen_analysis,
    full_report,
    genericity_sweep,
    solve_heisenberg,
    table1_rows,
)
from .selftest import run_selftest, verify_appendix
from .serialize import (
    algebra_from_obj,
    format_table_float,
    metric_from_obj,
    to_json,
)

_HEISENBERG_RE = re.compile(r"^H\(\s*(\d+)\s*\)$")

# Largest --samples, a bound on run time: at the cap table1 takes about 3.3 s,
# verify-appendix 5.4 s and sweep --algebra "L3(6)" 0.57 s (median of 3 fresh
# `python -m spinlab` processes each, wall time, 2 shared Xeon CPUs, numpy 2.4
# on Linux).  Memory does not grow with --samples (about 42 MB of ru_maxrss),
# because no sweep pass holds more than GRID_PASS_FRAMES frames.
MAX_SAMPLES = 200_000


def _default_seed() -> int:
    env = os.environ.get("SPINLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParameterError(f"SPINLAB_SEED must be an integer, got {env!r}")
    return 1


def _load_json_arg(text: str):
    """Parse an argument that is inline JSON or a path to a JSON file."""
    if not text.lstrip().startswith(("{", "[")):
        text = Path(text).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("malformed JSON: nested deeper than the parser allows") from None


def _resolve_algebra(name: str, tol: float):
    m = _HEISENBERG_RE.match(name.strip())
    if m:
        dim = int(m.group(1))
        if dim < 3 or dim % 2 == 0:
            raise InvalidParameterError(f"Heisenberg dimension must be odd and >= 3, got {dim}")
        return make_heisenberg((dim - 1) // 2)
    if name.strip().startswith("L3"):
        return make_bianchi(BianchiFamily.parse(name))
    alg = algebra_from_obj(_load_json_arg(name))
    ok, violation = check_jacobi(alg, tol=max(tol, 1e-10))
    if not np.isfinite(violation):  # the products c * c of the Jacobi sum overflowed
        raise SpinlabError("the structure constants are out of floating-point range")
    if not ok:
        raise SpinlabError(
            f"not a Lie algebra: Jacobi identity fails (violation {violation:.3e})"
        )
    return alg


def _resolve_metric(alg, text: str):
    if text.strip() == "identity":
        return metric_from_obj(alg, "identity")
    return metric_from_obj(alg, _load_json_arg(text))


def _mat_lines(mat, indent: str = "  ") -> list[str]:
    return [
        indent + "  ".join(format_table_float(v).rjust(12) for v in row)
        for row in np.asarray(mat)
    ]


def _require_finite(payload: dict) -> dict:
    """Reject a report with a NaN or infinite number: its input left floating-point range."""
    bad = [
        key for key, value in payload.items()
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float)))
    ]
    if bad:
        raise SpinlabError(
            f"report is not finite ({', '.join(bad)}): the input is out of floating-point range"
        )
    return payload


def cmd_analyze(args) -> tuple[dict, int]:
    alg = _resolve_algebra(args.algebra, args.tol)
    mla = _resolve_metric(alg, args.metric)
    report = full_report(mla, tol=args.tol, gap_tol=args.gap_tol)
    return _require_finite(report.to_dict()), 0


def _table_analyze(payload: dict) -> str:
    lines = [f"dim: {len(payload['A'])}"]
    lines.append("A (orthonormal frame):")
    lines += _mat_lines(payload["A"])
    lines.append(f"solve_residual: {format_table_float(payload['solve_residual'])}")
    lines.append(f"symmetric: {payload['symmetric']}")
    if payload["eigenvalues"] is not None:
        eig = ", ".join(format_table_float(v) for v in payload["eigenvalues"])
        lines.append(f"eigenvalues: {eig}  (distinct: {payload['distinct_count']})")
    else:
        lines.append("eigenvalues: n/a (A not symmetric)")
    lines.append(f"dirac_eigenvalue: {format_table_float(payload['dirac_eigenvalue'])}")
    lines.append("ricci:")
    lines += _mat_lines(payload["ricci"])
    lines.append(f"commutator_norm: {format_table_float(payload['commutator_norm'])}")
    gks = payload["gks_space_dim"]
    lines.append(f"gks_space_dim: {gks if gks is not None else 'tested-spinor-only'}")
    return "\n".join(lines)


def cmd_heisenberg(args) -> tuple[dict, int]:
    t0 = time.perf_counter()
    n = args.n
    if n < 1:
        raise InvalidParameterError(f"--n must be >= 1, got {n}")
    check_slots(n)  # before the default lists, which hold n entries each

    def parse_list(text: str | None):
        if text is None:
            return None
        try:
            vals = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise InvalidParameterError(f"bad parameter list {text!r}") from exc
        if len(vals) != n:
            raise InvalidParameterError(f"expected {n} comma-separated values, got {len(vals)}")
        return vals

    a, b, c = heisenberg_params(n, parse_list(args.a), parse_list(args.b), args.c)
    a_solved, residual = solve_heisenberg(a, b, c)
    vals, distinct = eigen_analysis(a_solved, args.gap_tol, sym_tol=args.tol)
    lam, mu = heisenberg_spectrum(a, b, c)
    payload = _require_finite({
        "n": n,
        "a": a.tolist(),
        "b": b.tolist(),
        "c": c,
        "lambda": lam.tolist(),
        "mu": float(mu),
        "eigenvalues": [float(v) for v in vals],
        "distinct_count": distinct,
        "solve_residual": float(residual),
        "dirac_eigenvalue": float(np.trace(a_solved)),
    })
    elapsed = time.perf_counter() - t0
    print(f"runtime_seconds: {elapsed:.3f}", file=sys.stderr)
    return payload, 0


def _table_heisenberg(payload: dict) -> str:
    return "\n".join([
        f"n: {payload['n']}",
        "lambda: " + ", ".join(format_table_float(v) for v in payload["lambda"]),
        f"mu: {format_table_float(payload['mu'])}",
        "eigenvalues: " + ", ".join(format_table_float(v) for v in payload["eigenvalues"]),
        f"distinct_count: {payload['distinct_count']}",
        f"solve_residual: {format_table_float(payload['solve_residual'])}",
        f"dirac_eigenvalue: {format_table_float(payload['dirac_eigenvalue'])}",
    ])


def cmd_verify_appendix(args) -> tuple[dict, int]:
    payload = verify_appendix(args.samples, args.seed, args.tol)
    return payload, 0 if payload["all_pass"] else 2


def _table_verify_appendix(payload: dict) -> str:
    lines = [f"{'family':<12} {'max|dA|':>10} {'max|dAsym|':>10} {'sym':>5} {'ok':>4}"]
    for r in payload["results"]:
        lines.append(
            f"{r['family']:<12} {format_table_float(r['max_A_deviation']):>10} "
            f"{format_table_float(r['max_asymmetry_deviation']):>10} "
            f"{str(r['symmetry_expected']):>5} {('yes' if r['pass'] else 'NO'):>4}"
        )
    lines.append(f"all_pass: {payload['all_pass']}")
    return "\n".join(lines)


def cmd_sweep(args) -> tuple[dict, int]:
    fam = BianchiFamily.parse(args.algebra)
    stats = genericity_sweep(fam, args.samples, args.seed, args.gap_tol, args.tol)
    return {"seed": args.seed, "gap_tol": args.gap_tol, **stats}, 0


def _table_sweep(payload: dict) -> str:
    return "\n".join([
        f"family: {payload['family']}",
        f"samples: {payload['samples']}",
        f"symmetric_count: {payload['symmetric_count']}",
        f"modal_r: {payload['modal_r']}",
        "r_counts: " + ", ".join(f"r={k}: {v}" for k, v in payload["r_counts"].items()),
        f"fraction_r_lt_3: {payload['fraction_r_lt_3']}",
    ])


def cmd_table1(args) -> tuple[dict, int]:
    rows = table1_rows(args.samples, args.seed, args.gap_tol, args.tol)
    return {"samples": args.samples, "seed": args.seed, "gap_tol": args.gap_tol, "rows": rows}, 0


def _table_table1(payload: dict) -> str:
    lines = [f"{'family':<10} {'case':<9} {'dim_GK':>6} {'r':>3} {'degenerate':>11}"]
    for row in payload["rows"]:
        r = "-" if row["r"] is None else str(row["r"])
        deg = row["degenerate_fraction"]
        deg = "-" if deg is None else format_table_float(deg)
        lines.append(
            f"{row['family']:<10} {row['case']:<9} {row['gk_dim']:>6} {r:>3} {deg:>11}"
        )
    return "\n".join(lines)


def cmd_selftest(args) -> tuple[dict, int]:
    result = run_selftest(tol=args.tol, seed=args.seed)
    return result, 0 if result["all_pass"] else 2


def _table_selftest(payload: dict) -> str:
    lines = []
    for chk in payload["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        lines.append(
            f"{status}  {chk['name']:<34} deviation {format_table_float(chk['deviation'])}"
            f"  (tol {format_table_float(chk['tol'])})"
        )
    lines.append("all_pass: " + str(payload["all_pass"]))
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2, without
    the usage block; subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: parsing leaves it unchanged, and
    the ``SPINLAB_SEED`` fallback is read per call in ``_check_args``."""
    parser = _Parser(
        prog="spinlab",
        description="Invariant generalised Killing spinors on metric Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, samples_default=None, gap_tol=True):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        if gap_tol:
            p.add_argument("--gap-tol", dest="gap_tol", type=float, default=DEFAULT_GAP_TOL)
        p.add_argument("--seed", type=int, default=None)
        if samples_default is not None:
            p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("analyze", help="analyze one algebra + metric")
    p.add_argument("--algebra", required=True, help="catalog name, JSON file, or inline JSON")
    p.add_argument("--metric", default="identity", help='"identity", JSON file, or inline JSON')
    add_common(p)

    p = sub.add_parser("heisenberg", help="Heisenberg-family eigenvalue ladder")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", default=None, help="comma-separated squared norms (default p^2)")
    p.add_argument("--b", default=None, help="comma-separated squared norms (default 1)")
    p.add_argument("--c", type=float, default=1.0)
    add_common(p)

    p = sub.add_parser("verify-appendix", help="solver vs closed-form family tables")
    add_common(p, samples_default=100, gap_tol=False)  # it counts no distinct eigenvalues

    p = sub.add_parser("sweep", help="eigenvalue-count statistics over random metrics")
    p.add_argument("--algebra", required=True, help="family name, e.g. L3(6)")
    add_common(p, samples_default=1000)

    p = sub.add_parser("table1", help="GK-space dimension and generic r per family")
    add_common(p, samples_default=1000)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    add_common(p, gap_tol=False)  # no check counts distinct eigenvalues
    p.set_defaults(tol=None)  # each check keeps its own tolerance unless --tol is given
    return parser


def _check_args(args) -> None:
    """Fill in the fallback seed and reject out-of-range tolerance and sampling arguments."""
    for flag, value in (("--tol", args.tol), ("--gap-tol", getattr(args, "gap_tol", None))):
        if value is not None and not 0.0 < value < float("inf"):
            raise InvalidParameterError(f"{flag} must be finite and > 0, got {value}")
    if args.seed is None:
        args.seed = _default_seed()
    if args.seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {args.seed}")
    if not 1 <= getattr(args, "samples", 1) <= MAX_SAMPLES:
        raise InvalidParameterError(
            f"--samples must be between 1 and {MAX_SAMPLES}, got {args.samples}"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # help (0) or a usage error (2), already printed
        return exc.code
    try:
        _check_args(args)
        name = args.command.replace("-", "_")
        # looked up by name on every call, not kept in the cached parser, so a
        # rebinding of cmd_* (a test double, the benchmark's tracer) takes effect
        command = globals()["cmd_" + name]
        # the one output choice: a command's payload as JSON or as its table
        render = to_json if args.format == "json" else globals()["_table_" + name]
        # overflow surfaces as a failed guard or a non-finite result, which
        # each command rejects, so numpy's floating-point warnings are noise
        with np.errstate(all="ignore"):
            payload, code = command(args)
            text = render(payload)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError, UnicodeDecodeError) as exc:  # FormatError before SpinlabError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
