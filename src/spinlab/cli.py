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
    HeisenbergParams,
    heisenberg_gk_eigenvalues,
    heisenberg_metric,
    make_bianchi,
    make_heisenberg,
)
from .clifford import Spinor, check_slots
from .errors import FormatError, InvalidParameterError, SpinlabError
from .gks import (
    DEFAULT_GAP_TOL,
    DEFAULT_TOL,
    eigen_analysis,
    full_report,
    genericity_sweep,
    solve_endomorphism,
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

# Largest --samples: verify-appendix, the most memory per sample, peaks near
# 0.37 GB there (table1 near 0.25 GB).
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


def _render_report_table(rep_dict: dict, dim: int) -> str:
    lines = [f"dim: {dim}"]
    lines.append("A (orthonormal frame):")
    lines += _mat_lines(rep_dict["A"])
    lines.append(f"solve_residual: {format_table_float(rep_dict['solve_residual'])}")
    lines.append(f"symmetric: {rep_dict['symmetric']}")
    if rep_dict["eigenvalues"] is not None:
        eig = ", ".join(format_table_float(v) for v in rep_dict["eigenvalues"])
        lines.append(f"eigenvalues: {eig}  (distinct: {rep_dict['distinct_count']})")
    else:
        lines.append("eigenvalues: n/a (A not symmetric)")
    lines.append(f"dirac_eigenvalue: {format_table_float(rep_dict['dirac_eigenvalue'])}")
    lines.append("ricci:")
    lines += _mat_lines(rep_dict["ricci"])
    lines.append(f"commutator_norm: {format_table_float(rep_dict['commutator_norm'])}")
    gks = rep_dict["gks_space_dim"]
    lines.append(f"gks_space_dim: {gks if gks is not None else 'tested-spinor-only'}")
    return "\n".join(lines)


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


def cmd_analyze(args) -> tuple[str, int]:
    alg = _resolve_algebra(args.algebra, args.tol)
    mla = _resolve_metric(alg, args.metric)
    report = full_report(mla, tol=args.tol, gap_tol=args.gap_tol)
    payload = _require_finite(report.to_dict())
    if args.format == "json":
        return to_json(payload), 0
    return _render_report_table(payload, mla.dim), 0


def _parse_params(args) -> HeisenbergParams:
    n = args.n
    if n < 1:
        raise InvalidParameterError(f"--n must be >= 1, got {n}")
    check_slots(n)  # before the default lists, which hold n entries each
    defaults = HeisenbergParams.defaults(n)

    def parse_list(text: str | None, default):
        if text is None:
            return default
        try:
            vals = tuple(float(v) for v in text.split(","))
        except ValueError as exc:
            raise InvalidParameterError(f"bad parameter list {text!r}") from exc
        if len(vals) != n:
            raise InvalidParameterError(f"expected {n} comma-separated values, got {len(vals)}")
        return vals

    a, b = parse_list(args.a, defaults.a), parse_list(args.b, defaults.b)
    return HeisenbergParams(n, a, b, args.c)


def cmd_heisenberg(args) -> tuple[str, int]:
    t0 = time.perf_counter()
    params = _parse_params(args)
    mla = heisenberg_metric(params)
    a_solved, residual = solve_endomorphism(mla, Spinor.one(params.n))
    vals, distinct = eigen_analysis(a_solved, args.gap_tol, sym_tol=args.tol)
    lam, mu = heisenberg_gk_eigenvalues(params)
    payload = _require_finite({
        "n": params.n,
        "a": list(params.a),
        "b": list(params.b),
        "c": params.c,
        "lambda": lam,
        "mu": mu,
        "eigenvalues": [float(v) for v in vals],
        "distinct_count": distinct,
        "solve_residual": residual,
        "dirac_eigenvalue": float(np.trace(a_solved)),
    })
    elapsed = time.perf_counter() - t0
    print(f"runtime_seconds: {elapsed:.3f}", file=sys.stderr)
    if args.format == "json":
        return to_json(payload), 0
    lines = [
        f"n: {params.n}",
        "lambda: " + ", ".join(format_table_float(v) for v in lam),
        f"mu: {format_table_float(mu)}",
        "eigenvalues: " + ", ".join(format_table_float(v) for v in vals),
        f"distinct_count: {distinct}",
        f"solve_residual: {format_table_float(residual)}",
        f"dirac_eigenvalue: {format_table_float(float(np.trace(a_solved)))}",
    ]
    return "\n".join(lines), 0


def cmd_verify_appendix(args) -> tuple[str, int]:
    payload = verify_appendix(args.samples, args.seed, args.tol, args.gap_tol)
    code = 0 if payload["all_pass"] else 2
    if args.format == "json":
        return to_json(payload), code
    lines = [f"{'family':<12} {'max|dA|':>10} {'max|dAsym|':>10} {'sym':>5} {'ok':>4}"]
    for r in payload["results"]:
        lines.append(
            f"{r['family']:<12} {format_table_float(r['max_A_deviation']):>10} "
            f"{format_table_float(r['max_asymmetry_deviation']):>10} "
            f"{str(r['symmetry_expected']):>5} {('yes' if r['pass'] else 'NO'):>4}"
        )
    lines.append(f"all_pass: {payload['all_pass']}")
    return "\n".join(lines), code


def cmd_sweep(args) -> tuple[str, int]:
    fam = BianchiFamily.parse(args.algebra)
    stats = genericity_sweep(fam, args.samples, args.seed, args.gap_tol, args.tol)
    payload = {"seed": args.seed, "gap_tol": args.gap_tol, **stats}
    if args.format == "json":
        return to_json(payload), 0
    lines = [
        f"family: {stats['family']}",
        f"samples: {stats['samples']}",
        f"symmetric_count: {stats['symmetric_count']}",
        f"modal_r: {stats['modal_r']}",
        "r_counts: " + ", ".join(f"r={k}: {v}" for k, v in stats["r_counts"].items()),
        f"fraction_r_lt_3: {stats['fraction_r_lt_3']}",
    ]
    return "\n".join(lines), 0


def cmd_table1(args) -> tuple[str, int]:
    rows = table1_rows(args.samples, args.seed, args.gap_tol, args.tol)
    payload = {
        "samples": args.samples,
        "seed": args.seed,
        "gap_tol": args.gap_tol,
        "rows": rows,
    }
    if args.format == "json":
        return to_json(payload), 0
    lines = [f"{'family':<10} {'case':<9} {'dim_GK':>6} {'r':>3} {'degenerate':>11}"]
    for row in rows:
        r = "-" if row["r"] is None else str(row["r"])
        deg = (
            "-"
            if row["degenerate_fraction"] is None
            else format_table_float(row["degenerate_fraction"])
        )
        lines.append(
            f"{row['family']:<10} {row['case']:<9} {row['gk_dim']:>6} {r:>3} {deg:>11}"
        )
    return "\n".join(lines), 0


def cmd_selftest(args) -> tuple[str, int]:
    result = run_selftest(tol=args.tol, seed=args.seed)
    code = 0 if result["all_pass"] else 2
    if args.format == "json":
        return to_json(result), code
    lines = []
    for chk in result["checks"]:
        status = "PASS" if chk["pass"] else "FAIL"
        lines.append(
            f"{status}  {chk['name']:<34} deviation {format_table_float(chk['deviation'])}"
            f"  (tol {format_table_float(chk['tol'])})"
        )
    lines.append("all_pass: " + str(result["all_pass"]))
    return "\n".join(lines), code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2, without
    the usage block; subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
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
    add_common(p, samples_default=100)

    p = sub.add_parser("sweep", help="eigenvalue-count statistics over random metrics")
    p.add_argument("--algebra", required=True, help="family name, e.g. L3(6)")
    add_common(p, samples_default=1000)

    p = sub.add_parser("table1", help="GK-space dimension and generic r per family")
    add_common(p, samples_default=1000)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    add_common(p, gap_tol=False)  # no check counts distinct eigenvalues
    p.set_defaults(tol=None)  # each check keeps its own tolerance unless --tol is given
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: parsing leaves it unchanged, and
    the ``SPINLAB_SEED`` fallback is read per call in ``_check_args``."""
    return build_parser()


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
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # help (0) or a usage error (2), already printed
        return exc.code
    try:
        _check_args(args)
        # looked up by name on every call, not kept in the cached parser, so a
        # rebinding of cmd_* (a test double, the benchmark's tracer) takes effect
        command = globals()["cmd_" + args.command.replace("-", "_")]
        # overflow surfaces as a failed guard or a non-finite result, which
        # each command rejects, so numpy's floating-point warnings are noise
        with np.errstate(all="ignore"):
            text, code = command(args)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
