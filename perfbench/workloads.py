"""The three workloads: the CLI invocations of one cycle and their output gates.

A workload is a cycle of ``spinlab`` command lines.  Cycle ``k`` of a run
with benchmark seed ``s`` passes ``--seed`` values derived from ``(s, k)``
and nothing else from the seed, so the same seed gives the same inputs.
Every invocation carries its item count (analysed metrics for the 3-d
workloads, reports for ``heisenberg_large``) and a gate that checks its
stdout; an invocation that exits non-zero, prints a non-finite number or
fails its gate fails all of its items.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable


class GateError(Exception):
    """An invocation's output failed the workload's correctness gate."""


@dataclass(frozen=True)
class Invocation:
    slot: str  # position in the cycle; timings are aggregated per slot
    argv: tuple[str, ...]
    items: int
    gate: Callable[[dict], None]


def parse_output(stdout: str) -> dict:
    """Parse one JSON document, rejecting NaN and infinities."""

    def reject(token: str):
        raise GateError(f"non-finite number {token} in output")

    try:
        return json.loads(stdout, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not finite JSON: {exc}") from exc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


# ---------------------------------------------------------------- sweep3d
# (family, case, gk_dim, r) of the nine table1 rows, as asserted by the
# acceptance suite's table reproduction criterion.
TABLE1_EXPECTED = (
    ("L3(-1)", "", 0, None),
    ("L3(1)", "", 2, 2),
    ("L3(2,x)", "x = -1", 2, 3),
    ("L3(2,x)", "x != -1", 0, None),
    ("L3(3)", "", 0, None),
    ("L3(4,x)", "x = 0", 2, 3),
    ("L3(4,x)", "x != 0", 0, None),
    ("L3(5)", "", 2, 3),
    ("L3(6)", "", 2, 3),
)
TABLE1_FAMILIES = 13  # parameter values across the nine rows

# One sweep per family, with the generic distinct count r of its symmetric
# verdict, or None where A is never symmetric.  Three symmetric and four
# non-symmetric families, so both report paths appear.
SWEEP_FAMILIES = (
    ("L3(-1)", None),
    ("L3(1)", 2),
    ("L3(2,0.5)", None),
    ("L3(3)", None),
    ("L3(4,0.5)", None),
    ("L3(5)", 3),
    ("L3(6)", 3),
)
SWEEP_SAMPLES = 10
TABLE1_SAMPLES = 10
TABLE1_PER_CYCLE = 2


def _table1_gate(samples: int):
    def gate(out: dict) -> None:
        _expect(out.get("samples") == samples, "table1 sample count differs")
        got = tuple((r["family"], r["case"], r["gk_dim"], r["r"]) for r in out["rows"])
        _expect(got == TABLE1_EXPECTED, f"table1 rows differ: {got}")

    return gate


def _sweep_gate(family: str, samples: int, modal_r: int | None):
    def gate(out: dict) -> None:
        _expect(out.get("samples") == samples, f"{family}: sample count differs")
        if modal_r is None:
            _expect(out["symmetric_count"] == 0, f"{family}: unexpected symmetric verdict")
            _expect(out["modal_r"] is None, f"{family}: unexpected modal r")
        else:
            _expect(out["symmetric_count"] == samples, f"{family}: non-symmetric verdict")
            _expect(out["modal_r"] == modal_r, f"{family}: modal r {out['modal_r']}")

    return gate


def sweep3d_cycle(seed: int, k: int) -> list[Invocation]:
    base = (seed * 100_003 + k) * 16
    cycle = [
        Invocation(
            f"table1#{j}",
            ("table1", "--samples", str(TABLE1_SAMPLES), "--seed", str(base + j)),
            TABLE1_FAMILIES * TABLE1_SAMPLES,
            _table1_gate(TABLE1_SAMPLES),
        )
        for j in range(TABLE1_PER_CYCLE)
    ]
    for j, (family, modal_r) in enumerate(SWEEP_FAMILIES, start=TABLE1_PER_CYCLE):
        cycle.append(
            Invocation(
                f"sweep {family}",
                ("sweep", "--algebra", family, "--samples", str(SWEEP_SAMPLES),
                 "--seed", str(base + j)),
                SWEEP_SAMPLES,
                _sweep_gate(family, SWEEP_SAMPLES, modal_r),
            )
        )
    return cycle


# --------------------------------------------------------------- oracle3d
VERIFY_SAMPLES = 10
VERIFY_PER_CYCLE = 3
VERIFY_FAMILIES = 13  # closed-form comparison grid
# run_selftest analyses 20 metrics on each of the 13 grid families, plus
# the Heisenberg ladder defaults for n = 1..6 and 5 random metrics per n.
SELFTEST_ITEMS = 13 * 20 + 6 + 6 * 5


def _all_pass_gate(what: str, results: int | None = None):
    def gate(out: dict) -> None:
        _expect(out.get("all_pass") is True, f"{what}: all_pass is not true")
        if results is not None:
            _expect(len(out["results"]) == results, f"{what}: result count differs")

    return gate


def oracle3d_cycle(seed: int, k: int) -> list[Invocation]:
    base = (seed * 100_003 + k) * 16
    cycle = [
        Invocation(
            f"verify-appendix#{j}",
            ("verify-appendix", "--samples", str(VERIFY_SAMPLES), "--seed", str(base + j)),
            VERIFY_FAMILIES * VERIFY_SAMPLES,
            _all_pass_gate("verify-appendix", VERIFY_FAMILIES),
        )
        for j in range(VERIFY_PER_CYCLE)
    ]
    cycle.append(
        Invocation(
            "selftest",
            ("selftest", "--seed", str(base + VERIFY_PER_CYCLE)),
            SELFTEST_ITEMS,
            _all_pass_gate("selftest"),
        )
    )
    return cycle


# ------------------------------------------------------- heisenberg_large
# heisenberg --n runs solve + eigen only; analyze runs the full report on
# the diagonal Gram.  The largest size is run only through analyze, so the
# slowest items form one group of like reports (which the tail percentile
# lands in), and the odd slot count puts the median in the middle of one
# slot's samples rather than between two sizes.
HEISENBERG_NS = (12, 13, 14, 15)
ANALYZE_NS = (12, 13, 14, 15, 16)


def heisenberg_expected(n: int) -> list[float]:
    """Closed-form ladder for a_p = p^2, b_p = c = 1: 1/(4p) twice, and -sum."""
    lam = [0.25 / p for p in range(1, n + 1)]
    return sorted([-sum(lam)] + [v for v in lam for _ in range(2)])


def _ladder_gate(n: int, report: bool):
    expected = heisenberg_expected(n)

    def gate(out: dict) -> None:
        vals = out["eigenvalues"]
        _expect(vals is not None and len(vals) == len(expected), f"n={n}: eigenvalue count")
        dev = max(abs(a - b) for a, b in zip(sorted(vals), expected))
        _expect(dev <= 1e-10, f"n={n}: eigenvalue deviation {dev:.3e}")
        _expect(out["distinct_count"] == n + 1, f"n={n}: distinct {out['distinct_count']}")
        if report:
            _expect(out["symmetric"] is True, f"n={n}: A not symmetric")
            _expect(out["gks_space_dim"] is None, f"n={n}: unexpected gks_space_dim")

    return gate


def heisenberg_gram(n: int) -> str:
    """Inline JSON of the diagonal Gram diag(c, a_1, b_1, ..., a_n, b_n)."""
    diag = [1.0]
    for p in range(1, n + 1):
        diag += [float(p * p), 1.0]
    rows = [[diag[i] if i == j else 0.0 for j in range(len(diag))] for i in range(len(diag))]
    return json.dumps({"gram": rows})


def heisenberg_cycle(seed: int, k: int) -> list[Invocation]:
    cli_seed = str(seed * 100_003 + k)
    cycle = [
        Invocation(f"heisenberg n={n}", ("heisenberg", "--n", str(n), "--seed", cli_seed),
                   1, _ladder_gate(n, report=False))
        for n in HEISENBERG_NS
    ]
    for n in ANALYZE_NS:
        cycle.append(
            Invocation(
                f"analyze n={n}",
                ("analyze", "--algebra", f"H({2 * n + 1})", "--metric", heisenberg_gram(n),
                 "--seed", cli_seed),
                1,
                _ladder_gate(n, report=True),
            )
        )
    return cycle


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[int, int], list[Invocation]]
    # command lines run once before timing, in a fresh interpreter for
    # setup_s and in the benchmark process before its timed phase
    warmup: Callable[[int], list[tuple[str, ...]]]
    # Clifford module sizes fetched during warm-up
    module_sizes: tuple[int, ...]


WORKLOADS = {
    "sweep3d": Workload(
        "sweep3d",
        sweep3d_cycle,
        lambda seed: [("sweep", "--algebra", "L3(6)", "--samples", "2", "--seed", str(seed))],
        (1,),
    ),
    "oracle3d": Workload(
        "oracle3d",
        oracle3d_cycle,
        lambda seed: [("verify-appendix", "--samples", "1", "--seed", str(seed))],
        (1,),
    ),
    "heisenberg_large": Workload(
        "heisenberg_large",
        heisenberg_cycle,
        lambda seed: [("heisenberg", "--n", str(min(HEISENBERG_NS)), "--seed", str(seed))],
        ANALYZE_NS,
    ),
}


def check_finite(obj) -> None:
    """Raise if any number in a parsed document is not finite."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise GateError("non-finite number in output")
    if isinstance(obj, dict):
        for v in obj.values():
            check_finite(v)
    elif isinstance(obj, list):
        for v in obj:
            check_finite(v)
