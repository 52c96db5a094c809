"""Span tracer that wraps spinlab's public functions from the outside.

``Tracer.install`` replaces every module-level binding of each traced
function in every loaded ``spinlab`` module (``from ... import`` copies a
binding into the importing module, so patching the defining module alone
would miss calls such as ``spinlab.gks.nomizu``), and wraps methods on
their class.  ``Tracer.uninstall`` puts every original object back.

Each call records a span (name, start, end, parent).  A span's self time is
its duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.  Spans of the first traced pass
are kept in memory and written out at the end; later passes only update
the per-function totals.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, qualified name) of every traced function, grouped by module.
TRACED: tuple[tuple[str, str], ...] = (
    ("algebra", "FrameChange.random"),
    ("algebra", "metric_from_frame_change"),
    ("algebra", "orthonormalize"),
    ("algebra", "check_jacobi"),
    ("connection", "nomizu"),
    ("connection", "curvature"),
    ("connection", "ricci_spinorial_check"),
    ("connection", "torsion_violation"),
    ("clifford", "get_module"),
    ("clifford", "CliffordModule.apply_spin_lift"),
    ("clifford", "CliffordModule.apply_vector"),
    ("clifford", "CliffordModule.apply_combo"),
    ("clifford", "CliffordModule.spin_lift"),
    ("clifford", "CliffordModule.vector_matrix"),
    ("gks", "full_report"),
    ("gks", "solve_endomorphism"),
    ("gks", "gk_equation_residual"),
    ("gks", "eigen_analysis"),
    ("gks", "explicit_A_3d"),
    ("gks", "genericity_sweep"),
    ("catalog", "reference_A"),
    ("catalog", "reference_asymmetry"),
    ("catalog", "reference_eigenvalues"),
    ("catalog", "reference_ricci_3d"),
    ("catalog", "heisenberg_metric"),
    ("serialize", "to_json"),
    ("cli", "table1_rows"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_heisenberg"),
    ("cli", "cmd_verify_appendix"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_table1"),
    ("cli", "cmd_selftest"),
    ("selftest", "run_selftest"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)


def lstsq_flops(rows: int, cols: int, rhs: int) -> int:
    """Operation count model of a tall least-squares solve (LAPACK gelsd).

    Householder bidiagonalisation of the ``rows x cols`` matrix costs
    ``4 rows cols^2 - 4 cols^3 / 3``; applying its reflectors to ``rhs``
    right-hand sides costs ``4 rows cols rhs``.  The small bidiagonal SVD
    is of lower order and left out.
    """
    return 4 * rows * cols * cols - (4 * cols**3) // 3 + 4 * rows * cols * rhs


class Stats:
    """Per-function totals of one traced pass."""

    __slots__ = ("calls", "total", "self_total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0


class Tracer:
    """Installs and removes the wrappers and holds the totals of one pass."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._methods: list[tuple[type, str, object]] = []
        self.keep_spans = False
        self.spans: list[tuple[int, float, float, int]] = []
        self.reset_pass()

    # -- per-pass state -------------------------------------------------
    def reset_pass(self) -> None:
        self.stats = {name: Stats() for name in SPAN_NAMES}
        self._stack: list[list] = []
        self.module_builds = 0
        self.get_module_hits = 0
        self.solve_bytes = 0
        self.solve_flops = 0
        self.json_bytes = 0

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._originals.clear()
        self._methods.clear()
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "spinlab" or name.startswith("spinlab.")) and m is not None]
        for span_id, (mod_name, qual) in enumerate(TRACED):
            name = SPAN_NAMES[span_id]
            owner = importlib.import_module(f"spinlab.{mod_name}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._originals[name] = raw.__func__
                    wrapped = classmethod(self._wrap(span_id, raw.__func__))
                else:
                    self._originals[name] = raw
                    wrapped = self._wrap(span_id, raw)
                self._patch(cls, meth, raw, wrapped)
                self._methods.append((cls, meth, raw))
                continue
            original = getattr(owner, qual)
            self._originals[name] = original
            wrapped = self._wrap(span_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        # counts CliffordModule constructions, so get_module cache hits are
        # observed without relying on how the cache is implemented
        cls = importlib.import_module("spinlab.clifford").CliffordModule
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.module_builds += 1
            return init(obj, *args, **kwargs)

        self._patch(cls, "__init__", init, counting_init)

    def _patch(self, target, key, original, wrapped) -> None:
        self._patches.append((target, key, original))
        setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def unpatched_bindings(self) -> list[str]:
        """Names in ``spinlab`` still bound to a traced original while installed."""
        originals = {id(fn) for fn in self._originals.values()}
        missing = [f"{cls.__name__}.{meth}" for cls, meth, raw in self._methods
                   if cls.__dict__[meth] is raw]
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == "spinlab" or mod_name.startswith("spinlab.")):
                continue
            for key, value in vars(module).items():
                if id(value) in originals:
                    missing.append(f"{mod_name}.{key}")
        return missing

    # -- spans ----------------------------------------------------------
    def _wrap(self, span_id: int, fn):
        name = SPAN_NAMES[span_id]
        extra = _EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]  # summed duration of direct children
            stack.append(frame)
            builds = tracer.module_builds
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = tracer.stats[name]
                st.calls += 1
                st.total += dur
                st.self_total += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if tracer.keep_spans:
                    tracer.spans.append((span_id, t0, t1, len(stack)))
            if extra is not None:
                extra(tracer, args, kwargs, result, builds)
            return result

        return wrapper

    def spans_json(self) -> list[dict]:
        """Kept spans with explicit parent indices, in start order.

        Spans are appended on exit together with their nesting depth.  In
        start order, the parent of a span is the latest span started one
        level up.
        """
        order = sorted(range(len(self.spans)), key=lambda i: self.spans[i][1])
        out = []
        open_at_depth: dict[int, int] = {}
        for new_idx, i in enumerate(order):
            span_id, t0, t1, depth = self.spans[i]
            parent = open_at_depth.get(depth - 1, -1) if depth else -1
            open_at_depth[depth] = new_idx
            out.append({
                "name": SPAN_NAMES[span_id],
                "start_us": round(t0 * 1e6, 3),
                "end_us": round(t1 * 1e6, 3),
                "parent": parent,
            })
        return out


def _solve_extra(tracer: Tracer, args, kwargs, result, builds) -> None:
    mla = args[0] if args else kwargs["mla"]
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    rows = 2 * len(psi.coeffs)  # real and imaginary parts stacked
    cols = mla.dim
    tracer.solve_bytes += 2 * rows * cols * 8  # moment matrix and right-hand side
    tracer.solve_flops += lstsq_flops(rows, cols, cols)


def _get_module_extra(tracer: Tracer, args, kwargs, result, builds) -> None:
    if tracer.module_builds == builds:
        tracer.get_module_hits += 1


def _to_json_extra(tracer: Tracer, args, kwargs, result, builds) -> None:
    tracer.json_bytes += len(result.encode("utf-8"))


_EXTRAS = {
    "gks.solve_endomorphism": _solve_extra,
    "clifford.get_module": _get_module_extra,
    "serialize.to_json": _to_json_extra,
}
