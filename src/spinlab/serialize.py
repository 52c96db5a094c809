"""Deterministic JSON emission and the on-disk algebra/metric schemas.

Floats are printed with 17 significant digits (round-trip safe) and keys
keep their construction order, so identical inputs produce byte-identical
documents.  Tables use 6 significant digits.

Algebra documents look like::

    {"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": [1.0, 0.0, 0.0]}]}

listing only pairs with ``i < j`` (1-based); the antisymmetric completion
is implicit.  Metric documents carry either a Gram matrix
``{"gram": [[...]]}`` or a 3-dimensional frame change
``{"frame_P": {"alpha": ..., "beta": ..., "gamma": ..., "epsilon": ...,
"zeta": ..., "iota": ...}}``.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import (
    FrameChange,
    LieAlgebra,
    MetricLieAlgebra,
    metric_from_frame_change,
    orthonormalize,
)
from .errors import FormatError


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_table_float(x: float) -> str:
    return format(float(x), ".6g")


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_emit(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def to_json(obj, indent: int = 2) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    return _emit(obj, indent, 0)


def algebra_from_obj(obj) -> LieAlgebra:
    """Build a Lie algebra from the documented JSON mapping."""
    if not isinstance(obj, dict):
        raise FormatError("algebra document must be a JSON object")
    try:
        dim = int(obj["dim"])
        entries = obj["brackets"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"algebra document missing/invalid field: {exc}") from exc
    if dim < 1:
        raise FormatError(f"'dim' must be a positive integer, got {dim}")
    if not isinstance(entries, list):
        raise FormatError("'brackets' must be a list")
    c = np.zeros((dim, dim, dim))
    for entry in entries:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            coeffs = [float(v) for v in entry["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad bracket entry {entry!r}") from exc
        if not (1 <= i < j <= dim):
            raise FormatError(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i}, {j})")
        if len(coeffs) != dim:
            raise FormatError(f"bracket ({i}, {j}) needs {dim} coefficients, got {len(coeffs)}")
        c[i - 1, j - 1, :] = coeffs
        c[j - 1, i - 1, :] = [-v for v in coeffs]
    return LieAlgebra(dim, c)


def algebra_to_obj(alg: LieAlgebra) -> dict:
    """Inverse of :func:`algebra_from_obj` (sparse, i < j only)."""
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            row = alg.c[i, j]
            if np.any(row != 0.0):
                brackets.append(
                    {"i": i + 1, "j": j + 1, "coeffs": [float(v) for v in row]}
                )
    return {"dim": alg.dim, "brackets": brackets}


_GREEK = ("alpha", "beta", "gamma", "epsilon", "zeta", "iota")


def frame_change_from_obj(obj, dim: int) -> FrameChange:
    """Frame change from the ``frame_P`` payload (named entries or matrix)."""
    if isinstance(obj, dict):
        unknown = set(obj) - set(_GREEK)
        if unknown:
            raise FormatError(f"unknown frame_P entries {sorted(unknown)}")
        if dim != 3:
            raise FormatError("named frame_P entries are for 3-dimensional algebras")
        try:
            vals = {k: float(obj.get(k, 1.0 if k in ("alpha", "epsilon", "iota") else 0.0)) for k in _GREEK}
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad frame_P entry: {exc}") from exc
        return FrameChange.from_entries(**vals)
    if isinstance(obj, list):
        return FrameChange(np.asarray(obj, dtype=float))
    raise FormatError("frame_P must be an object with named entries or a matrix")


def metric_from_obj(alg: LieAlgebra, obj) -> MetricLieAlgebra:
    """Apply a metric document (or the literal ``"identity"``) to ``alg``."""
    if obj == "identity":
        return orthonormalize(alg, np.eye(alg.dim))
    if not isinstance(obj, dict):
        raise FormatError("metric document must be a JSON object")
    if "gram" in obj:
        try:
            gram = np.asarray(obj["gram"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad gram matrix: {exc}") from exc
        return orthonormalize(alg, gram)
    if "frame_P" in obj:
        return metric_from_frame_change(alg, frame_change_from_obj(obj["frame_P"], alg.dim))
    raise FormatError("metric document needs a 'gram' or 'frame_P' field")
