"""Deterministic JSON emission and the on-disk algebra/metric schemas.

Floats are printed with 17 significant digits (round-trip safe) and keys
keep their construction order, so identical inputs produce byte-identical
documents.  Tables use 6 significant digits.  Emission is one pass over the
document: a non-empty 2-D float64 array (``A``, ``asymmetry``, ``ricci``) is
written with one ``"%.17g"`` template for the whole matrix, and a list made
only of Python floats with one template join, instead of one call per
number; every other value is written on its own.  A scalar is dispatched on its
exact type (``float``, ``str``, ``int``, ``bool``, ``None``), a numpy scalar after one
``.item()``.  Dict keys and strings of up to 64 characters are escaped through
``_key``, a per-process cache of ``json.dumps`` (at most 256 entries).

Algebra documents look like::

    {"dim": 3, "brackets": [{"i": 2, "j": 3, "coeffs": [1.0, 0.0, 0.0]}]}

listing only pairs with ``i < j`` (1-based); the antisymmetric completion
is implicit.  Metric documents carry either a Gram matrix
``{"gram": [[...]]}`` or a frame change: a 3-dimensional one as
``{"frame_P": {"alpha": ..., "beta": ..., "gamma": ..., "epsilon": ...,
"zeta": ..., "iota": ...}}``, or any as an upper-triangular matrix.  A metric
document holds exactly one of ``gram`` and ``frame_P``, an algebra document
only ``dim`` and ``brackets``.

Documents that break the schema raise ``FormatError`` (CLI exit 3): a
top-level key outside those, or both ``gram`` and ``frame_P``; ``dim``, ``i``
and ``j`` that are not JSON integers; bracket coefficients, ``gram`` and
``frame_P`` entries that are not JSON numbers (``true``, ``"1"``,
``null``, a nested list); matrices with rows of unequal length; and a
bracket pair ``(i, j)`` given more than once.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .algebra import (
    FrameChange,
    LieAlgebra,
    MetricLieAlgebra,
    metric_from_frame_change,
    orthonormalize,
)
from .clifford import MAX_SLOTS
from .errors import FormatError, UnsupportedDimensionError


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_table_float(x: float) -> str:
    return format(float(x), ".6g")


def _bracket(items: list[str], inner: str, pad: str) -> str:
    """A non-empty JSON list of rendered items, one per line."""
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


# strings up to this length are escaped through the _key cache; a longer one is
# rare in a payload and would only push schema keys out of the cache
_CACHED_STR_LEN = 64


@lru_cache(maxsize=256)
def _key(key: str) -> str:
    """A dict key or short string value as a JSON string; payload keys are a fixed schema
    and string values a few family labels and cases, so nearly every call is a cache hit."""
    return json.dumps(key)


def _emit(obj, indent: int, level: int) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()  # numpy scalars as the Python scalars they hold
    kind = type(obj)
    if kind is float:
        return "%.17g" % obj  # format_float, without its float() and format() calls
    if kind is str:
        return _key(obj) if len(obj) <= _CACHED_STR_LEN else json.dumps(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.size and obj.dtype == np.float64:
            # the whole matrix in one template pass: "%.17g" % x is
            # format(x, ".17g") for every double
            row = _bracket(["%.17g"] * obj.shape[1], inner + " " * indent, inner)
            return _bracket([row] * obj.shape[0], inner, pad) % tuple(obj.ravel().tolist())
        return _emit(obj.tolist(), indent, level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_key(str(k))}: {_emit(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:  # a row of plain floats in one template pass
            return _bracket(["%.17g"] * len(obj), inner, pad) % tuple(obj)
        return _bracket([_emit(v, indent, level + 1) for v in obj], inner, pad)
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


def to_json(obj, indent: int = 2) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    return _emit(obj, indent, 0)


def _json_int(value, name: str) -> int:
    """A JSON integer as is; floats (``3.0`` too), booleans and other types are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"'{name}' must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_real(value, name: str) -> float:
    """A JSON number as a float; booleans, strings and other types are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"'{name}' entries must be JSON numbers, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal past the float range
        raise FormatError(f"'{name}' entry {value} is out of floating-point range") from exc


def _json_reals(value, name: str) -> np.ndarray:
    """A JSON number or rectangular nested lists of them as a float array."""
    cells = np.array(value, dtype=object)  # rows of unequal length stay lists
    entries = cells.reshape(-1)  # not .flat, which stops at 32 axes
    kinds = set(map(type, entries))
    if list in kinds:
        raise FormatError(f"'{name}' must be a rectangular array of numbers")
    if not kinds <= {int, float}:
        for v in entries:
            _json_real(v, name)  # refuses the first entry that is not a number
    try:
        return cells.astype(float)
    except OverflowError as exc:  # an integer literal past the float range
        raise FormatError(f"'{name}' has an entry out of floating-point range") from exc


def _refuse_unknown(obj: dict, keys: set[str], what: str) -> None:
    """Refuse a JSON object with a key outside ``keys``: a key the schema does not
    read would otherwise be ignored without a word."""
    unknown = set(obj) - keys
    if unknown:
        raise FormatError(f"unknown {what} {sorted(unknown)}")


def algebra_from_obj(obj) -> LieAlgebra:
    """Build a Lie algebra from the documented JSON mapping."""
    if not isinstance(obj, dict):
        raise FormatError("algebra document must be a JSON object")
    _refuse_unknown(obj, {"dim", "brackets"}, "algebra document fields")
    try:
        dim = _json_int(obj["dim"], "dim")
        entries = obj["brackets"]
    except KeyError as exc:
        raise FormatError(f"algebra document missing field: {exc}") from exc
    if dim < 1:
        raise FormatError(f"'dim' must be a positive integer, got {dim}")
    if dim > 2 * MAX_SLOTS + 1:  # refused before the dim^3 tensor is allocated
        raise UnsupportedDimensionError(
            f"algebra dimension {dim} exceeds the supported maximum of {2 * MAX_SLOTS + 1}"
        )
    if not isinstance(entries, list):
        raise FormatError("'brackets' must be a list")
    c = np.zeros((dim, dim, dim))
    seen = set()
    for entry in entries:
        try:
            i, j = _json_int(entry["i"], "i"), _json_int(entry["j"], "j")
            coeffs = [_json_real(v, "coeffs") for v in entry["coeffs"]]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad bracket entry {entry!r}") from exc
        if not (1 <= i < j <= dim):
            raise FormatError(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i}, {j})")
        if (i, j) in seen:
            raise FormatError(f"bracket ({i}, {j}) is given more than once")
        seen.add((i, j))
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
        _refuse_unknown(obj, set(_GREEK), "frame_P entries")
        if dim != 3:
            raise FormatError("named frame_P entries are for 3-dimensional algebras")
        al, be, ga, ep, ze, io = (
            _json_real(obj[k], "frame_P") if k in obj
            else (1.0 if k in ("alpha", "epsilon", "iota") else 0.0)
            for k in _GREEK
        )
        return FrameChange(np.array([[al, be, ga], [0.0, ep, ze], [0.0, 0.0, io]]))
    if isinstance(obj, list):
        return FrameChange(_json_reals(obj, "frame_P"))
    raise FormatError("frame_P must be an object with named entries or a matrix")


def metric_from_obj(alg: LieAlgebra, obj) -> MetricLieAlgebra:
    """Apply a metric document (or the literal ``"identity"``) to ``alg``."""
    if obj == "identity":
        return orthonormalize(alg, np.eye(alg.dim))
    if not isinstance(obj, dict):
        raise FormatError("metric document must be a JSON object")
    _refuse_unknown(obj, {"gram", "frame_P"}, "metric document fields")
    if len(obj) == 2:
        raise FormatError("metric document takes one of 'gram' and 'frame_P', not both")
    if "gram" in obj:
        return orthonormalize(alg, _json_reals(obj["gram"], "gram"))
    if "frame_P" in obj:
        return metric_from_frame_change(alg, frame_change_from_obj(obj["frame_P"], alg.dim))
    raise FormatError("metric document needs a 'gram' or 'frame_P' field")
