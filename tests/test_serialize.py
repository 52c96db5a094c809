import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spinlab import cli, serialize
from spinlab.catalog import BianchiFamily, make_bianchi, make_heisenberg
from spinlab.errors import FormatError, UnsupportedDimensionError
from spinlab.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    format_float,
    metric_from_obj,
    to_json,
)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reference_emit(obj, indent: int, level: int) -> str:
    """One recursive call per value, each float formatted on its own: the
    emitter before rows of floats were written in one template pass."""
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
            f"{inner}{json.dumps(str(k))}: {_reference_emit(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_reference_emit(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialise object of type {type(obj)!r}")


_EDGE_FLOATS = (-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                float("nan"), float("inf"), -float("inf"), 1.0 / 3.0)
_floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _floats, st.text(max_size=4),
    _floats.map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _arrays,
    st.lists(_floats, max_size=6),  # all-float rows, the template path
    st.lists(st.one_of(st.integers(-5, 5), _floats), max_size=6),  # mixed rows, the general path
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_payloads, st.sampled_from([0, 1, 2, 4]))
def test_to_json_matches_the_per_value_emitter(payload, indent):
    assert to_json(payload, indent) == _reference_emit(payload, indent, 0)


_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=33),
    elements=_floats,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@example(np.resize(np.array(_EDGE_FLOATS), (33, 33)), 2, False)
@given(_matrices, st.sampled_from([0, 1, 2, 4]), st.booleans())
def test_whole_matrix_template_matches_the_per_value_emitter(matrix, indent, transposed):
    # float64 matrices up to the 33 x 33 of an H(33) report, empty ones and
    # non-contiguous views too, at the top level and nested as in a report
    matrix = matrix.T if transposed else matrix
    for payload in (matrix, {"A": matrix, "rows": [matrix, [matrix]]}):
        assert to_json(payload, indent) == _reference_emit(payload, indent, 0)


def test_exact_type_dispatch_matches_the_per_value_emitter():
    # numpy scalars go through .item() once, then one exact-type branch each; strings
    # up to the cache length are escaped through _key, longer ones by json.dumps
    long = "q" * (serialize._CACHED_STR_LEN + 1)
    scalars = [
        True, False, np.True_, np.False_, np.int64(-7), np.int64(2**63 - 1), 0, -(2**70),
        np.float64(1.0 / 3.0), np.float32(0.1), np.float32("nan"), -0.0, np.float64(-0.0),
        float("nan"), -float("inf"), None, "", long, long[:-1], 'say "hi"', "back\\slash",
        "tab\tline\nnul\x00\x1f", "é ∑ 😀", np.str_("L3(6)"),
    ]
    for _ in range(2):  # the second round reads the cached escapes
        for obj in scalars:
            for payload in (obj, [obj], [obj, 1], {"k": obj}, (obj,)):
                assert to_json(payload) == _reference_emit(payload, 2, 0), repr(payload)
    serialize._key.cache_clear()
    to_json(long)
    assert serialize._key.cache_info().currsize == 0
    to_json(long[:-1])
    assert serialize._key.cache_info().currsize == 1


def test_to_json_refuses_what_the_per_value_emitter_refuses():
    for obj in (np.array([1j]), [1.0, 1j], {"x": object()}, {1.5}):
        with pytest.raises(TypeError):
            _reference_emit(obj, 2, 0)
        with pytest.raises(TypeError):
            to_json(obj)


def test_heisenberg_cycle_stdout_matches_the_per_value_emitter(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    payloads = []

    def recording(obj, indent=2):
        payloads.append(obj)
        return to_json(obj, indent)

    monkeypatch.setattr(cli, "to_json", recording)
    for inv in wl.heisenberg_cycle(1, 0):
        assert cli.main(list(inv.argv)) == 0, inv.slot
        assert capsys.readouterr().out == _reference_emit(payloads[-1], 2, 0) + "\n", inv.slot
    assert len(payloads) == len(wl.heisenberg_cycle(1, 0))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(format_float(x)) == x


def test_to_json_is_valid_and_ordered():
    doc = {"b": 1, "a": [1.5, True, None, "s"], "m": np.eye(2)}
    text = to_json(doc)
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["b", "a", "m"]
    assert parsed["m"] == [[1.0, 0.0], [0.0, 1.0]]
    assert parsed["a"] == [1.5, True, None, "s"]


def test_to_json_seventeen_digits():
    third = 1.0 / 3.0
    assert format_float(third) == "0.33333333333333331"
    assert format_float(third) in to_json({"x": third})


def test_algebra_round_trip():
    for alg in (make_bianchi(BianchiFamily("L3(5)")), make_heisenberg(2)):
        obj = algebra_to_obj(alg)
        back = algebra_from_obj(json.loads(json.dumps(obj)))
        np.testing.assert_array_equal(back.c, alg.c)


def test_algebra_schema_errors():
    with pytest.raises(FormatError):
        algebra_from_obj([1, 2, 3])
    with pytest.raises(FormatError):
        algebra_from_obj({"dim": 3})
    with pytest.raises(FormatError):
        algebra_from_obj({"dim": 3, "brackets": [{"i": 2, "j": 1, "coeffs": [0, 0, 0]}]})
    with pytest.raises(FormatError):
        algebra_from_obj({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0]}]})


def test_metric_from_obj_variants():
    alg = make_bianchi(BianchiFamily("L3(1)"))
    ident = metric_from_obj(alg, "identity")
    np.testing.assert_array_equal(ident.gram, np.eye(3))
    via_gram = metric_from_obj(alg, {"gram": np.eye(3).tolist()})
    np.testing.assert_array_equal(via_gram.frame, np.eye(3))
    via_frame = metric_from_obj(
        alg,
        {"frame_P": {"alpha": 2.0, "beta": 3.0, "gamma": 0.0, "epsilon": 1.0, "zeta": 0.0, "iota": 1.0}},
    )
    assert via_frame.frame[0, 0] == 2.0 and via_frame.frame[0, 1] == 3.0
    with pytest.raises(FormatError):
        metric_from_obj(alg, {"metric": []})
    with pytest.raises(FormatError):
        metric_from_obj(alg, {"frame_P": {"alpha": 1.0, "delta": 2.0}})


def test_documents_refuse_keys_the_schema_does_not_read():
    alg = make_bianchi(BianchiFamily("L3(2,x)", -1.0))
    gram, frame = np.eye(3).tolist(), {"alpha": 2, "beta": 0.5}
    for doc, message in (
        ({"gram": gram, "frame_P": frame}, "one of 'gram' and 'frame_P', not both"),
        ({"frame_P": frame, "gram": gram}, "one of 'gram' and 'frame_P', not both"),
        ({"gram": gram, "Gram": gram}, r"unknown metric document fields \['Gram'\]"),
        ({"frame_P": frame, "note": "x", "seed": 1},
         r"unknown metric document fields \['note', 'seed'\]"),
        ({}, "needs a 'gram' or 'frame_P' field"),
    ):
        with pytest.raises(FormatError, match=message):
            metric_from_obj(alg, doc)
    # each of them alone is still read
    assert metric_from_obj(alg, {"frame_P": frame}).frame[0, 1] == 0.5
    np.testing.assert_array_equal(metric_from_obj(alg, {"gram": gram}).frame, np.eye(3))
    brackets = algebra_to_obj(alg)["brackets"]
    for doc in (
        {"dim": 3, "brackets": brackets, "metric": "identity"},
        {"dim": 3, "brackets": brackets, "bracket": []},
    ):
        with pytest.raises(FormatError, match=r"unknown algebra document fields \['"):
            algebra_from_obj(doc)
    np.testing.assert_array_equal(algebra_from_obj({"dim": 3, "brackets": brackets}).c, alg.c)


def test_metric_frame_matrix_form():
    alg = make_heisenberg(2)
    mat = np.diag([1.0, 1.0, 2.0, 1.0, 0.5]).tolist()
    mla = metric_from_obj(alg, {"frame_P": mat})
    np.testing.assert_array_equal(mla.frame, np.diag([1.0, 1.0, 2.0, 1.0, 0.5]))


def test_algebra_dimension_cap():
    bracket = {"i": 1, "j": 33, "coeffs": [0.0] * 33}
    assert algebra_from_obj({"dim": 33, "brackets": [bracket]}).dim == 33
    for dim in (34, 35, 10**6):
        with pytest.raises(UnsupportedDimensionError):
            algebra_from_obj({"dim": dim, "brackets": []})
