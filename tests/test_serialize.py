import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinlab.catalog import BianchiFamily, make_bianchi, make_heisenberg
from spinlab.errors import FormatError, UnsupportedDimensionError
from spinlab.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    format_float,
    metric_from_obj,
    to_json,
)


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
