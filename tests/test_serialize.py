"""Byte-deterministic JSON/CSV emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ridgeless import serialize
from ridgeless.serialize import csv_line, format_float, to_json, write_text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 1e-308, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2**53 + 2.0],
)
def test_format_float_tricky_values(x):
    assert float(format_float(x)) == x


def test_format_float_non_finite():
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(math.nan) == "nan"


def test_json_insertion_order():
    text = to_json({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_json_values():
    payload = {
        "f": 0.1,
        "i": 7,
        "s": "hi",
        "b": True,
        "none": None,
        "inf": math.inf,
        "list": [1, 2],
        "empty": {},
    }
    text = to_json(payload)
    parsed = json.loads(text)
    assert parsed["f"] == 0.1
    assert parsed["i"] == 7
    assert parsed["b"] is True
    assert parsed["none"] is None
    assert parsed["inf"] == "inf"  # non-finite floats become strings
    assert parsed["list"] == [1, 2]
    assert parsed["empty"] == {}
    assert text.endswith("\n")
    assert "\r" not in text


def test_json_nesting_is_valid():
    payload = {"a": {"b": [{"c": [1.5, None, "x"]}, []]}}
    assert json.loads(to_json(payload)) == payload


def test_json_deterministic():
    payload = {"x": [0.1, 0.2], "y": {"k": 3}}
    assert to_json(payload) == to_json(payload)


def test_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        to_json({1: "x"})


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": object()})


def test_csv_quoting():
    line = csv_line(["a,b", 'say "hi"', "two\nlines", "plain"])
    assert line == '"a,b","say ""hi""","two\nlines",plain\n'


def test_csv_scalars():
    assert csv_line([True, False, None, 3, 0.5]) == "true,false,,3,0.5\n"


def test_csv_float_full_precision():
    x = 1 / 3
    assert csv_line([x]) == format(x, ".17g") + "\n"


def test_write_text_no_crlf(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, "a\nb\n")
    assert path.read_bytes() == b"a\nb\n"


# ---------------------------------------------------------------------------
# float-list fast path


def generic_json(obj) -> str:
    """to_json with the float-list fast path switched off."""
    real = serialize._finite_floats
    serialize._finite_floats = lambda items: False
    try:
        return to_json(obj)
    finally:
        serialize._finite_floats = real


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("length", [0, 1, 2, 65535, 65536, 65537, 2 * 65536 + 3])
def test_float_list_fast_path_matches_generic_bytes(length):
    rng = np.random.default_rng(length)
    values = (rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)).tolist()
    values[: len(EDGE_FLOATS)] = EDGE_FLOATS[:length]
    assert serialize._finite_floats(values) == (length > 0)
    for obj in (values, {"a": {"values": values}}, [values, tuple(values)]):
        assert to_json(obj) == generic_json(obj)
    # the headerless one-column CSV that the spectrum subcommand writes
    csv_text = "".join([*serialize.format_floats(values, "\n"), "\n" if values else ""])
    assert csv_text == "".join(csv_line([v]) for v in values)


def test_float_list_fast_path_expected_text():
    assert to_json([-0.0, 5e-324, 1e308]) == "[\n  -0,\n  4.9406564584124654e-324,\n  1e+308\n]\n"
    assert to_json({"v": [0.5]}) == '{\n  "v": [\n    0.5\n  ]\n}\n'


@pytest.mark.parametrize(
    "items",
    [
        [1.0, math.nan],
        [math.inf, 1.0],
        [1.0, -math.inf],
        [1.0, True],
        [False],
        [1.0, 2],
        [3],
        [1.0, "x"],
        [1.0, None],
        [np.float64(1.0), 2.0],
        [1.0, [2.0]],
    ],
)
def test_float_list_fast_path_falls_back(items):
    assert not serialize._finite_floats(items)
    assert to_json(items) == generic_json(items)
    assert to_json({"k": items}) == generic_json({"k": items})


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_float_list_fast_path_matches_generic_on_drawn_lists(values):
    assert to_json({"x": values}) == generic_json({"x": values})
    assert json.loads(to_json(values)) == values
