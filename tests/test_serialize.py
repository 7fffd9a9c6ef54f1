"""Byte-deterministic JSON/CSV emission."""

import dataclasses
import errno
import json
import math
import os

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ridgeless import design, serialize
from ridgeless.experiments import TrialRecord
from ridgeless.serialize import csv_line, format_float, json_pieces, write_text
from ridgeless.spectra import make_exp_floor_spectrum


def to_json(obj) -> str:
    """The whole JSON text of obj."""
    return "".join(json_pieces(obj))


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
    # the same text as "%.17g", which format_floats uses, also for a negative NaN
    for x in (math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324):
        assert format_float(x) == "%.17g" % x
    assert format_float(-math.nan) == "nan"


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
    write_text(path, (piece for piece in ["x\n", "", "y", "\n"]))  # pieces, drawn lazily
    assert path.read_bytes() == b"x\ny\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def failing_pieces(error):
    yield "new text\n"
    raise error


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   KeyboardInterrupt(), TypeError("cannot serialize")])
def test_a_failed_write_leaves_the_earlier_file(tmp_path, error):
    # rendered and written to a temporary sibling: path changes only once all is written
    path = tmp_path / "out.json"
    path.write_bytes(b"earlier\n")
    with pytest.raises(type(error)):
        write_text(path, failing_pieces(error))
    assert path.read_bytes() == b"earlier\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_text_replaces_a_symlink_rather_than_writing_through_it(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"kept\n")
    link = tmp_path / "out.txt"
    link.symlink_to(target)
    write_text(link, "new\n")
    assert not link.is_symlink() and link.read_bytes() == b"new\n"
    assert target.read_bytes() == b"kept\n"


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
    assert to_json(iter(values)) == to_json(values)  # an iterator takes the generic branch


# ---------------------------------------------------------------------------
# the certified kernel behind format_floats: the bytes of "%.17g", value by value

needs_x87 = pytest.mark.skipif(not design._EXTENDED, reason="the kernel needs the x87 long double")
SEPARATORS = ["\n", ",\n    ", ", "]


def percent_g(values, sep) -> str:
    """The oracle: one "%.17g" per value, joined by sep."""
    return sep.join("%.17g" % v for v in np.asarray(values, dtype=float).tolist())


@pytest.fixture
def spy(monkeypatch):
    """Counts of the values each fallback call and each kernel call took."""
    seen = {"fallback": [], "kernel": []}
    percent, kernel = serialize._percent_g, serialize._format_chunk

    def fallback(values):
        seen["fallback"].append(len(values))
        return percent(values)

    def chunk(x, sep):
        seen["kernel"].append(len(x))
        return kernel(x, sep)

    monkeypatch.setattr(serialize, "_percent_g", fallback)
    monkeypatch.setattr(serialize, "_format_chunk", chunk)
    return seen


def drawn_floats(seed, size, low, high, order, negative, special):
    """size finite floats 2^b m (m in [0.5, 1)) with b in [low, high], ~special of
    them +-0 or the least subnormal, ~negative of them negated, in the given order."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(low, high + 1, size))
    at = rng.random(size) < special
    x[at] = rng.choice([0.0, -0.0, 5e-324], int(at.sum()))
    x[rng.random(size) < negative] *= -1
    if order == "descending":
        x = np.sort(x)[::-1].copy()
    elif order == "ascending":
        x = np.sort(x)
    return x


# no shrinking: a failing draw of 10^5 values would shrink for minutes; it is reported as drawn
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.one_of(st.integers(0, 3000), st.integers(0, 3 * serialize._CHUNK + 5)),
    centre=st.integers(-1074, 1024),
    half_width=st.sampled_from([0, 3, 30, 150, 1100]),  # up to 10^+-308 and subnormals
    order=st.sampled_from(["descending", "ascending", "unsorted"]),
    negative=st.sampled_from([0.0, 0.5, 1.0]),
    special=st.sampled_from([0.0, 0.01]),
    sep=st.sampled_from(SEPARATORS),
)
def test_format_floats_has_the_bytes_of_percent_g(seed, size, centre, half_width, order,
                                                  negative, special, sep):
    low, high = max(-1074, centre - half_width), min(1024, centre + half_width)
    x = drawn_floats(seed, size, low, high, order, negative, special)
    want = percent_g(x, sep)
    assert "".join(serialize.format_floats(x, sep)) == want
    assert "".join(serialize.format_floats(x.tolist(), sep)) == want
    if design._EXTENDED and size:  # the kernel itself, on one chunk, wherever x lies
        head = x[: serialize._CHUNK]
        assert serialize._format_chunk(head, sep) == percent_g(head, sep)


CONSTRUCTED = {
    "powers of ten and their neighbours": [
        np.nextafter(10.0**k, d) for k in range(-30, 51) for d in (-np.inf, 0.0, np.inf)
    ],
    "the %g switch points": [
        9.9999e-6, 1e-5, 1.5e-5, 9.99999e-5, 1e-4, 1.25e-4, 0.5, 9.999e15, 1e16,
        1.2345678901234567e16, 9.9999999999999984e16, 1e17, 1.2345678901234567e17, 5e17,
    ],
    "a decade edge": [np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e-4],
    "integer parts ending in zeros": [10.0, 100.0, 1e16, 2.0**53, 120.5, 3e20, 1000.25],
}


@pytest.mark.parametrize("case", CONSTRUCTED)
@pytest.mark.parametrize("sep", SEPARATORS)
def test_constructed_values_have_the_bytes_of_percent_g(case, sep):
    values = CONSTRUCTED[case]
    x = np.resize(np.array(values + [-v for v in values]), 2 * serialize._KERNEL_MIN)
    want = percent_g(x, sep)
    assert "".join(serialize.format_floats(x, sep)) == want
    if design._EXTENDED:
        assert serialize._format_chunk(x, sep) == want


@needs_x87
def test_an_exact_decimal_tie_takes_the_fallback(spy):
    tie = 1125899906842624.25  # 2^50 + 1/4: the 17-digit rounding is a tie, to even
    x = np.full(serialize._KERNEL_MIN, tie)
    assert serialize._format_chunk(x, ",") == ",".join(["1125899906842624.2"] * x.size)
    assert spy["fallback"] == [x.size]
    # its neighbours are no ties, and the kernel certifies them itself
    near = np.array([np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)] * 512)
    assert serialize._format_chunk(near, ",") == percent_g(near, ",")
    assert spy["fallback"] == [x.size]


@needs_x87
def test_an_exp_floor_spectrum_rarely_falls_back(spy):
    x = make_exp_floor_spectrum(100_000, 20.0, 1e-4).values
    assert "".join(serialize.format_floats(x, "\n")) == percent_g(x, "\n")
    assert spy["kernel"] == [serialize._CHUNK, x.size - serialize._CHUNK]
    assert sum(spy["fallback"]) < 0.01 * x.size


def test_without_the_x87_long_double_the_bytes_are_the_same(monkeypatch, spy):
    x = make_exp_floor_spectrum(3000, 20.0, 1e-4).values
    fast = "".join(serialize.format_floats(x, "\n"))
    monkeypatch.setattr(design, "_EXTENDED", False)
    kernel_calls = len(spy["kernel"])
    assert "".join(serialize.format_floats(x, "\n")) == fast == percent_g(x, "\n")
    assert to_json({"v": x}) == generic_json({"v": x})
    assert len(spy["kernel"]) == kernel_calls


def test_short_and_far_spread_chunks_skip_the_kernel(spy):
    short = make_exp_floor_spectrum(serialize._KERNEL_MIN - 1, 20.0, 1e-4).values
    spread = drawn_floats(1, 5000, -1000, 1000, "unsorted", 0.5, 0.0)
    for x in (short, spread):
        assert "".join(serialize.format_floats(x, "\n")) == percent_g(x, "\n")
    assert spy["kernel"] == []


def test_generic_json_switches_the_kernel_off(spy):
    x = make_exp_floor_spectrum(3000, 20.0, 1e-4).values
    for obj in (x, x.tolist(), {"a": x}):
        generic_json(obj)
    assert spy["kernel"] == [] and spy["fallback"] == []
    assert to_json(x) == generic_json(x)
    assert len(spy["kernel"]) == design._EXTENDED


@pytest.mark.parametrize("length", [65535, 65536, 65537])
@pytest.mark.parametrize("kind", ["exp-floor", "spread"])
def test_float_array_fast_path_matches_generic_bytes(length, kind, spy):
    if kind == "exp-floor":  # sorted and inside the kernel's range: the kernel runs
        values = make_exp_floor_spectrum(length, 20.0, 1e-4).values
    else:
        rng = np.random.default_rng(length)
        values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
    for obj in (values, values.tolist(), {"a": {"values": values}}):
        assert to_json(obj) == generic_json(obj)
    csv_text = "".join([*serialize.format_floats(values, "\n"), "\n"])
    assert csv_text == "".join(csv_line([v]) for v in values.tolist())
    assert (len(spy["kernel"]) > 0) == (design._EXTENDED and kind == "exp-floor")


@pytest.mark.parametrize("length", [1, 3, 70000])
def test_a_long_array_with_non_finite_floats_matches_generic_bytes(length):
    values = make_exp_floor_spectrum(length, 20.0, 1e-4).values.copy()
    values[[0, length // 2, -1]] = [math.nan, math.inf, -math.inf]
    for obj in (values, values.tolist(), {"a": [values]}):
        assert to_json(obj) == generic_json(obj)
    assert to_json(iter(values.tolist())) == generic_json(values)
    assert json.loads(to_json(values)) == [format_float(v) if not math.isfinite(v) else v
                                           for v in values.tolist()]


# ---------------------------------------------------------------------------
# arrays of records: each renders as the dict of its fields


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 0.1, 1e300]


def trial_records(count: int) -> list:
    rng = np.random.default_rng(count)
    records = []
    for i in range(count):
        floats = (rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6)).tolist()
        floats[i % 6] = SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)]
        records.append(TrialRecord(i, *floats, [True, False, None][i % 3], [None, True][i % 2]))
    return records


@dataclasses.dataclass(frozen=True)
class Nested:
    name: str
    values: list
    inner: dict


@pytest.mark.parametrize("count", [0, 1, 2, 700])  # 700 records are about 240 KB of text
def test_record_arrays_match_the_bytes_of_their_dicts(count):
    records = trial_records(count)
    dicts = [dataclasses.asdict(r) for r in records]
    want = to_json(dicts)
    assert (len(want) > 3 * 65536) == (count == 700)
    for rows in (list, tuple, iter, lambda rs: (r for r in rs)):  # lazily produced rows too
        assert to_json(rows(records)) == want
        assert to_json({"records": rows(records), "after": [records[:1], []]}) == to_json(
            {"records": dicts, "after": [dicts[:1], []]})
    assert [r["trial_index"] for r in json.loads(want)] == list(range(count))


def test_record_fields_that_are_containers_match_the_bytes_of_their_dicts():
    long = make_exp_floor_spectrum(3000, 20.0, 1e-4).values
    records = [Nested("a", [1.0, math.inf, None], {"v": long, "e": {}}), Nested("b", [], {}),
               TrialRecord(0, *[1.5] * 6, True, None)]
    want = to_json([dataclasses.asdict(r) for r in records])
    assert to_json(records) == want == generic_json(records)


@pytest.mark.parametrize(
    "values",
    [[0.5, -2.0, 1e300], [1.0, math.nan, -math.inf], [], [3.25], [math.inf]],
    ids=["finite", "non-finite", "empty", "one", "one-non-finite"],
)
def test_a_float_array_serializes_as_its_list(values):
    arr = np.array(values, dtype=np.float64)
    assert to_json(arr) == to_json(values)
    assert to_json({"k": [arr, {"v": arr}]}) == to_json({"k": [values, {"v": values}]})


@pytest.mark.parametrize(
    "arr", [np.ones((2, 2)), np.arange(3), np.ones(3, np.float32), np.array(1.0)],
    ids=["2-d", "int", "float32", "0-d"],
)
def test_other_arrays_are_refused(arr):
    with pytest.raises(TypeError):
        to_json({"x": arr})
