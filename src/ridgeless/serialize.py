"""Deterministic JSON and CSV emitters.

The stdlib json module gives no control over float formatting, so this
module renders output itself: floats with 17 significant digits (enough
to round-trip float64 exactly), non-finite floats as the strings "inf",
"-inf", "nan", dict keys in insertion order, "\n" line endings, and no
timestamps.  Identical inputs therefore produce byte-identical files,
which the determinism checks rely on.  The text is rendered in pieces as
it is written, so a file's text is never held whole.

Every float is rendered as Python's correctly rounded "%.17g" renders it.
Long float arrays and lists take a certified numpy kernel (_format_chunk)
that yields the same bytes: it rounds each value to 17 digits in the x87
long double and hands every value it cannot certify, and every chunk on a
platform without that long double, to "%.17g", which stays the fallback
and the oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from collections.abc import Iterator

import numpy as np

from . import design

__all__ = ["format_float", "format_floats", "json_pieces", "csv_line", "write_text"]


def format_float(x: float) -> str:
    """17-significant-digit rendering, as "%.17g": 'inf'/'-inf'/'nan' for non-finite."""
    return format(x, ".17g")


# Items per piece of format_floats, so that a long list never holds all its
# formatted items at once; the kernel's working memory is bounded by it too.
_CHUNK = 65536
# Fewest values in a chunk for which the kernel beats "%.17g" (its fixed cost
# is about 0.1 ms, the break-even near 400 values).
_KERNEL_MIN = 1024
_PAD = "  "  # the indent of one JSON nesting level

# The kernel forms p = |x| 10^k with k = 16 - floor(log10 |x|) in the x87
# long double.  10^k is exact there for |k| <= _K_MAX (5^27 < 2^64), so p
# carries one rounding, of at most 2^-64 p: the certified range is
# 1e-11 <= |x| < 1e44.
_K_MAX = 27
_LOW, _HIGH = 10.0 ** (16 - _K_MAX), 10.0 ** (17 + _K_MAX)
# C's %g rules by the exponent X of the value rounded to 17 digits: fixed
# notation for -4 <= X < 17, otherwise d.ddd followed by e+XX.  X indexes
# the text that goes before the digits (sign, "0." and zeros for X < 0)
# and after them as X - _X_LOW.
_X_LOW = 16 - _K_MAX
# A value's columns: its head, 17 digit slots of two bytes, its tail; the
# widest "%.17g" text fits in them.
_DIGIT_COLS = slice(8, 8 + 2 * 17)
_WIDTH = _DIGIT_COLS.stop + 4
_FALLBACK_WIDTH = len("-2.2250738585072014e-308")


def _padded(texts, width: int, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype)


@functools.cache
def _tables() -> tuple:
    """The kernel's constant tables, built at its first call, so that a run that
    prints no long array loads none of the numpy code that builds them:
    10^0..10^_K_MAX in long double; the 4-digit groups 0000..9999 as four
    uint16 digit slots packed in a uint64 (the ASCII digit in the low byte,
    so the high byte can hold a point) and the trailing zeros of each; the
    head and the tail of each class X, the head also by sign; the slots."""
    group = np.indices((10,) * 4, np.uint16).reshape(4, -1).T  # row i: the digits of i
    classes = range(_X_LOW, 17 + _K_MAX)
    return (
        np.cumprod(np.r_[1, np.full(_K_MAX, 10)].astype(np.longdouble)),
        np.ascontiguousarray(group + ord("0")).view(np.uint64).ravel(),
        np.logical_and.accumulate(group[:, ::-1] == 0, axis=1).sum(1, dtype=np.int8),
        _padded([sign + ("0." + "0" * (-1 - x) if -4 <= x < 0 else "")
                 for x in classes for sign in ("", "-")], _DIGIT_COLS.start, np.uint64),
        _padded(["" if -4 <= x < 17 else "e%+03d" % x for x in classes], 4, np.uint32),
        np.arange(17, dtype=np.int8),
    )


def _percent_g(values: list) -> list:
    """"%.17g" % v for each float: the kernel's fallback."""
    return ["%.17g" % v for v in values]


def _format_chunk(x: np.ndarray, sep: str) -> str:
    """sep.join("%.17g" % v for v in x) for a 1-d float64 array, on the x87 long double.

    A value is certified when 10^16 <= p < 10^17 and the fraction of p is
    farther from 1/2 than p's rounding bound (u p, u = 2^-64 inflated by
    design._INFLATED_U): then N = round(p) is the exact value rounded to 17
    digits, whatever the tie rule.  Ties and near-ties, zeros, subnormals,
    non-finite values and |x| outside the range take "%.17g".  Each row of
    a byte table holds one value's text at fixed columns with NUL padding
    (head, 17 digit slots, tail, sep), removed in one pass at the end.
    """
    pow10, digits4, zeros4, heads, tails, slots = _tables()
    n = len(x)
    a = np.abs(x)
    ok = np.isfinite(a) & (a > 0)
    e = np.floor(np.log10(np.where(ok, a, 1.0)))
    ok &= np.abs(16 - e) <= _K_MAX
    e[~ok] = 16
    k = (16 - e).astype(np.intp)
    scale = pow10[np.abs(k)]
    p = a.astype(np.longdouble)
    np.multiply(p, scale, out=p, where=k >= 0)
    np.divide(p, scale, out=p, where=k < 0)
    ok &= (p >= 1e16) & (p < 1e17)
    p[~ok] = 1e16
    big = p.astype(np.uint64)
    frac = (p - big).astype(np.float64)  # exact: a multiple of 2^-10 below 1
    ok &= np.abs(frac - 0.5) > p.astype(np.float64) * design._INFLATED_U
    big += frac > 0.5
    # N = 10^17 would carry into the next decade.  No double in range does:
    # only the double below each 10^m can, and none of those for -11 <= m <= 44.
    ok &= big < 10**17
    exp10 = e.astype(np.int8)

    # the 17 digits: the leading one, then four groups of four
    lead = big // 10**16
    rest = (big - lead * 10**16).astype(np.intp)
    hi = rest // 10**8
    lo = rest - hi * 10**8
    groups = np.empty((n, 4), np.intp)
    np.floor_divide(hi, 10000, out=groups[:, 0])
    np.floor_divide(lo, 10000, out=groups[:, 2])
    groups[:, 1] = hi - groups[:, 0] * 10000
    groups[:, 3] = lo - groups[:, 2] * 10000
    digits = np.empty((n, 17), np.uint16)
    digits[:, 0] = lead
    digits[:, 0] += ord("0")
    digits[:, 1:] = digits4[groups].view(np.uint16)
    zeros = zeros4[groups]
    last = np.where(groups[:, 3] > 0, 16 - zeros[:, 3],  # the last non-zero digit
                    np.where(groups[:, 2] > 0, 12 - zeros[:, 2],
                             np.where(groups[:, 1] > 0, 8 - zeros[:, 1],
                                      np.where(groups[:, 0] > 0, 4 - zeros[:, 0], 0))))

    # fixed notation keeps its integer digits and puts the point after digit
    # X; the exponent form puts it after the first; each only before a digit
    fixed = (exp10 >= -4) & (exp10 < 17)
    point = np.where(fixed, exp10, 0)
    np.multiply(digits, slots <= np.maximum(last, point)[:, None], out=digits)
    at = np.flatnonzero((last > point) & (~fixed | (exp10 >= 0)))
    digits.reshape(-1)[at * 17 + point[at]] |= np.uint16(ord(".") << 8)

    sep_bytes = np.frombuffer(sep.encode(), np.uint8)
    rows = np.empty((n, _WIDTH + len(sep_bytes)), np.uint8)
    cls = exp10.astype(np.intp) - _X_LOW
    rows[:, : _DIGIT_COLS.start] = heads[2 * cls + (x < 0)].view(np.uint8).reshape(n, -1)
    rows[:, _DIGIT_COLS] = digits.view(np.uint8)  # little-endian, as every x87 machine
    rows[:, _DIGIT_COLS.stop : _WIDTH] = tails[cls].view(np.uint8).reshape(n, -1)
    rows[:, _WIDTH:] = sep_bytes
    rows[-1, _WIDTH:] = 0
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array(_percent_g(x[bad].tolist()), f"S{_FALLBACK_WIDTH}")
        rows[bad, :_FALLBACK_WIDTH] = text.view(np.uint8).reshape(bad.size, _FALLBACK_WIDTH)
        rows[bad, _FALLBACK_WIDTH:_WIDTH] = 0
    return rows.tobytes().translate(None, b"\0").decode()


def _kernel_pays(chunk, sep: str) -> bool:
    """Whether _format_chunk runs on chunk: an x87 long double (design._EXTENDED),
    no NUL in sep, at least _KERNEL_MIN values, and at least 3/4 of a sample
    of 64 inside the certified range, since a value outside it costs the
    kernel's work on top of its "%.17g"."""
    if not design._EXTENDED or len(chunk) < _KERNEL_MIN or "\0" in sep:
        return False
    sample = chunk[:: len(chunk) // 64]
    return 4 * sum(_LOW <= abs(v) < _HIGH for v in sample) >= 3 * len(sample)


def format_floats(values, sep: str):
    """Finite floats (a list, tuple or 1-d float64 array) rendered as format_float
    does and joined by sep.

    The text comes in pieces of at most _CHUNK items, each made as it is
    consumed; "".join gives it whole.  A chunk takes the certified kernel
    (_format_chunk) where it pays (_kernel_pays), else one "%.17g" % chunk;
    the bytes are the same.
    """
    for i in range(0, len(values), _CHUNK):
        chunk = values[i : i + _CHUNK]
        if i:
            yield sep
        if _kernel_pays(chunk, sep):
            yield _format_chunk(np.asarray(chunk, dtype=np.float64), sep)
        else:
            chunk = tuple(chunk.tolist() if isinstance(chunk, np.ndarray) else chunk)
            # "%.17g" % x renders a finite float exactly as format_float does
            yield sep.join(["%.17g"] * len(chunk)) % chunk


def _finite_floats(items) -> bool:
    """Non-empty, every item exactly a float (not a subclass) and finite; for an
    array, 1-d float64 and finite."""
    if isinstance(items, np.ndarray):
        return _float_vector(items) and items.size > 0 and bool(np.isfinite(items).all())
    return bool(items) and all(type(v) is float for v in items) and all(map(math.isfinite, items))


def _float_vector(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64


def _scalar(obj) -> str | None:
    """The JSON text of None, a bool, an int, a float or a str; None for anything else."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return format_float(obj)
        return json.dumps(format_float(obj))  # "inf" as a JSON string
    if isinstance(obj, str):
        return json.dumps(obj)
    return None


@functools.cache
def _record_layout(cls, level: int) -> tuple:
    """A dataclass's field names and a %-template, one %s per field, of the text its
    fields would give as a dict at level: the key text is built once per class."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    pad_in = _PAD * (level + 1)
    keys = ",\n".join(pad_in + json.dumps(name) + ": %s" for name in names)
    return names, ("{\n" + keys + "\n" + _PAD * level + "}") if names else "{}"


def _emit(obj, level: int):
    """The JSON text of obj in pieces; "".join gives it whole."""
    text = _scalar(obj)
    if text is not None:
        yield text
        return
    pad = _PAD * level
    pad_in = _PAD * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{\n"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            yield sep + pad_in + json.dumps(k) + ": "
            yield from _emit(v, level + 1)
            sep = ",\n"
        yield "\n" + pad + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)) and _finite_floats(obj):
        # the generic branch's bytes, without an _emit call per item
        yield "[\n" + pad_in
        yield from format_floats(obj, ",\n" + pad_in)
        yield "\n" + pad + "]"
    elif _float_vector(obj):  # empty, or holding a non-finite value
        yield from _emit(obj.tolist(), level)
    elif isinstance(obj, (list, tuple, Iterator)):
        sep = "[\n"
        for item in obj:
            yield sep + pad_in
            sep = ",\n"
            if dataclasses.is_dataclass(item) and not isinstance(item, type):
                # a record: the bytes of the dict of its fields (no scalar's text is empty)
                names, template = _record_layout(type(item), level + 1)
                values = (getattr(item, name) for name in names)
                yield template % tuple(_scalar(v) or "".join(_emit(v, level + 2))
                                       for v in values)
            else:
                yield from _emit(item, level + 1)
        yield "[]" if sep == "[\n" else "\n" + pad + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_pieces(obj):
    """Deterministic JSON text of obj (trailing newline included), rendered as it is
    consumed; "".join gives it whole.

    An array may be a list, a tuple, a 1-d float64 array or an iterator, drawn
    one item at a time.  An array item that is a dataclass instance, such as a
    trial record, renders as the dict of its fields would.
    """
    yield from _emit(obj, 0)
    yield "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, int):
        return str(v)
    s = str(v)
    if any(c in s for c in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_line(cells) -> str:
    return ",".join(_csv_cell(c) for c in cells) + "\n"


def write_text(path, text) -> None:
    """Write text, a str or an iterable of str pieces drawn one at a time, to path
    with '\n' line endings regardless of platform.

    The text goes to a temporary sibling that replaces path only once all of it
    is written, so an error or interrupt while it is rendered or written leaves
    an earlier file at path intact, and a symlink at path is replaced, not
    written through.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
