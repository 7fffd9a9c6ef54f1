"""Deterministic JSON and CSV emitters.

The stdlib json module gives no control over float formatting, so this
module renders output itself: floats with 17 significant digits (enough
to round-trip float64 exactly), non-finite floats as the strings "inf",
"-inf", "nan", dict keys in insertion order, "\n" line endings, and no
timestamps.  Identical inputs therefore produce byte-identical files,
which the determinism checks rely on.
"""

from __future__ import annotations

import json
import math

__all__ = ["format_float", "format_floats", "to_json", "csv_line", "write_text"]


def format_float(x: float) -> str:
    """17-significant-digit rendering; 'inf'/'-inf'/'nan' for non-finite."""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


# Items per piece of format_floats, so that a long list never holds all its
# formatted items at once.
_CHUNK = 65536


def format_floats(values, sep: str) -> list:
    """Finite floats rendered as format_float does and joined by sep.

    The text comes in pieces of at most _CHUNK items; "".join gives it whole.
    """
    pieces = []
    for i in range(0, len(values), _CHUNK):
        chunk = tuple(values[i : i + _CHUNK])
        if i:
            pieces.append(sep)
        # "%.17g" % x renders a finite float exactly as format_float does
        pieces.append(sep.join(["%.17g"] * len(chunk)) % chunk)
    return pieces


def _finite_floats(items) -> bool:
    """Non-empty, every item exactly a float (not a subclass) and finite."""
    return bool(items) and all(type(v) is float for v in items) and all(map(math.isfinite, items))


def _emit(obj, parts: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            parts.append(format_float(obj))
        else:
            parts.append(json.dumps(format_float(obj)))  # "inf" as a JSON string
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            parts.append(pad_in + json.dumps(k) + ": ")
            _emit(v, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)) and _finite_floats(obj):
        # the generic branch's bytes, without an _emit call per item
        parts.append("[\n" + pad_in)
        parts.extend(format_floats(obj, ",\n" + pad_in))
        parts.append("\n" + pad + "]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad_in)
            _emit(v, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj, indent: int = 2) -> str:
    """Deterministic JSON text (trailing newline included)."""
    parts: list = []
    _emit(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


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


def write_text(path, text: str) -> None:
    """Write with '\n' line endings regardless of platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
