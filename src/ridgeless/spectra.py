"""Covariance spectra: construction, validation, and tail sums.

A spectrum is the non-increasing sequence of covariance eigenvalues
lambda_1 >= ... >= lambda_p >= 0.  Indices are 1-based throughout the
package, matching the usual eigenvalue numbering; conversion to 0-based
array positions happens internally.

Tail sums r_k = sum_{i=k}^p lambda_i are precomputed once per spectrum
with compensated (Kahan-Babuska-Neumaier) summation, accumulated from
the smallest entries upward, so large spectra with a tiny eigenvalue
floor do not lose the floor mass to rounding.  The sums are computed
with whole-array numpy operations that give every tail the same bits as
the plain scalar Neumaier loop (tests/oracles.py keeps it as the
reference): np.cumsum (add.accumulate) adds a 1-d array strictly in
order, so the running sum and the running compensation are the same
sequences of IEEE additions, and each step's compensation term is the
same elementwise expression.

Every module imports this one, so it also holds the package's one rule
for each kind of input value: a count, index or seed (_check_count), a
magnitude (_check_number) and a number array (_float_array).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Spectrum",
    "CovarianceModel",
    "LoadedSpectrum",
    "make_flat_spectrum",
    "make_exp_floor_spectrum",
    "make_three_level_spectrum",
    "parse_numbers",
    "parse_spectrum",
    "load_spectrum",
]

# Eigenvalues at or below this fraction of the largest count as zero in a rank.
_RANK_TOL = 1e-12

_SEED_MAX = 2**64 - 1  # a seed is an unsigned 64-bit integer

# The wording of the usual count ranges, by (least, most).
_RANGES = {(1, math.inf): "a positive integer", (0, math.inf): "a non-negative integer",
           (0, _SEED_MAX): "an unsigned 64-bit integer"}


def _check_count(name: str, value, least: int = 1, most: float = math.inf) -> None:
    """A count, index or seed is an int from `least` to `most`; a bool is an int
    instance, but no count."""
    if not (type(value) is int and least <= value <= most):
        bound = _RANGES.get((least, most)) or (
            f"an integer >= {least}" if most == math.inf else f"an integer in [{least}, {most}]")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def _check_number(name: str, value, zero: bool = False) -> None:
    """A magnitude is a real number above 0, or at least 0 when `zero` is set, and finite
    as a float (an int beyond the float range is not); a bool is a Real instance, but no
    magnitude."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (0 <= value if zero else 0 < value) and value <= sys.float_info.max):
        sign = "non-negative" if zero else "positive"
        raise ValueError(f"{name} must be a {sign} finite number, got {value!r}")


def _brief(value) -> str:
    """repr(value), or its kind for a list or an object, whose repr could be huge."""
    return {list: "a list", dict: "an object"}.get(type(value)) or repr(value)


def _check_entries(name: str, value, depth: int) -> None:
    """Refuse the first entry, depth lists or tuples into value, that is no number (a float,
    or a real within the float range, never a bool); a numpy int or float array passes whole."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if depth == 0:
        if not (isinstance(value, (float, np.floating)) or isinstance(value, numbers.Real)
                and not isinstance(value, bool) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{name}: expected a number, got {_brief(value)}")
    elif not isinstance(value, (list, tuple)):
        raise ValueError(f"{name}: expected a list of numbers, got {_brief(value)}")
    elif depth > 1 or not set(map(type, value)) <= {float}:  # a list of floats passes at once
        for i, entry in enumerate(value):
            _check_entries(f"{name}[{i}]", entry, depth - 1)


def _float_array(name: str, value, ndim: int = 1) -> np.ndarray:
    """The one conversion of outside input to a float array: entries as _check_entries
    takes them, ndim axes, non-empty and finite; a read-only float64 copy."""
    _check_entries(name, value, ndim)
    a = np.array(value, dtype=float)  # rows of unequal length raise numpy's ValueError
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-d array")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    a.setflags(write=False)
    return a


def _check_rank(spectrum: Spectrum, n: int) -> None:
    """Interpolation needs a covariance of rank at least n."""
    if spectrum.rank() < n:
        raise ValueError(f"covariance rank {spectrum.rank()} is below the sample count n={n}")


@np.errstate(over="ignore", invalid="ignore")  # silent inf/nan, as with Python floats
def _suffix_sums(vals: np.ndarray) -> np.ndarray:
    """Compensated suffix sums: out[k] = sum of vals[k-1:] for k = 1..p.

    out has length p + 2 with out[p + 1] = 0 (the empty tail) and
    out[0] = nan (index 0 is never a valid rank).
    """
    p = vals.size
    x = vals[::-1]  # smallest first
    # Running sum s[i] = s[i - 1] + x[i - 1] from s[0] = 0.0, as a scalar loop
    # starting at 0.0 adds (so a leading -0.0 sums to +0.0, as it does there).
    s = np.empty(p + 1)
    s[0] = 0.0
    s[1:] = x
    np.cumsum(s, out=s)
    prev, t = s[:-1], s[1:]
    # Each step's rounding error, (prev - t) + x when |prev| >= |x| and
    # (x - t) + prev otherwise, accumulated from c[0] = 0.0 the same way.
    c = np.empty(p + 1)
    c[0] = 0.0
    err = c[1:]
    other = np.abs(x)
    smaller = np.abs(prev) < other
    np.subtract(prev, t, out=err)
    err += x
    np.subtract(x, t, out=other)
    other += prev
    np.copyto(err, other, where=smaller)
    del other, smaller  # freed before `out` is allocated: a lower peak at large p
    np.cumsum(c, out=c)
    out = np.empty(p + 2)
    out[0] = np.nan
    out[p + 1] = 0.0
    np.add(t, err, out=out[p:0:-1])
    return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Non-increasing sequence of eigenvalues lambda_1 >= ... >= lambda_p >= 0."""

    values: np.ndarray
    _tails: np.ndarray = field(init=False, repr=False)
    _rank: int = field(init=False, repr=False)

    def __post_init__(self):
        vals = _float_array("spectrum values", self.values)
        if np.any(vals < 0):
            raise ValueError("spectrum values must be non-negative")
        if np.any(np.diff(vals) > 0):
            raise ValueError("spectrum values must be non-increasing")
        if vals[0] <= 0:
            raise ValueError("spectrum must contain at least one positive value")
        tails = _suffix_sums(vals)
        if not np.isfinite(tails[1]):
            raise ValueError("spectrum values must have a finite sum")
        tails.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_tails", tails)
        object.__setattr__(self, "_rank", int(np.count_nonzero(vals > _RANK_TOL * vals[0])))

    @property
    def p(self) -> int:
        return int(self.values.size)

    @property
    def trace(self) -> float:
        return float(self._tails[1])

    def tail_sum(self, k: int) -> float:
        """r_k = sum_{i=k}^p lambda_i for 1 <= k <= p; r_{p+1} = 0 is also allowed."""
        _check_count("tail rank", k, 1, self.p + 1)
        return float(self._tails[k])

    def rank(self) -> int:
        """Number of eigenvalues above _RANK_TOL times the largest, counted once, at build."""
        return self._rank


def make_flat_spectrum(p: int, value: float = 1.0) -> Spectrum:
    """p copies of a single positive eigenvalue (identity covariance when value = 1)."""
    _check_count("p", p)
    _check_number("value", value)
    return Spectrum(np.full(p, float(value)))


@np.errstate(over="ignore")  # exp(-k/tau) is 0 once k/tau overflows
def make_exp_floor_spectrum(p: int, tau: float, eps: float) -> Spectrum:
    """Exponential decay over a positive floor: lambda_k = exp(-k/tau) + eps, k = 1..p."""
    _check_count("p", p)
    _check_number("tau", tau)
    _check_number("eps", eps)
    k = np.arange(1, p + 1, dtype=float)
    return Spectrum(np.exp(-k / tau) + eps)


def make_three_level_spectrum(
    k1: int, c_times_n: int, p: int, eps1: float, eps2: float
) -> Spectrum:
    """Three plateaus: 1 for i <= k1-1, eps1 for k1 <= i <= k2-1, eps2 for i >= k2.

    The middle plateau has width c_times_n + 1, i.e. k2 = k1 + c_times_n + 1.
    Requires 1 >= eps1 >= eps2 > 0 and p >= k2.
    """
    _check_count("k1", k1)
    _check_count("c_times_n", c_times_n)
    _check_number("eps1", eps1)
    _check_number("eps2", eps2)
    if eps2 > eps1:
        raise ValueError(f"levels must be non-increasing: eps2={eps2!r} > eps1={eps1!r}")
    if eps1 > 1:
        raise ValueError(f"levels must be non-increasing: eps1={eps1!r} > 1")
    k2 = k1 + c_times_n + 1
    _check_count("p", p, k2)
    vals = np.empty(p)
    vals[: k1 - 1] = 1.0
    vals[k1 - 1 : k2 - 1] = float(eps1)
    vals[k2 - 1 :] = float(eps2)
    return Spectrum(vals)


@dataclass(frozen=True)
class LoadedSpectrum:
    """Parse result: the spectrum plus a flag saying whether input was reordered."""

    spectrum: Spectrum
    reordered: bool


def parse_numbers(text: str, what: str) -> np.ndarray:
    """Whitespace- or comma-separated numbers in input order; '#' starts a comment."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.replace(",", " ").split()  # line breaks are whitespace too
    if not tokens:
        raise ValueError(f"empty {what} input")
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        for token in tokens:  # name the first bad entry
            try:
                float(token)
            except ValueError:
                raise ValueError(f"cannot parse {what} entry {token!r}") from None
        raise


def parse_spectrum(text: str) -> LoadedSpectrum:
    """Parse a newline- or comma-separated list of non-negative eigenvalues.

    Lines starting with '#' (or trailing '#' comments) are ignored.  Input
    that is not already non-increasing is sorted, with `reordered` set so
    callers can warn: eigenvalue files from external tools are often
    ascending.  Non-finite or negative entries are rejected by Spectrum.
    """
    arr = parse_numbers(text, "spectrum")
    ordered = np.sort(arr)[::-1]
    reordered = bool(np.any(arr != ordered))
    return LoadedSpectrum(Spectrum(ordered), reordered)


def load_spectrum(path) -> LoadedSpectrum:
    """Read a spectrum from a UTF-8 text file, with or without a byte-order mark
    (see parse_spectrum for the format)."""
    return parse_spectrum(Path(path).read_text(encoding="utf-8-sig"))


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """The diagonal covariance diag(spectrum), the only one a run needs: with Gaussian
    rows, a run at Q diag(spectrum) Q^T and beta* is the run here at Q^T beta*."""

    spectrum: Spectrum
