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
"""

from __future__ import annotations

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

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("spectrum must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum values must be finite")
        if np.any(vals < 0):
            raise ValueError("spectrum values must be non-negative")
        if np.any(np.diff(vals) > 0):
            raise ValueError("spectrum values must be non-increasing")
        if vals[0] <= 0:
            raise ValueError("spectrum must contain at least one positive value")
        vals = vals.copy()
        vals.setflags(write=False)
        tails = _suffix_sums(vals)
        if not np.isfinite(tails[1]):
            raise ValueError("spectrum values must have a finite sum")
        tails.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_tails", tails)

    @property
    def p(self) -> int:
        return int(self.values.size)

    @property
    def trace(self) -> float:
        return float(self._tails[1])

    def tail_sum(self, k: int) -> float:
        """r_k = sum_{i=k}^p lambda_i for 1 <= k <= p; r_{p+1} = 0 is also allowed."""
        if not 1 <= k <= self.p + 1:
            raise ValueError(f"tail rank must be in [1, {self.p + 1}], got {k}")
        return float(self._tails[k])

    def rank(self) -> int:
        """Number of eigenvalues above _RANK_TOL times the largest."""
        return int(np.count_nonzero(self.values > _RANK_TOL * float(self.values[0])))


def make_flat_spectrum(p: int, value: float = 1.0) -> Spectrum:
    """p copies of a single positive eigenvalue (identity covariance when value = 1)."""
    if not (isinstance(p, int) and p >= 1):
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if not value > 0:
        raise ValueError(f"value must be positive, got {value!r}")
    return Spectrum(np.full(p, float(value)))


@np.errstate(over="ignore")  # exp(-k/tau) is 0 once k/tau overflows
def make_exp_floor_spectrum(p: int, tau: float, eps: float) -> Spectrum:
    """Exponential decay over a positive floor: lambda_k = exp(-k/tau) + eps, k = 1..p."""
    if not (isinstance(p, int) and p >= 1):
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau!r}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    k = np.arange(1, p + 1, dtype=float)
    return Spectrum(np.exp(-k / tau) + eps)


def make_three_level_spectrum(
    k1: int, c_times_n: int, p: int, eps1: float, eps2: float
) -> Spectrum:
    """Three plateaus: 1 for i <= k1-1, eps1 for k1 <= i <= k2-1, eps2 for i >= k2.

    The middle plateau has width c_times_n + 1, i.e. k2 = k1 + c_times_n + 1.
    Requires 1 >= eps1 >= eps2 > 0 and p >= k2.
    """
    if not (isinstance(k1, int) and k1 >= 1):
        raise ValueError(f"k1 must be a positive integer, got {k1!r}")
    if not (isinstance(c_times_n, int) and c_times_n >= 1):
        raise ValueError(f"c_times_n must be a positive integer, got {c_times_n!r}")
    if not eps2 > 0:
        raise ValueError(f"eps2 must be positive, got {eps2!r}")
    if eps2 > eps1:
        raise ValueError(f"levels must be non-increasing: eps2={eps2!r} > eps1={eps1!r}")
    if eps1 > 1:
        raise ValueError(f"levels must be non-increasing: eps1={eps1!r} > 1")
    k2 = k1 + c_times_n + 1
    if not (isinstance(p, int) and p >= k2):
        raise ValueError(f"p must be an integer >= k1 + c_times_n + 1 = {k2}, got {p!r}")
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
