"""Covariance spectra: construction, validation, and tail sums.

A spectrum is the non-increasing sequence of covariance eigenvalues
lambda_1 >= ... >= lambda_p >= 0.  Indices are 1-based throughout the
package, matching the usual eigenvalue numbering; conversion to 0-based
array positions happens internally.

Tail sums r_k = sum_{i=k}^p lambda_i are precomputed once per spectrum
with compensated (Kahan-Babuska-Neumaier) summation, accumulated from
the smallest entries upward, so large spectra with a tiny eigenvalue
floor do not lose the floor mass to rounding.
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
    "read_vector",
    "parse_spectrum",
    "load_spectrum",
]


def _suffix_sums(vals: np.ndarray) -> np.ndarray:
    """Compensated suffix sums: out[k] = sum of vals[k-1:] for k = 1..p.

    out has length p + 2 with out[p + 1] = 0 (the empty tail) and
    out[0] = nan (index 0 is never a valid rank).
    """
    p = vals.size
    out = np.empty(p + 2)
    out[0] = np.nan
    out[p + 1] = 0.0
    s = 0.0
    c = 0.0  # running compensation
    for k in range(p, 0, -1):
        x = float(vals[k - 1])
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out[k] = s + c
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
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_tails", _suffix_sums(vals))

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

    def rank(self, rel_tol: float = 1e-12) -> int:
        """Number of eigenvalues above rel_tol times the largest."""
        return int(np.count_nonzero(self.values > rel_tol * float(self.values[0])))


def make_flat_spectrum(p: int, value: float = 1.0) -> Spectrum:
    """p copies of a single positive eigenvalue (identity covariance when value = 1)."""
    if not (isinstance(p, int) and p >= 1):
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if not value > 0:
        raise ValueError(f"value must be positive, got {value!r}")
    return Spectrum(np.full(p, float(value)))


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
    entries = []
    for raw in text.splitlines():
        for token in raw.split("#", 1)[0].replace(",", " ").split():
            try:
                entries.append(float(token))
            except ValueError:
                raise ValueError(f"cannot parse {what} entry {token!r}") from None
    if not entries:
        raise ValueError(f"empty {what} input")
    return np.array(entries)


def read_vector(source) -> np.ndarray:
    """An inline sequence of numbers, or the path of a text file of them."""
    if isinstance(source, str):
        return parse_numbers(Path(source).read_text(encoding="utf-8"), "vector")
    return np.asarray(source, dtype=float)


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
    """Read a spectrum from a UTF-8 text file (see parse_spectrum for the format)."""
    return parse_spectrum(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Covariance given by its spectrum and an optional eigenbasis.

    Without a rotation the covariance is diagonal with the spectrum on the
    diagonal; with one it is Q diag(spectrum) Q^T.  Q must be orthogonal to
    within 1e-10 (max absolute entry of Q^T Q - I).
    """

    spectrum: Spectrum
    rotation: np.ndarray | None = None

    def __post_init__(self):
        if self.rotation is not None:
            q = np.asarray(self.rotation, dtype=float)
            p = self.spectrum.p
            if q.shape != (p, p):
                raise ValueError(f"rotation must be {p}x{p}, got {q.shape}")
            deviation = float(np.max(np.abs(q.T @ q - np.eye(p))))
            if deviation > 1e-10:
                raise ValueError(
                    f"rotation is not orthogonal (max |Q^T Q - I| = {deviation:.3e})"
                )
            q = q.copy()
            q.setflags(write=False)
            object.__setattr__(self, "rotation", q)

    @property
    def p(self) -> int:
        return self.spectrum.p

    def matrix(self) -> np.ndarray:
        """Dense covariance matrix; for oracle comparisons, not the hot path."""
        lam = self.spectrum.values
        if self.rotation is None:
            return np.diag(lam)
        return (self.rotation * lam) @ self.rotation.T
