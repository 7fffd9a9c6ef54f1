"""Gaussian design sampling and the minimum-norm interpolating fit.

Designs have i.i.d. centered Gaussian rows with the diagonal covariance
diag(spectrum) of a Spectrum.  Sampling is reproducible by construction: the
generator for trial t of a seeded run is a pure function of (seed, t)
(numpy SeedSequence with spawn_key), so results do not depend on
execution order or worker count.

The fit is the minimum Euclidean-norm solution of X beta = Y, from the
eigenpairs of the Gram matrix X X^T on a well-conditioned design at full
rank, else from a thin SVD (singular values below rel_tol times the
largest count as zero).  A design computes each factorization once, so
the fit, sigma_min and design-dependent noise share it.  A (k, n) stack
of targets is fitted in one pass, each product taken as k matrix-vector
products (never one matrix-matrix product, which rounds differently), so
every row has the bits of its own fit.  The high-dimensional regime
p >= n is enforced on construction; sample_design builds its designs in
place and hands them over without a copy or a finiteness scan.

The prediction error is the correctly rounded sum of its non-negative
terms, the bits of math.fsum, for each row of a stack: an
extended-precision (x87 long double) sum in blocks is returned when its
error bound certifies the rounding, else math.fsum decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import _SEED_MAX, Spectrum, _check_count, _check_rank, _float_array

__all__ = [
    "DesignMatrix",
    "trial_rng",
    "sample_design",
    "min_norm_fit",
]

# Least w_min / w_max of X X^T that keeps the Gram path (condition number
# 1e3, where the fit's identity residual stays near 1e-10); below, the SVD.
_GRAM_MIN_RATIO = 1e-6

# The certified sum needs the 64-bit significand of the x87 long double, in
# its arithmetic too (1 + 2^-63 rounds to 1 at a narrower precision).
_EXTENDED = bool(np.finfo(np.longdouble).nmant == 63
                 and np.longdouble(1) + np.longdouble(2.0**-63) != 1)
# Its unit roundoff 2^-64, 1 % above so that the bound h u s also covers
# gamma_h / (1 - gamma_h) and the rounding of the bound's own product.
_INFLATED_U = 2.0**-64 * 1.01


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, a pure function of (seed, trial_index).

    Derivation: SeedSequence(entropy=seed, spawn_key=(trial_index,)) feeding
    PCG64.  Identical inputs give bit-identical streams on every platform,
    thread count, and execution order.
    """
    _check_count("seed", seed, 0, _SEED_MAX)
    _check_count("trial_index", trial_index, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x p design with one observation per row."""

    entries: np.ndarray
    _svd: tuple | None = field(default=None, init=False, repr=False)
    _gram: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _float_array("design entries", self.entries, 2))
        if self.p < self.n:
            raise ValueError(f"low-dimensional design (p={self.p} < n={self.n}) is not supported")

    @classmethod
    def _trusted(cls, a: np.ndarray) -> DesignMatrix:
        """Wrap a finite float array of shape (n, p), p >= n, without a copy or a
        scan, and make it read-only; for arrays built here alone."""
        a.setflags(write=False)
        design = object.__new__(cls)
        object.__setattr__(design, "entries", a)
        return design

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    @property
    def p(self) -> int:
        return int(self.entries.shape[1])

    def svd(self) -> tuple:
        """Thin SVD (u, s, vt) of the entries, computed on first use and kept.

        Not a functools.cached_property: on Python < 3.12 its lock is shared
        by every instance, which would serialise designs in a worker pool.
        """
        if self._svd is None:
            factors = tuple(np.linalg.svd(self.entries, full_matrices=False))
            for a in factors:
                a.setflags(write=False)
            object.__setattr__(self, "_svd", factors)
        return self._svd

    def gram(self) -> tuple | None:
        """Ascending eigenpairs (w, V) of X X^T, kept as svd() is; None (use
        svd()) if X X^T overflows, w_min <= 0 or w_min < _GRAM_MIN_RATIO w_max."""
        if self._gram is None:
            factors = ()
            with np.errstate(over="ignore"):
                k = self.entries @ self.entries.T
            if np.isfinite(k).all():
                w, v = np.linalg.eigh(k)
                if 0 < w[0] >= _GRAM_MIN_RATIO * w[-1]:
                    factors = (w, v)
            for a in factors:
                a.setflags(write=False)
            object.__setattr__(self, "_gram", factors)
        return self._gram or None

    def sigma_min(self) -> float:
        """Smallest singular value of the design (the n-th, as n <= p)."""
        g = self.gram()
        return math.sqrt(g[0][0]) if g else float(self.svd()[1][-1])

    def worst_direction(self) -> np.ndarray:
        """Unit left singular vector for sigma_min, signed by the design, not the
        solver: its largest-magnitude entry (the first, on a tie) is positive."""
        g = self.gram()
        u = g[1][:, 0] if g else self.svd()[0][:, -1]
        return u if u[np.argmax(np.abs(u))] > 0 else -u


def sample_design(spectrum: Spectrum, n: int, rng: np.random.Generator) -> DesignMatrix:
    """n i.i.d. Gaussian rows with covariance diag(spectrum).

    Drawn as G diag(sqrt(lambda)) with G standard Gaussian, scaled in
    place.  The spectrum must have rank at least n so that an
    interpolating fit exists almost surely.  The entries need no
    finiteness scan: numpy's Gaussian sampler returns |g| < 14, so every
    entry is at most 14 sqrt(lambda_1) in size, and the spectrum is finite.
    """
    _check_count("n", n)
    _check_rank(spectrum, n)
    x = rng.standard_normal((n, spectrum.p))
    x *= np.sqrt(spectrum.values)
    return DesignMatrix._trusted(x)


def _gemv(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a @ row for each row of a (k, m) stack, as k matrix-vector products: each
    row has the bits of a @ row alone, which one matrix-matrix product would not."""
    return np.matmul(a, rows[:, :, None])[:, :, 0]


def min_norm_fit(design: DesignMatrix, targets, rel_tol: float = 1e-10) -> np.ndarray:
    """Minimum Euclidean-norm least-squares solution beta_hat of X beta = Y, at cost ~ n^2 p.

    Targets of shape (n,) give beta_hat of shape (p,); a (k, n) stack gives
    (k, p), each row with the bits of its own fit.  beta = X^T V diag(1/w)
    V^T Y from the Gram eigenpairs (DesignMatrix.gram) when they exist and
    sqrt(w_min / w_max) > rel_tol; else from the thin SVD, with singular
    values below rel_tol * sigma_max treated as zero.
    """
    if not 0 < rel_tol < 1:  # at 1 or above every singular value is cut
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")
    y = np.asarray(targets, dtype=float)
    if y.shape[-1:] != (design.n,) or y.ndim > 2:
        raise ValueError(f"targets must have shape (n,) or (k, n), n = {design.n}; got {y.shape}")
    c = y.reshape(-1, design.n, 1)  # a stack of columns, as in _gemv
    g = design.gram()
    if g and math.sqrt(g[0][0] / g[0][-1]) > rel_tol:
        w, v = g
        fit = np.matmul(design.entries.T, np.matmul(v, np.matmul(v.T, c) / w[:, None]))
    else:
        u, sv, vt = design.svd()
        rank = int(np.count_nonzero(sv > rel_tol * float(sv[0])))
        fit = np.matmul(vt[:rank].T, np.matmul(u[:, :rank].T, c) / sv[:rank, None])  # 0 at rank 0
    return fit.reshape(*y.shape[:-1], design.p)


def _weighted_square(spectrum: Spectrum, d: np.ndarray) -> list[float]:
    """The squared prediction gap d^T Sigma d at a fresh Gaussian point, for each row d
    of a (k, p) float stack (d = beta_hat - beta*), Sigma = diag(spectrum).

    Evaluated as sum_i (lambda_i d_i) d_i, a sum of non-negative terms,
    correctly rounded: the bits of math.fsum over the terms (see _nonneg_sum).
    """
    t = spectrum.values * d
    t *= d
    return [_nonneg_sum(row) for row in t]


def _nonneg_sum(t: np.ndarray) -> float:
    """math.fsum(t.tolist()) for a non-empty 1-d float array of terms >= 0.

    The terms are summed in long double in b blocks of b (zero-padded), so
    each passes through at most h = 2b additions, and the computed s is
    within h u s (1 + o(1)) of the exact sum (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., sec. 4.2; the terms are
    non-negative, so their absolute sum is the sum).  s is rounded to the
    double m and returned only if that bound keeps the exact sum strictly
    inside the half-gaps to m's neighbours, where rounding to nearest gives
    m whatever the tie rule.  Zero, non-finite, overflowing and near-tie
    sums, and platforms without the x87 long double, take math.fsum
    (Shewchuk's exact summation), which also raises on overflow.  The
    block buffer takes 16 b^2 bytes, below the tolist() of the fallback.
    """
    if _EXTENDED:
        b = math.isqrt(t.size - 1) + 1
        blocks = np.zeros(b * b, np.longdouble)
        blocks[: t.size] = t
        s = blocks.reshape(b, b).sum(axis=1).sum()
        del blocks  # freed before any fallback's tolist()
        m = float(s)
        up = math.nextafter(m, math.inf)
        if m > 0 and up < math.inf:
            bound = s * (2 * b * _INFLATED_U)
            r = s - m  # exact (Sterbenz), as is each half-gap in long double
            if (bound < np.longdouble(up - m) / 2 - r
                    and bound < np.longdouble(m - math.nextafter(m, 0.0)) / 2 + r):
                return m
    return math.fsum(t.tolist())

