"""Gaussian design sampling and the minimum-norm interpolating fit.

Designs have i.i.d. centered Gaussian rows with covariance given by a
CovarianceModel.  Sampling is reproducible by construction: the
generator for trial t of a seeded run is a pure function of (seed, t)
(numpy SeedSequence with spawn_key), so results do not depend on
execution order or worker count.

The fit is the minimum Euclidean-norm solution of X beta = Y, from the
eigenpairs of the Gram matrix X X^T on a well-conditioned design at full
rank, else from a thin SVD (singular values below rel_tol times the
largest count as zero).  A design computes each factorization once, so
the fit, sigma_min and design-dependent noise share it, as do repeated
fits of one design to different targets.  The high-dimensional regime
p >= n is enforced on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import CovarianceModel

__all__ = [
    "DesignMatrix",
    "trial_rng",
    "sample_design",
    "min_norm_fit",
    "prediction_error",
]

# Least w_min / w_max of X X^T that keeps the Gram path (condition number
# 1e3, where the fit's identity residual stays near 1e-10); below, the SVD.
_GRAM_MIN_RATIO = 1e-6


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent generator for one trial, a pure function of (seed, trial_index).

    Derivation: SeedSequence(entropy=seed, spawn_key=(trial_index,)) feeding
    PCG64.  Identical inputs give bit-identical streams on every platform,
    thread count, and execution order.
    """
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not (isinstance(trial_index, int) and trial_index >= 0):
        raise ValueError(f"trial_index must be a non-negative integer, got {trial_index!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """n x p design with one observation per row."""

    entries: np.ndarray
    _svd: tuple | None = field(default=None, init=False, repr=False)
    _gram: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"entries must be a 2-d array, got shape {a.shape}")
        n, p = a.shape
        if n < 1 or p < 1:
            raise ValueError(f"design must be non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("design entries must be finite")
        if p < n:
            raise ValueError(f"low-dimensional design (p={p} < n={n}) is not supported")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

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


def sample_design(cov: CovarianceModel, n: int, rng: np.random.Generator) -> DesignMatrix:
    """n i.i.d. Gaussian rows with covariance cov.

    Drawn as G diag(sqrt(lambda)) (then rotated into the eigenbasis when
    one is supplied) with G standard Gaussian.  The covariance must have
    rank at least n so that an interpolating fit exists almost surely.
    """
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    rank = cov.spectrum.rank()
    if rank < n:
        raise ValueError(
            f"covariance rank {rank} is below the sample count n={n}: "
            "interpolation is impossible"
        )
    g = rng.standard_normal((n, cov.p))
    x = g * np.sqrt(cov.spectrum.values)
    if cov.rotation is not None:
        x = x @ cov.rotation.T
    return DesignMatrix(x)


def min_norm_fit(design: DesignMatrix, targets, rel_tol: float = 1e-10) -> np.ndarray:
    """Minimum Euclidean-norm least-squares solution beta_hat of X beta = Y, at cost ~ n^2 p.

    beta = X^T V diag(1/w) V^T Y from the Gram eigenpairs (DesignMatrix.gram)
    when they exist and sqrt(w_min / w_max) > rel_tol; else from the thin
    SVD, with singular values below rel_tol * sigma_max treated as zero.
    """
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    y = np.asarray(targets, dtype=float)
    if y.shape != (design.n,):
        raise ValueError(f"targets must have shape ({design.n},), got {y.shape}")
    g = design.gram()
    if g and math.sqrt(g[0][0] / g[0][-1]) > rel_tol:
        w, v = g
        return design.entries.T @ (v @ ((v.T @ y) / w))
    u, sv, vt = design.svd()
    rank = int(np.count_nonzero(sv > rel_tol * float(sv[0])))
    return vt[:rank].T @ ((u[:, :rank].T @ y) / sv[:rank])  # zeros at rank 0


def prediction_error(cov: CovarianceModel, beta_hat, beta_star) -> float:
    """Squared prediction gap Delta^T Sigma Delta at a fresh Gaussian point.

    Evaluated in the eigenbasis as sum_i lambda_i d_i^2, a sum of
    non-negative terms, so the result is non-negative to rounding.
    """
    d = _delta(cov.p, beta_hat, beta_star)
    if cov.rotation is not None:
        d = cov.rotation.T @ d
    return math.fsum((cov.spectrum.values * d * d).tolist())


def _delta(p: int, beta_hat, beta_star) -> np.ndarray:
    a = np.asarray(beta_hat, dtype=float)
    b = np.asarray(beta_star, dtype=float)
    if a.shape != (p,) or b.shape != (p,):
        raise ValueError(
            f"coefficient vectors must have shape ({p},), got {a.shape} and {b.shape}"
        )
    return a - b
