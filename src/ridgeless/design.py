"""Gaussian design sampling and the minimum-norm interpolating fit.

Designs have i.i.d. centered Gaussian rows with covariance given by a
CovarianceModel.  Sampling is reproducible by construction: the
generator for trial t of a seeded run is a pure function of (seed, t)
(numpy SeedSequence with spawn_key), so results do not depend on
execution order or worker count.

The fit is the minimum Euclidean-norm solution of X beta = Y, computed
from a thin SVD of the n x p design; singular values below rel_tol
times the largest are treated as zero.  A design computes its thin SVD
once, on first use, so the fit and design-dependent noise share it, as
do repeated fits of one design to different targets.  The
high-dimensional regime p >= n is enforced on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectra import CovarianceModel

__all__ = [
    "DesignMatrix",
    "FitResult",
    "trial_rng",
    "sample_design",
    "min_norm_fit",
    "smallest_singular_value",
    "prediction_error",
]


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


@dataclass(frozen=True, eq=False)
class FitResult:
    """Minimum-norm least-squares fit of X beta = Y.

    sigma_min is the smallest singular value retained by the rank cutoff;
    rank < n means exact interpolation was impossible and residual_norm
    reports the remaining gap.
    """

    beta_hat: np.ndarray
    rank: int
    sigma_min: float
    residual_norm: float


def min_norm_fit(design: DesignMatrix, targets, rel_tol: float = 1e-10) -> FitResult:
    """Minimum Euclidean-norm solution of X beta = Y via the design's thin SVD.

    Singular values below rel_tol * sigma_max are treated as zero.  The
    decomposition is thin (cost ~ n^2 p), so p-dimensional objects are
    never formed.
    """
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol!r}")
    y = np.asarray(targets, dtype=float)
    if y.shape != (design.n,):
        raise ValueError(f"targets must have shape ({design.n},), got {y.shape}")
    u, sv, vt = design.svd()
    cut = rel_tol * float(sv[0])
    keep = sv > cut
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        beta = np.zeros(design.p)
        sigma_min = 0.0
    else:
        sk = sv[:rank]
        beta = vt[:rank].T @ ((u[:, :rank].T @ y) / sk)
        sigma_min = float(sk[-1])
    residual = float(np.linalg.norm(design.entries @ beta - y))
    return FitResult(beta_hat=beta, rank=rank, sigma_min=sigma_min, residual_norm=residual)


def smallest_singular_value(design: DesignMatrix) -> float:
    """Smallest singular value of the design (the n-th when n <= p)."""
    sv = np.linalg.svd(design.entries, compute_uv=False)
    return float(sv[-1])


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
