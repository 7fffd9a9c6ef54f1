"""Deterministic complexity diagnostics for minimum-norm interpolation.

Everything here is a pure function of a covariance spectrum, the sample
count n, the norms of the true coefficient vector and the realized
noise, and a handful of tunable absolute constants:

  - the effective-rank index: the first rank at which the spectral tail
    dominates its leading eigenvalue by a factor c0 * n;
  - the localization radius bounding the estimation error;
  - two complexity radii (upper and lower) balancing truncated spectral
    sums against the sample count and the noise budget;
  - the tail-halving index entering the noise-limited lower bound;
  - squared prediction-error bounds and SNR regime classification.

Infinite results are math.inf in memory; serializers render them as the
string "inf".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .spectra import Spectrum, _check_at_most, _check_count, _check_number

__all__ = [
    "Constants",
    "DiagnosticsReport",
    "InfiniteIndexError",
    "REGIME_HIGH",
    "REGIME_LOW",
    "effective_rank_index",
    "complexity_radius",
    "lower_radius",
    "tail_halving_index",
    "diagnose",
]

REGIME_HIGH = "HighSNR"
REGIME_LOW = "LowSNR"

# Relative slack when testing whether a closed-form candidate lies in its
# segment: a crossing landing exactly on a segment boundary must not be
# lost to rounding.
_SEGMENT_SLACK = 1e-12

# The largest float whose square is finite: x * x overflows exactly when x > _ROOT_MAX.
_ROOT_MAX = math.sqrt(sys.float_info.max)
_SQUARES = " (its square overflows)"


class InfiniteIndexError(ValueError):
    """The effective-rank index is infinite, so what rests on it is undefined."""


@dataclass(frozen=True)
class Constants:
    """Tunable absolute constants entering the diagnostics.

    c0      threshold in the effective-rank index (r_k >= c0 * n * lambda_k)
    eta     slack in the upper complexity radius
    gamma   slack in the lower radius and the tail-halving index
    c3      multiplier on the noise-floor term of the prediction bounds
    c_frac  fraction of n giving the upper-rate tail index cn = floor(c_frac * n)
    """

    c0: float = 10.0
    eta: float = 0.05
    gamma: float = 0.5
    c3: float = 1.0
    c_frac: float = 0.5

    def __post_init__(self):
        for name in ("c0", "eta", "gamma", "c3"):
            _check_number(name, getattr(self, name))
        _check_number("c_frac", self.c_frac, most=1)

    def cn(self, n: int) -> int:
        """Tail index used by the upper rate bound: floor(c_frac * n), minimum 1."""
        return max(1, math.floor(self.c_frac * n))


def _rho(beta_norm: float, xi_norm: float, r_kstar: float) -> float:
    """The localization radius ||beta*|| + 4 ||xi|| / sqrt(r_kstar)."""
    return beta_norm + 4.0 * xi_norm / math.sqrt(r_kstar)


def _r_cn(s: Spectrum, n: int, constants: Constants) -> float:
    """r_cn(s), the tail sum of the upper rate, with cn clamped to p: the tail sum needs a rank."""
    return s.tail_sum(min(constants.cn(n), s.p))


@np.errstate(over="ignore", invalid="ignore")  # silent inf/nan, as with Python floats
def effective_rank_index(s: Spectrum, n: int, c0: float) -> int | float:
    """Smallest 1-based k with r_k(s) >= c0 * n * lambda_k; math.inf when none.

    Once a zero eigenvalue is reached the whole remaining tail is zero
    (the sequence is non-increasing), so the ratio is 0/0 and the scan
    can stop.
    """
    _check_count("n", n)
    _check_number("c0", c0)
    vals = s.values[: np.count_nonzero(s.values)]  # up to the first zero
    hits = s._tails[1 : vals.size + 1] >= (c0 * n) * vals
    k = int(np.argmax(hits))
    return k + 1 if hits[k] else math.inf


def _segment_root(cand: np.ndarray, ends: np.ndarray, pick, what: str) -> float:
    """sqrt of pick (np.min or np.max) of the candidates r^2 inside their segments, cand[j]
    in [ends[j + 1], ends[j]] up to _SEGMENT_SLACK; a NaN candidate never is."""
    ok = cand >= ends[1:] * (1.0 - _SEGMENT_SLACK)
    ok &= cand <= ends[:-1] * (1.0 + _SEGMENT_SLACK)
    best = float(pick(cand[ok])) if ok.any() else math.inf
    if not math.isfinite(best):
        raise ArithmeticError(f"no feasible segment for the {what}")
    return math.sqrt(best)


@np.errstate(over="ignore", invalid="ignore")  # silent inf/nan, as with Python floats
def complexity_radius(s: Spectrum, n: int, eta: float) -> float:
    """Smallest r > 0 with sum_i min(lambda_i, r^2) <= eta * n * r^2; 0 if p <= eta*n.

    Piecewise closed form: on the segment [lambda_{j+1}, lambda_j] of r^2
    (exactly j eigenvalues >= r^2, with lambda_0 = +inf and
    lambda_{p+1} = 0) the constraint reads j r^2 + r_{j+1} <= eta n r^2,
    so the candidate is r^2 = r_{j+1} / (eta n - j), valid only for
    j < eta n.  The result is the smallest accepted candidate.
    """
    _check_count("n", n)
    _check_number("eta", eta)
    en = eta * n
    if s.p <= en:
        return 0.0
    j = np.arange(math.ceil(en))  # every j < eta n, all below p
    ends = np.append(math.inf, s.values[: j.size])
    return _segment_root(s._tails[1 : j.size + 1] / (en - j), ends, np.min, "complexity radius")


@np.errstate(over="ignore", invalid="ignore")  # silent inf/nan, as with Python floats
def lower_radius(s: Spectrum, rho: float, xi_norm: float, gamma: float) -> float:
    """Largest r with sum_i min(lambda_i rho^2, r^2) <= gamma ||xi||^2.

    Returns math.inf when the constraint holds for every r (trace * rho^2
    <= gamma ||xi||^2) and 0.0 when xi_norm == 0 (no positive radius
    satisfies the constraint; the supremum of the empty set is 0 by
    convention).  Same segment structure as complexity_radius with
    mu_i = lambda_i rho^2, taking only positive candidates.
    """
    _check_number("rho", rho)
    _check_number("gamma", gamma)
    _check_number("xi_norm", xi_norm, zero=True)
    if xi_norm == 0.0:
        return 0.0
    budget = gamma * xi_norm * xi_norm
    rho2 = rho * rho
    if s.trace * rho2 <= budget:
        return math.inf
    # candidate on the segment of exactly j eigenvalues above r^2, j = 1..p
    cand = rho2 * s._tails[2:]
    np.subtract(budget, cand, out=cand)
    cand /= np.arange(1, s.p + 1, dtype=float)
    cand[cand <= 0.0] = np.nan
    ends = np.append(s.values, 0.0)  # segment j runs from mu_{j+1} (mu_{p+1} = 0) up to mu_j
    ends *= rho2
    return _segment_root(cand, ends, np.max, "lower radius")


def tail_halving_index(s: Spectrum, k_star: int, gamma: float) -> int:
    """First k >= k_star with r_k <= (gamma/2) r_{k_star}; p + 1 when none."""
    _check_count("k_star", k_star, 1, s.p)
    _check_number("gamma", gamma)
    target = 0.5 * gamma * s.tail_sum(k_star)
    hits = s._tails[k_star : s.p + 1] <= target
    k = int(np.argmax(hits))
    return k_star + k if hits[k] else s.p + 1


@dataclass(frozen=True, kw_only=True)
class DiagnosticsReport:
    """Every deterministic bound ingredient for one (spectrum, n, norms, constants).

    Fields mirror the serialized JSON names exactly.  k_star is math.inf
    when no rank qualifies; the fields that then cannot be computed are
    left at None and `error` explains why.  k_bar = p + 1 means the tail
    never halves at the configured gamma.
    """

    n: int
    p: int
    beta_star_norm: float
    xi_norm: float
    trace: float
    k_star: int | float
    r_kstar: float | None = None
    rho: float | None = None
    r_star: float
    r_bar: float | None = None
    k_bar: int | None = None
    snr: float | None = None
    snr_threshold: float | None = None
    regime: str | None = None
    upper_bound: float | None = None
    lower_bound: float | None = None
    corollary_upper: float | None = None
    corollary_lower: float | None = None
    constants: Constants
    error: str | None = None


def diagnose(
    s: Spectrum,
    n: int,
    beta_star_norm: float,
    xi_norm: float,
    constants: Constants = Constants(),
) -> DiagnosticsReport:
    """Full diagnostics report, computed in dependency order.

    effective-rank index -> its tail sum -> localization radius
    rho = ||beta*|| + 4 ||xi|| / sqrt(r_kstar) -> the two complexity radii
    and the tail-halving index -> bounds -> regime:

      upper_bound     = max((rho * r_star)^2, c3^2 ||xi||^2 / n)
      lower_bound     = min(r_bar^2,          c3^2 ||xi||^2 / n)  (the noise floor when r_bar = inf)
      corollary_upper = max(||beta*||^2 r_cn / n, ||xi||^2 / n)
      corollary_lower = c3 ||xi||^2 / min(n, k_bar)
      snr = ||beta*||^2 / ||xi||^2, the threshold 1 / r_kstar, HighSNR exactly when
      snr > threshold; xi_norm == 0, or a ratio whose square overflows, gives snr = inf.

    An infinite effective-rank index yields a report with only the
    spectrum-level fields (trace, complexity radius) filled and `error`
    set; callers surface that as degenerate rather than raising.
    """
    for name, v in (("beta_star_norm", beta_star_norm), ("xi_norm", xi_norm)):
        _check_number(name, v, zero=True)
        _check_at_most(name, v, _ROOT_MAX, _SQUARES)
    ks = effective_rank_index(s, n, constants.c0)
    r_star_val = complexity_radius(s, n, constants.eta)
    base = dict(
        n=n,
        p=s.p,
        beta_star_norm=beta_star_norm,
        xi_norm=xi_norm,
        trace=s.trace,
        r_star=r_star_val,
        constants=constants,
    )
    if math.isinf(ks):
        return DiagnosticsReport(
            k_star=math.inf,
            error=(
                "effective-rank index is infinite: no rank k has "
                f"r_k >= c0 * n * lambda_k (c0={constants.c0}, n={n})"
            ),
            **base,
        )
    r_kstar = s.tail_sum(ks)
    rho = _rho(beta_star_norm, xi_norm, r_kstar)
    _check_at_most("rho", rho, _ROOT_MAX, _SQUARES)  # lower_radius and the bounds square it
    if xi_norm == 0.0:
        r_bar_val = 0.0  # supremum of the empty constraint set, by convention
    else:
        r_bar_val = lower_radius(s, rho, xi_norm, constants.gamma)
    k_bar_val = tail_halving_index(s, ks, constants.gamma)
    _check_at_most("rho * r_star", rho * r_star_val, _ROOT_MAX, _SQUARES)
    _check_at_most("c3 * xi_norm", constants.c3 * xi_norm, _ROOT_MAX, _SQUARES)
    noise_floor = (constants.c3 * xi_norm) ** 2 / n
    lower = min(r_bar_val * r_bar_val, noise_floor)  # an infinite r_bar gives the noise floor
    threshold = 1.0 / r_kstar
    ratio = math.inf if xi_norm == 0.0 else beta_star_norm / xi_norm
    snr = math.inf if ratio > _ROOT_MAX else ratio**2
    return DiagnosticsReport(
        k_star=ks,
        r_kstar=r_kstar,
        rho=rho,
        r_bar=r_bar_val,
        k_bar=k_bar_val,
        snr=snr,
        snr_threshold=threshold,
        regime=REGIME_HIGH if snr > threshold else REGIME_LOW,
        upper_bound=max((rho * r_star_val) ** 2, noise_floor),
        lower_bound=lower,
        corollary_upper=max(beta_star_norm**2 * _r_cn(s, n, constants) / n, xi_norm**2 / n),
        corollary_lower=constants.c3 * xi_norm**2 / min(n, k_bar_val),
        **base,
    )
