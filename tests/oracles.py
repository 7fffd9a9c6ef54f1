"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive: direct summation, dense linear
algebra, long bisections on monotone maps.  The package must agree with
these within the stated tolerances; tests never compare the package
against itself.
"""

import math

import numpy as np

# P(|g| >= 1/4) for standard normal g: the exact pass probability of the
# smallest-singular-value certificate in the 1x1 flat case.
HALF_NORMAL_CERT_RATE = math.erfc(0.25 / math.sqrt(2.0))


def naive_tail_sum(values, k: int) -> float:
    return float(np.sum(np.asarray(values, dtype=float)[k - 1 :]))


def kstar_scan(values, n: int, c0: float):
    """Brute-force effective-rank index; stops at the first zero eigenvalue."""
    lams = np.asarray(values, dtype=float)
    for k in range(1, len(lams) + 1):
        lam = float(lams[k - 1])
        if lam == 0.0:
            break
        if naive_tail_sum(lams, k) >= c0 * n * lam:
            return k
    return math.inf


def kbar_scan(values, k_star: int, gamma: float) -> int:
    lams = np.asarray(values, dtype=float)
    p = len(lams)
    target = 0.5 * gamma * naive_tail_sum(lams, k_star)
    for k in range(k_star, p + 1):
        if naive_tail_sum(lams, k) <= target:
            return k
    return p + 1


def r_star_bisect(values, n: int, eta: float, iters: int = 200) -> float:
    """Bisection for inf{r > 0 : sum min(lambda_i, r^2) <= eta n r^2}.

    excess(x) = S(x) - eta n x is concave piecewise linear with
    excess(0) = 0, so {excess > 0} is an interval (0, x*); the infimum
    is the upper crossing x*.
    """
    lams = np.asarray(values, dtype=float)
    p = len(lams)
    en = eta * n
    if p <= en:
        return 0.0

    def excess(x: float) -> float:
        return float(np.sum(np.minimum(lams, x))) - en * x

    lo = 0.0
    hi = float(np.sum(lams)) / en + 1.0  # excess(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(0.5 * (lo + hi))


def r_bar_bisect(values, rho: float, xi_norm: float, gamma: float, iters: int = 200):
    """Bisection for sup{r > 0 : sum min(lambda_i rho^2, r^2) <= gamma ||xi||^2}."""
    mus = np.asarray(values, dtype=float) * rho * rho
    budget = gamma * xi_norm * xi_norm
    if xi_norm == 0.0:
        return 0.0
    if float(np.sum(mus)) <= budget:
        return math.inf

    def total(x: float) -> float:
        return float(np.sum(np.minimum(mus, x)))

    lo = 0.0
    hi = float(np.max(mus)) + 1.0  # total(hi) = trace rho^2 > budget
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if total(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return math.sqrt(0.5 * (lo + hi))


def min_norm_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normal-equations route X^T (X X^T)^{-1} Y; needs full row rank."""
    gram = x @ x.T
    return x.T @ np.linalg.solve(gram, y)


def log_uniform_spectrum(rng: np.random.Generator, p: int, lo: float = -6.0, hi: float = 3.0):
    """Sorted positive eigenvalues spanning lo..hi decades."""
    vals = 10.0 ** rng.uniform(lo, hi, size=p)
    return np.sort(vals)[::-1].copy()
