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


def truncated_svd_fit(x: np.ndarray, y: np.ndarray, rel_tol: float) -> np.ndarray:
    """Min-norm least-squares solution from LAPACK's SVD, with the singular
    values below rel_tol times the largest dropped."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > rel_tol * s[0]
    return vt[keep].T @ ((u[:, keep].T @ y) / s[keep])


def smallest_singular_value(x: np.ndarray) -> float:
    """The n-th singular value of an n x p matrix (n <= p), from LAPACK's SVD."""
    return float(np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)[-1])


def bai_yin_sigma_min(value: float, p: int, n: int) -> float:
    """sqrt(value) (sqrt(p) - sqrt(n)): where the smallest singular value of an n x p
    design with i.i.d. N(0, value) entries concentrates for p > n (Bai & Yin, 1993)."""
    return math.sqrt(value) * (math.sqrt(p) - math.sqrt(n))


def log_uniform_spectrum(rng: np.random.Generator, p: int, lo: float = -6.0, hi: float = 3.0):
    """Sorted positive eigenvalues spanning lo..hi decades."""
    vals = 10.0 ** rng.uniform(lo, hi, size=p)
    return np.sort(vals)[::-1].copy()


def covariance_matrix(spectrum, q) -> np.ndarray:
    """Dense covariance Q diag(spectrum) Q^T for an orthogonal p x p matrix Q."""
    return (q * spectrum.values) @ q.T


# ---------------------------------------------------------------------------
# Scalar loops the package used before its O(p) paths were vectorised.  The
# vectorised forms must reproduce them bit for bit, so they are kept here
# verbatim as oracles.

SEGMENT_SLACK = 1e-12


def suffix_sums_loop(vals: np.ndarray) -> np.ndarray:
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


def effective_rank_index_loop(s, n: int, c0: float):
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not c0 > 0:
        raise ValueError(f"c0 must be positive, got {c0!r}")
    threshold = c0 * n
    for k in range(1, s.p + 1):
        lam = float(s.values[k - 1])
        if lam == 0.0:
            break
        if s.tail_sum(k) >= threshold * lam:
            return k
    return math.inf


def lower_radius_loop(s, rho: float, xi_norm: float, gamma: float) -> float:
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho!r}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if xi_norm < 0:
        raise ValueError(f"xi_norm must be non-negative, got {xi_norm!r}")
    if xi_norm == 0.0:
        return 0.0
    budget = gamma * xi_norm * xi_norm
    rho2 = rho * rho
    if s.trace * rho2 <= budget:
        return math.inf
    p = s.p
    vals = s.values
    best = 0.0
    for j in range(1, p + 1):
        cand = (budget - rho2 * s.tail_sum(j + 1)) / j
        if cand <= 0.0:
            continue
        hi = rho2 * float(vals[j - 1])
        lo = 0.0 if j == p else rho2 * float(vals[j])
        if cand < lo * (1.0 - SEGMENT_SLACK) or cand > hi * (1.0 + SEGMENT_SLACK):
            continue
        best = max(best, cand)
    if best == 0.0:
        raise ArithmeticError("no feasible segment for the lower radius")
    return math.sqrt(best)


def tail_halving_index_loop(s, k_star: int, gamma: float) -> int:
    if not (isinstance(k_star, int) and 1 <= k_star <= s.p):
        raise ValueError(f"k_star must be an integer in [1, {s.p}], got {k_star!r}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    target = 0.5 * gamma * s.tail_sum(k_star)
    for k in range(k_star, s.p + 1):
        if s.tail_sum(k) <= target:
            return k
    return s.p + 1


def parse_numbers_loop(text: str, what: str) -> np.ndarray:
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
