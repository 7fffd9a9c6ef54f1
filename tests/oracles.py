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


def complexity_radius_loop(s, n: int, eta: float) -> float:
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    p = s.p
    en = eta * n
    if p <= en:
        return 0.0
    vals = s.values
    best = math.inf
    for j in range(0, p + 1):
        if j >= en:
            break
        cand = s.tail_sum(j + 1) / (en - j)
        hi = math.inf if j == 0 else float(vals[j - 1])
        lo = 0.0 if j == p else float(vals[j])
        if cand < lo * (1.0 - SEGMENT_SLACK) or cand > hi * (1.0 + SEGMENT_SLACK):
            continue
        best = min(best, cand)
    if not math.isfinite(best):
        raise ArithmeticError("no feasible segment for the complexity radius")
    return math.sqrt(best)


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


def beta_star(seed: int, p: int, beta_norm: float, direction: str, values=None) -> np.ndarray:
    """beta* as one config derived it for itself: a copy of `values`, else beta_norm times a
    unit direction, a normalised Gaussian draw from stream 2^32 of the seed for "random",
    e1 otherwise (top is e1: the spectrum is non-increasing)."""
    if values is not None:
        return np.array(values, dtype=float)
    if direction == "random":
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(2**32,))
        g = np.random.Generator(np.random.PCG64(ss)).standard_normal(p)
        unit = g / np.linalg.norm(g)
    else:
        unit = np.zeros(p)
        unit[0] = 1.0
    return beta_norm * unit


def skip_rule(checks, k_star, design_independent: bool, median_pred: float, upper_bound,
              lower_bound):
    """(skipped, upper_ratio, lower_ratio) of a run: its enabled checks skipped for a failed
    hypothesis, with their reasons in report order, and median pred_error over each bound
    whose check runs, as the run summary once wrote them, inline, per config."""
    skipped: dict = {}
    if math.isinf(k_star):
        reason = "effective-rank index is infinite"
        for check in ("certificate", "estimation_bound", "upper_bound", "lower_bound"):
            if check in checks:
                skipped[check] = f"skipped: {reason}"
    if "lower_bound" in checks and not design_independent:
        skipped["lower_bound"] = (
            "skipped: hypothesis violated (noise depends on the design, so rows "
            "conditionally on the noise are not i.i.d. Gaussian)"
        )

    upper_ratio = lower_ratio = None
    if "upper_bound" in checks and "upper_bound" not in skipped:
        if upper_bound is not None and upper_bound > 0:
            upper_ratio = median_pred / upper_bound
    if "lower_bound" in checks and "lower_bound" not in skipped:
        if lower_bound is not None and lower_bound > 0:
            lower_ratio = median_pred / lower_bound
    return skipped, upper_ratio, lower_ratio


def trial_checks(checks, r_kstar, sigma_min: float, est: float, beta_norm: float,
                 xi_norm_sq: float):
    """(certificate_pass, est_bound_pass) of one trial, None for a check that does not run:
    sigma_min >= sqrt(r_kstar) / 4, and ||beta_hat - beta*|| <= rho at the trial's own noise
    norm, up to float slack."""
    certificate_pass = None
    est_bound_pass = None
    if r_kstar is not None:
        sqrt_rk = math.sqrt(r_kstar)
        if "certificate" in checks:
            certificate_pass = bool(sigma_min >= 0.25 * sqrt_rk)
        if "estimation_bound" in checks:
            rho_realized = beta_norm + 4.0 * math.sqrt(xi_norm_sq) / math.sqrt(r_kstar)
            est_bound_pass = bool(math.sqrt(est) <= rho_realized * (1.0 + 1e-12) + 1e-12)
    return certificate_pass, est_bound_pass
