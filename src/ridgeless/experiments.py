"""Monte Carlo harness: repeated fits, identity and bound checks, SNR scans.

Each trial is a pure function of (seed, trial_index): the design and
then the noise are drawn, in that order, from the generator derived
from that pair, so a run's records are bit-identical at any worker
count and in any execution order.  One trial function, run_trial,
serves run_experiment and snr_scan alike: it draws a trial once and
evaluates it at one or more configs that differ only in beta* (a
scan's grid), up to n/4 configs a stacked fit, and run_experiment is
its one-config case.  The summary sorts each metric once for all
configs and reads the quantiles off the sorted rows.  Serial and
pooled runs share one trial loop, in which the calling thread is a
worker and any others are plain helper threads.  The true coefficient
vector is fixed across a run; when its direction is random it is
drawn once from a dedicated stream (index 2^32, above any trial index).

Per-trial checks use the trial's own realized noise norm; the run-level
diagnostics use the median realized noise norm across trials (for
deterministic noise the median is that fixed value, so one rule covers
both).  Bound comparisons are reported as ratios, not pass/fail, except
where explicit constants exist: the estimation bound (factor 4) and the
smallest-singular-value certificate (factor 1/4).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .design import _gemv, _weighted_square, min_norm_fit, sample_design, trial_rng
from .diagnostics import (
    Constants,
    DiagnosticsReport,
    InfiniteIndexError,
    _r_cn,
    _rho,
    diagnose,
    effective_rank_index,
)
from .noise import NoiseModel
from .spectra import (_SEED_MAX, CovarianceModel, Spectrum, _check_count, _check_number,
                      _check_rank, _float_array)

__all__ = [
    "CHECK_IDENTITY",
    "CHECK_CERTIFICATE",
    "CHECK_ESTIMATION",
    "CHECK_UPPER",
    "CHECK_LOWER",
    "ALL_CHECKS",
    "IDENTITY_TOL",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "ExperimentError",
    "run_trial",
    "run_experiment",
    "ScanPoint",
    "snr_scan",
    "CertificateStudy",
    "certificate_study",
]

CHECK_IDENTITY = "identity"
CHECK_CERTIFICATE = "certificate"
CHECK_ESTIMATION = "estimation_bound"
CHECK_UPPER = "upper_bound"
CHECK_LOWER = "lower_bound"
ALL_CHECKS = frozenset(
    {CHECK_IDENTITY, CHECK_CERTIFICATE, CHECK_ESTIMATION, CHECK_UPPER, CHECK_LOWER}
)

# Interpolation-identity tolerance: the identity is exact algebra, so any
# violation beyond solver rounding indicates a defect.
IDENTITY_TOL = 1e-8

# The certificate compares the smallest singular value against
# sqrt(r_kstar) / 4; the estimation bound allows only float slack.
_CERT_FACTOR = 0.25
_BOUND_SLACK = 1e-12

# Stream index for the one-off random beta* direction draw; trial indices
# stay below 2^32 so the streams never collide.
_BETA_STREAM = 2**32

# Most histogram bins a certificate study takes: its edges and counts are
# built after the draws and each is written out, so a larger count is
# refused before the first design (a million bins write 30 MB of JSON).
_MAX_BINS = 10**6

_DIRECTIONS = ("e1", "random", "top")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce a run bit-for-bit.

    __post_init__ also derives, once, the private run state that every trial
    reads: beta*, its norm, k* and r_{k*} (None when k* is infinite).  No
    caller sets it.
    """

    covariance: CovarianceModel
    n: int
    noise_model: NoiseModel
    trials: int
    seed: int
    constants: Constants = Constants()
    beta_norm: float = 0.0
    beta_direction: str = "e1"
    beta_values: np.ndarray | None = None  # explicit vector; overrides norm + direction
    checks: frozenset = ALL_CHECKS
    rel_tol: float = 1e-10
    _beta_star: np.ndarray = field(init=False, repr=False)
    _beta_norm: float = field(init=False, repr=False)
    _k_star: int | float = field(init=False, repr=False)
    _r_kstar: float | None = field(init=False, repr=False)

    def __post_init__(self):
        _check_count("n", self.n)
        _check_count("trials", self.trials, most=_BETA_STREAM)
        _check_count("seed", self.seed, 0, _SEED_MAX)
        if self.beta_direction not in _DIRECTIONS:
            raise ValueError(
                f"beta_direction must be one of {_DIRECTIONS}, got {self.beta_direction!r}"
            )
        _check_number("beta_norm", self.beta_norm, zero=True)
        unknown = set(self.checks) - ALL_CHECKS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        object.__setattr__(self, "checks", frozenset(self.checks))
        if not 0 < self.rel_tol < 1:  # at 1 or above every singular value is cut
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        p = self.covariance.spectrum.p
        if self.beta_values is not None:
            object.__setattr__(self, "beta_values", _float_array("beta_values", self.beta_values))
            shape = self.beta_values.shape
            if shape != (p,):
                raise ValueError(f"beta_values must have shape ({p},), got {shape}")
        for f in fields(self.noise_model):  # a noise vector has one entry per sample
            v = getattr(self.noise_model, f.name)
            if isinstance(v, np.ndarray) and v.size != self.n:
                raise ValueError(f"{self.noise_model.type_name} noise {f.name} has length "
                                 f"{v.size}, expected n={self.n}")
        try:  # E||xi||^2 must be finite where the model defines it
            with _trial_runtime, np.errstate(over="raise"):
                finite = math.isfinite(self.noise_model.expected_norm_sq(self.n))
        except ArithmeticError:  # OverflowError, or numpy's FloatingPointError
            finite = False
        except ValueError:  # undefined for this model
            finite = True
        if not finite:
            raise ValueError(f"{self.noise_model.type_name} noise is too large: "
                             f"E||xi||^2 at n={self.n} overflows")
        _check_rank(self.covariance.spectrum, self.n)
        # beta*, fixed across all trials: beta_values, else beta_norm times a unit direction.
        # Norms are BLAS dots, threaded at large sizes, so they run at the trials' one thread.
        with _trial_runtime, np.errstate(over="ignore"):  # an overflow is refused just below
            if self.beta_values is not None:
                beta_star = np.array(self.beta_values)
            else:
                if self.beta_direction == "random":
                    g = trial_rng(self.seed, _BETA_STREAM).standard_normal(p)
                    direction = g / np.linalg.norm(g)
                else:  # e1, which is also top: Sigma = diag(spectrum) is non-increasing
                    direction = np.zeros(p)
                    direction[0] = 1.0
                beta_star = self.beta_norm * direction
            beta_norm = float(np.linalg.norm(beta_star))
        if not math.isfinite(beta_norm):
            raise ValueError("beta_norm or beta_values is too large: the norm of beta* overflows")
        k_star = effective_rank_index(self.covariance.spectrum, self.n, self.constants.c0)
        object.__setattr__(self, "_beta_star", beta_star)
        object.__setattr__(self, "_beta_norm", beta_norm)
        object.__setattr__(self, "_k_star", k_star)
        object.__setattr__(self, "_r_kstar", None if math.isinf(k_star)
                           else self.covariance.spectrum.tail_sum(k_star))


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Realized quantities and check outcomes for one trial.

    certificate_pass and est_bound_pass are None when the corresponding
    check is disabled or undefined (infinite effective-rank index).
    """

    trial_index: int
    xi_norm_sq: float
    pred_error: float
    est_error: float
    sigma_min: float
    deviation: float
    identity_residual: float
    certificate_pass: bool | None
    est_bound_pass: bool | None


class ExperimentError(RuntimeError):
    """A trial failed; records completed before the failure are preserved."""

    def __init__(self, trial_index: int, partial, cause: BaseException):
        super().__init__(
            f"trial {trial_index} failed: {cause} "
            f"({len(partial)} earlier trial(s) preserved)"
        )
        self.trial_index = trial_index
        self.partial = tuple(partial)
        self.cause = cause


def run_trial(configs: list[ExperimentConfig], trial_index: int) -> list[TrialRecord]:
    """One trial, evaluated at each of `configs`, which differ only in beta*.

    The design and then the noise, at the first config's beta*, are drawn
    once from the trial's own stream and fitted at every config's beta*, in
    stacked passes of up to n/4 configs, whose temporaries (24 to 32 bytes a
    coefficient) stay within the design's 8 n p bytes.  Raises ValueError on
    no configs, or on configs whose seed, n, covariance, noise model or
    rel_tol differ (covariance and noise model compared by identity).
    """
    shared = {(c.seed, c.n, id(c.covariance), id(c.noise_model), c.rel_tol) for c in configs}
    if len(shared) != 1:
        raise ValueError("run_trial needs one or more configs that share seed, n, "
                         "covariance, noise model and rel_tol")
    first = configs[0]
    rng = trial_rng(first.seed, trial_index)
    design = sample_design(first.covariance.spectrum, first.n, rng)
    xi = first.noise_model.realize(design, first._beta_star, rng)
    step = max(1, first.n // 4)
    return [rec for j in range(0, len(configs), step)
            for rec in _evaluate(configs[j : j + step], trial_index, design, xi)]


def _dots(rows: np.ndarray) -> list[float]:
    """row @ row for each row of a (k, m) stack, each with the bits of that product alone."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).ravel().tolist()


def _evaluate(configs, trial_index, design, xi) -> list[TrialRecord]:
    """Fit one drawn trial at every config's beta* at once and compute all metrics; row j
    of each stack belongs to configs[j], with the bits of a fit at it alone (design._gemv)."""
    first, n = configs[0], configs[0].n
    betas = np.array([c._beta_star for c in configs])
    y = _gemv(design.entries, betas) + xi
    delta = min_norm_fit(design, y, first.rel_tol)
    delta -= betas
    preds = _weighted_square(first.covariance.spectrum, delta)
    xi_norm_sq = float(xi @ xi)
    sigma_min = design.sigma_min()  # sigma_n, also when the fit is rank-deficient

    records = []
    for config, pred, est, xd_sq, y_sq in zip(configs, preds, _dots(delta),
                                             _dots(_gemv(design.entries, delta)), _dots(y)):
        deviation = xd_sq / n - pred
        # Interpolation identity: pred + deviation = ||xi||^2 / n, exact algebra
        # whenever the fit interpolates.  Relative to max(||xi||^2, ||Y||^2)/n so
        # the zero-noise case stays well defined.
        scale = max(xi_norm_sq, y_sq, 1e-30) / n
        identity_residual = abs(pred + deviation - xi_norm_sq / n) / scale

        certificate_pass = None
        est_bound_pass = None
        if config._r_kstar is not None:
            sqrt_rk = math.sqrt(config._r_kstar)
            if CHECK_CERTIFICATE in config.checks:
                certificate_pass = bool(sigma_min >= _CERT_FACTOR * sqrt_rk)
            if CHECK_ESTIMATION in config.checks:
                rho_realized = _rho(config._beta_norm, math.sqrt(xi_norm_sq), config._r_kstar)
                est_bound_pass = bool(
                    math.sqrt(est) <= rho_realized * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
                )

        records.append(TrialRecord(
            trial_index=trial_index,
            xi_norm_sq=xi_norm_sq,
            pred_error=pred,
            est_error=est,
            sigma_min=sigma_min,
            deviation=deviation,
            identity_residual=identity_residual,
            certificate_pass=certificate_pass,
            est_bound_pass=est_bound_pass,
        ))
    return records


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One run: its config, diagnostics, per-trial records, and aggregates."""

    config: ExperimentConfig
    diagnostics: DiagnosticsReport
    records: tuple
    aggregates: dict
    rates: dict
    skipped: dict


_STATS = ("min", "q05", "median", "q95", "max", "mean")
_METRICS = (
    "xi_norm_sq",
    "pred_error",
    "est_error",
    "sigma_min",
    "deviation",
    "identity_residual",
)


def _quantile_rows(s: np.ndarray, q: float) -> np.ndarray:
    """np.quantile(row, q) for each row of the row-sorted s, by numpy's own 'linear' rule."""
    g = (s.shape[1] - 1) * q
    i = math.floor(g)
    a, b, t = s[:, i], s[:, min(i + 1, s.shape[1] - 1)], g - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _aggregate_rows(rows: np.ndarray) -> list[dict]:
    """min, q05, median, q95, max and mean of each row of a (k, trials) array, from one
    sort of all rows, each with the bits of np.min, np.quantile, np.median, np.max and
    np.mean of that row.  A row holding a NaN gets NaN for all six, as numpy gives."""
    s = np.sort(rows, axis=1)
    h = s.shape[1] // 2
    median = s[:, h] if s.shape[1] % 2 else (s[:, h - 1] + s[:, h]) / 2
    stats = np.stack([s[:, 0], _quantile_rows(s, 0.05), median, _quantile_rows(s, 0.95),
                      s[:, -1], np.mean(rows, axis=1)], axis=1)
    stats[np.isnan(s[:, -1])] = np.nan  # sort puts NaN last
    return [dict(zip(_STATS, st)) for st in stats.tolist()]


def _pass_rate(flags) -> float | None:
    known = [f for f in flags if f is not None]
    if not known:
        return None
    return sum(known) / len(known)


# The thread-count getters of numpy's bundled OpenBLAS (scipy_openblas, 64-bit
# or 32-bit integers) and of plain builds, e.g. a distro's; each has a set_ twin.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the loaded OpenBLAS, or None.

    Looked up at the first trial loop, not at import.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            try:
                get = getattr(handle, name)
                set_ = getattr(handle, name.replace("_get_", "_set_"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# glibc's mallopt parameters and its ceiling for the dynamic mmap threshold
# (4 MiB * sizeof(long) on 64-bit); the trim threshold follows it at twice.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD = 32 * 1024 * 1024


@functools.cache
def _hold_heap() -> None:
    """Fix glibc's mmap and trim thresholds, once per process.

    Trial-sized arrays (a 20 x 2000 design is 320 KB) are otherwise
    unmapped or trimmed on free and faulted back in on every trial.  The
    values are glibc's own dynamic ceiling, which a large enough free would
    reach anyway.  Without mallopt (a non-glibc libc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_THRESHOLD)


class _TrialRuntime:
    """Context manager every trial loop runs under, serial or pooled, as do the BLAS dots
    that derive a run's beta* and noise norm, whose bits would otherwise depend on the
    BLAS thread count.

    It holds OpenBLAS at one thread: trial-sized factorizations gain less
    from BLAS threads than they cost, and pool workers already occupy the
    cores, so parallelism comes only from the workers.  The thread count is
    process-wide: the first loop to start saves it and sets 1, the last to
    finish restores it.  Without the OpenBLAS symbols this does nothing.
    The first entry also holds the heap (see _hold_heap), for good.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            _hold_heap()
            calls = _openblas_thread_calls()
            if calls is not None and self._active == 0:
                self._saved = calls[0]()
                calls[1](1)
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            calls = _openblas_thread_calls()
            if calls is not None and self._active == 0:
                calls[1](self._saved)


_trial_runtime = _TrialRuntime()


def _map_trials(task, trials: int, threads: int) -> list:
    """[task(i) for i in range(trials)] on min(threads, usable CPUs, trials) workers.

    The caller is worker 0 and the helpers run in copies of its context, all
    under _trial_runtime, taking indices in order from one shared iterator.  A
    failing task stops every worker after the index it holds, so at any worker
    count ExperimentError carries the lowest failing index and the results of
    all indices before it.  A BaseException (Ctrl-C) is re-raised after the join.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    results, failed = [None] * trials, {}  # failed: trial index -> what its task raised
    pending, lock, stop = iter(range(trials)), threading.Lock(), threading.Event()

    def work():
        while not stop.is_set():
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = task(i)
            except BaseException as exc:  # reported below, once every worker has stopped
                failed[i] = exc
                stop.set()

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(min(threads, cpus or 1, trials) - 1)]
    with _trial_runtime:
        try:
            for helper in helpers:
                helper.start()
            work()
        finally:  # a helper not yet running when stop is set runs no trial
            stop.set()
            for helper in filter(threading.Thread.is_alive, helpers):
                helper.join()
    if failed:
        first = min(failed)
        interrupt = next((e for e in failed.values() if not isinstance(e, Exception)), None)
        raise interrupt or ExperimentError(first, results[:first], failed[first])
    return results


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run all trials (on up to `threads` workers, the caller among them) and aggregate.

    Results are ordered by trial index and identical at any worker count.
    A failing trial raises ExperimentError with the completed records
    preserved on the exception.
    """
    return _run([config], threads)[0]


def _run(configs: list[ExperimentConfig], threads: int) -> list[ExperimentResult]:
    """run_trial(configs, i) for every trial, then each config's summary.

    A failing trial raises ExperimentError with the first config's
    completed records.
    """
    try:  # each config's records; the per-trial lists go before the summaries
        runs = list(zip(*_map_trials(lambda i: run_trial(configs, i), configs[0].trials, threads)))
    except ExperimentError as exc:
        raise ExperimentError(
            exc.trial_index, [recs[0] for recs in exc.partial], exc.cause
        ) from exc.cause
    return _summarize(configs, runs)


def _summarize(configs: list[ExperimentConfig], runs: list[tuple]) -> list[ExperimentResult]:
    """Aggregates, diagnostics, skipped checks and rates of each config's records; each
    metric is sorted once for all configs, even xi_norm_sq's and sigma_min's equal rows."""
    columns = {m: np.array([[getattr(r, m) for r in recs] for recs in runs]) for m in _METRICS}
    by_metric = {m: _aggregate_rows(rows) for m, rows in columns.items()}
    xi_median = _aggregate_rows(np.sqrt(columns["xi_norm_sq"][:1]))[0]["median"]
    results = []
    for j, (config, records) in enumerate(zip(configs, runs)):
        aggregates = {m: by_metric[m][j] for m in _METRICS}
        diag = diagnose(config.covariance.spectrum, config.n, config._beta_norm, xi_median,
                        config.constants)

        skipped: dict = {}
        if math.isinf(config._k_star):
            reason = "effective-rank index is infinite"
            for check in (CHECK_CERTIFICATE, CHECK_ESTIMATION, CHECK_UPPER, CHECK_LOWER):
                if check in config.checks:
                    skipped[check] = f"skipped: {reason}"
        if CHECK_LOWER in config.checks and not config.noise_model.design_independent:
            skipped[CHECK_LOWER] = (
                "skipped: hypothesis violated (noise depends on the design, so rows "
                "conditionally on the noise are not i.i.d. Gaussian)"
            )

        median_pred = aggregates["pred_error"]["median"]
        upper_ratio = lower_ratio = None
        if CHECK_UPPER in config.checks and CHECK_UPPER not in skipped:
            if diag.upper_bound is not None and diag.upper_bound > 0:
                upper_ratio = median_pred / diag.upper_bound
        if CHECK_LOWER in config.checks and CHECK_LOWER not in skipped:
            if diag.lower_bound is not None and diag.lower_bound > 0:
                lower_ratio = median_pred / diag.lower_bound
        rates = {
            "certificate_pass_rate": _pass_rate([r.certificate_pass for r in records]),
            "est_bound_pass_rate": _pass_rate([r.est_bound_pass for r in records]),
            "upper_ratio": upper_ratio,
            "lower_ratio": lower_ratio,
        }
        results.append(ExperimentResult(config=config, diagnostics=diag, records=records,
                                        aggregates=aggregates, rates=rates, skipped=skipped))
    return results


@dataclass(frozen=True, eq=False)
class ScanPoint:
    """One SNR grid point: the rescaled run plus both regime thresholds."""

    snr_target: float
    beta_norm: float
    regime: str
    snr_threshold: float  # 1 / r_{k_star}
    snr_threshold_cn: float  # 1 / r_{cn}
    result: ExperimentResult


def snr_scan(
    base_config: ExperimentConfig, snr_grid, threads: int = 1
) -> list[ScanPoint]:
    """Run the experiment across an increasing SNR grid.

    For each target the coefficient norm is rescaled (the noise model
    stays fixed) so that ||beta*||^2 / E||xi||^2 equals the target; the
    regime label comes from each run's diagnostics.  Each point's result
    equals run_experiment at its rescaled config.

    The grid's configs share one run_trial per trial, so each trial's
    design and noise are drawn and factored once and fitted at every grid
    point.  A failing trial raises ExperimentError with the first grid
    point's completed records, as run_experiment would at that point.  An
    infinite effective-rank index raises InfiniteIndexError before any
    other check.
    """
    if math.isinf(base_config._k_star):
        raise InfiniteIndexError("effective-rank index is infinite for this spectrum and c0; "
                                 "the scan's regime split is undefined")
    grid = [float(t) for t in snr_grid]
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    # Raises for the models without an expected norm, which include the
    # only one whose noise depends on beta* (model_residual); every other
    # model's noise is the same at every grid point.
    noise = base_config.noise_model
    with _trial_runtime:  # a fixed vector's norm is a BLAS dot, at the trials' one thread
        noise_norm_sq = noise.expected_norm_sq(base_config.n)
    for t in grid:  # a NaN target passes the order check above
        if not 0 < t < math.inf:
            raise ValueError(f"SNR target {t!r} must be a positive finite number")
        if not math.isfinite(t * noise_norm_sq):
            raise ValueError(f"SNR target {t!r} is too large for {noise.type_name} noise: "
                             f"target * E||xi||^2 at n={base_config.n} overflows")

    r_cn = _r_cn(base_config.covariance.spectrum, base_config.n, base_config.constants)

    configs = [replace(base_config, beta_norm=math.sqrt(target * noise_norm_sq), beta_values=None)
               for target in grid]
    return [ScanPoint(snr_target=target, beta_norm=result.config.beta_norm,
                      regime=result.diagnostics.regime,
                      snr_threshold=result.diagnostics.snr_threshold,
                      snr_threshold_cn=1.0 / r_cn, result=result)
            for target, result in zip(grid, _run(configs, threads))]


@dataclass(frozen=True, eq=False)
class CertificateStudy:
    """Empirical frequency of sigma_min >= sqrt(r_kstar)/4 plus histogram data,
    its fields in payload order: the study's inputs, then its results."""

    n: int
    c0: float
    trials: int
    seed: int
    k_star: int
    r_kstar: float
    threshold: float
    pass_rate: float
    hist_edges: tuple  # bins of sigma_min / sqrt(r_kstar)
    hist_counts: tuple
    sigma_min: tuple


def certificate_study(
    spectrum: Spectrum, n: int, c0: float, trials: int, seed: int, bins: int = 20
) -> CertificateStudy:
    """Monte Carlo frequency of the smallest-singular-value certificate at covariance
    diag(spectrum).  A failing trial raises ExperimentError with the earlier sigma_min values
    preserved.  n is checked first, then k* (InfiniteIndexError), then trials, the seed, bins
    (at most _MAX_BINS) and the rank, all before the first design."""
    _check_count("n", n)
    ks = effective_rank_index(spectrum, n, c0)
    if math.isinf(ks):
        raise InfiniteIndexError(
            "effective-rank index is infinite; the certificate threshold is undefined"
        )
    _check_count("trials", trials, most=_BETA_STREAM)
    _check_count("seed", seed, 0, _SEED_MAX)
    _check_count("bins", bins)
    if bins > _MAX_BINS:
        raise ValueError(f"bins must be at most {_MAX_BINS}, got {bins}")
    _check_rank(spectrum, n)
    r_kstar = spectrum.tail_sum(ks)
    sqrt_rk = math.sqrt(r_kstar)
    threshold = _CERT_FACTOR * sqrt_rk
    sigma_mins = np.empty(trials)  # first: a count too large to hold fails here, with its size
    sigma_mins[:] = _map_trials(
        lambda t: sample_design(spectrum, n, trial_rng(seed, t)).sigma_min(), trials, threads=1)
    rate = float(np.mean(sigma_mins >= threshold))
    ratios = sigma_mins / sqrt_rk
    hi = max(1.0, float(np.max(ratios)))
    edges = np.linspace(0.0, hi, bins + 1)
    counts, _ = np.histogram(ratios, bins=edges)
    return CertificateStudy(
        n=n, c0=c0, trials=trials, seed=seed, k_star=ks, r_kstar=r_kstar, threshold=threshold,
        pass_rate=rate, hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts), sigma_min=tuple(float(v) for v in sigma_mins),
    )
