"""Monte Carlo harness: repeated fits, identity and bound checks, SNR scans.

Each trial is a pure function of (seed, trial_index): the design and
then the noise are drawn, in that order, from the generator derived
from that pair, so a run's records are bit-identical at any worker
count and in any execution order.  The true coefficient vector is fixed
across a run; when its direction is random it is drawn once from a
dedicated stream (index 2^32, above any trial index).

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .design import (
    min_norm_fit,
    prediction_error,
    sample_design,
    trial_rng,
)
from .diagnostics import (
    Constants,
    DiagnosticsReport,
    InfiniteIndexError,
    diagnose,
    effective_rank_index,
)
from .noise import NoiseModel, noise_to_dict, realize_noise
from .spectra import CovarianceModel

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
    "resolve_beta_star",
    "run_trial",
    "run_experiment",
    "ScanPoint",
    "snr_scan",
    "CertificateStudy",
    "certificate_study",
    "config_to_dict",
    "result_to_dict",
    "record_csv_header",
    "record_csv_row",
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

_DIRECTIONS = ("e1", "random", "top")


def _check_count(name: str, value, most: float = math.inf) -> None:
    """A count is an int from 1 to `most`; a bool is an int instance, but no count."""
    if not (type(value) is int and 1 <= value <= most):
        bound = "a positive integer" if most == math.inf else f"an integer in [1, {most}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce a run bit-for-bit.

    __post_init__ also derives, once, the private run state that every trial
    reads: beta* (resolve_beta_star), its norm, k* and r_{k*} (None when k*
    is infinite).  No caller sets it and config_to_dict does not echo it.
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
    spectrum_spec: dict | None = None  # builder echo for serialized output
    _beta_star: np.ndarray = field(init=False, repr=False)
    _beta_norm: float = field(init=False, repr=False)
    _k_star: int | float = field(init=False, repr=False)
    _r_kstar: float | None = field(init=False, repr=False)

    def __post_init__(self):
        _check_count("n", self.n)
        _check_count("trials", self.trials, _BETA_STREAM)
        # type(...) is int: a bool is an int instance, but no seed
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.beta_direction not in _DIRECTIONS:
            raise ValueError(
                f"beta_direction must be one of {_DIRECTIONS}, got {self.beta_direction!r}"
            )
        if not 0 <= self.beta_norm < math.inf:
            raise ValueError(
                f"beta_norm must be a non-negative finite number, got {self.beta_norm!r}"
            )
        unknown = set(self.checks) - ALL_CHECKS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        object.__setattr__(self, "checks", frozenset(self.checks))
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.beta_values is not None:
            v = np.asarray(self.beta_values, dtype=float)
            if v.shape != (self.covariance.p,):
                raise ValueError(
                    f"beta_values must have shape ({self.covariance.p},), got {v.shape}"
                )
            if not np.all(np.isfinite(v)):
                raise ValueError("beta_values must be finite")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, "beta_values", v)
        for f in fields(self.noise_model):  # a noise vector has one entry per sample
            v = getattr(self.noise_model, f.name)
            if isinstance(v, np.ndarray) and v.size != self.n:
                raise ValueError(f"{self.noise_model.type_name} noise {f.name} has length "
                                 f"{v.size}, expected n={self.n}")
        try:  # E||xi||^2 must be finite where the model defines it
            with np.errstate(over="raise"):
                finite = math.isfinite(self.noise_model.expected_norm_sq(self.n))
        except ArithmeticError:  # OverflowError, or numpy's FloatingPointError
            finite = False
        except ValueError:  # undefined for this model
            finite = True
        if not finite:
            raise ValueError(f"{self.noise_model.type_name} noise is too large: "
                             f"E||xi||^2 at n={self.n} overflows")
        rank = self.covariance.spectrum.rank()
        if rank < self.n:
            raise ValueError(
                f"covariance rank {rank} is below the sample count n={self.n}"
            )
        beta_star = resolve_beta_star(self)
        with np.errstate(over="ignore"):  # a norm that overflows is refused just below
            beta_norm = float(np.linalg.norm(beta_star))
        if not math.isfinite(beta_norm):
            raise ValueError("beta_norm or beta_values is too large: the norm of beta* overflows")
        k_star = effective_rank_index(self.covariance.spectrum, self.n, self.constants.c0)
        object.__setattr__(self, "_beta_star", beta_star)
        object.__setattr__(self, "_beta_norm", beta_norm)
        object.__setattr__(self, "_k_star", k_star)
        object.__setattr__(self, "_r_kstar", None if math.isinf(k_star)
                           else self.covariance.spectrum.tail_sum(k_star))


def resolve_beta_star(config: ExperimentConfig) -> np.ndarray:
    """The true coefficient vector, fixed across all trials of a run."""
    if config.beta_values is not None:
        return np.array(config.beta_values)
    p = config.covariance.p
    if config.beta_direction == "random":
        g = trial_rng(config.seed, _BETA_STREAM).standard_normal(p)
        direction = g / np.linalg.norm(g)
    else:
        # e1: first standard basis vector.  top: the direction of the largest
        # eigenvalue, which is the first eigenbasis column (or e1 when diagonal).
        direction = np.zeros(p)
        direction[0] = 1.0
        if config.beta_direction == "top" and config.covariance.rotation is not None:
            direction = np.array(config.covariance.rotation[:, 0])
    return config.beta_norm * direction


@dataclass(frozen=True)
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


# Record fields in output order: the JSON record keys and the CSV columns.
_RECORD_FIELDS = tuple(f.name for f in fields(TrialRecord))


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


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialRecord:
    """One trial: sample the design and noise, fit at the config's beta*,
    compute all metrics."""
    design, xi = _draw(config, trial_index, config._beta_star)
    return _evaluate(config, trial_index, design, xi)


def _draw(config: ExperimentConfig, trial_index: int, beta_star: np.ndarray):
    """The trial's design, then its noise, from the trial's own stream."""
    rng = trial_rng(config.seed, trial_index)
    design = sample_design(config.covariance, config.n, rng)
    xi = realize_noise(config.noise_model, design, beta_star, rng)
    return design, xi


def _evaluate(config, trial_index, design, xi) -> TrialRecord:
    """Fit one drawn trial at the config's beta* and compute all metrics."""
    y = design.entries @ config._beta_star + xi
    beta_hat = min_norm_fit(design, y, config.rel_tol)

    n = config.n
    delta = beta_hat - config._beta_star
    pred = prediction_error(config.covariance, beta_hat, config._beta_star)
    est = float(delta @ delta)
    xd = design.entries @ delta
    deviation = float(xd @ xd) / n - pred
    xi_norm_sq = float(xi @ xi)

    # Interpolation identity: pred + deviation = ||xi||^2 / n, exact algebra
    # whenever the fit interpolates.  Relative to max(||xi||^2, ||Y||^2)/n so
    # the zero-noise case stays well defined.
    scale = max(xi_norm_sq, float(y @ y), 1e-30) / n
    identity_residual = abs(pred + deviation - xi_norm_sq / n) / scale

    sigma_min = design.sigma_min()  # sigma_n, also when the fit is rank-deficient

    certificate_pass = None
    est_bound_pass = None
    if config._r_kstar is not None:
        sqrt_rk = math.sqrt(config._r_kstar)
        if CHECK_CERTIFICATE in config.checks:
            certificate_pass = bool(sigma_min >= _CERT_FACTOR * sqrt_rk)
        if CHECK_ESTIMATION in config.checks:
            rho_realized = config._beta_norm + 4.0 * math.sqrt(xi_norm_sq) / sqrt_rk
            est_bound_pass = bool(
                math.sqrt(est) <= rho_realized * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
            )

    return TrialRecord(
        trial_index=trial_index,
        xi_norm_sq=xi_norm_sq,
        pred_error=pred,
        est_error=est,
        sigma_min=sigma_min,
        deviation=deviation,
        identity_residual=identity_residual,
        certificate_pass=certificate_pass,
        est_bound_pass=est_bound_pass,
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One run: config echo, diagnostics, per-trial records, and aggregates."""

    config_echo: dict
    diagnostics: DiagnosticsReport
    records: tuple
    aggregates: dict
    rates: dict
    skipped: dict


_METRICS = (
    "xi_norm_sq",
    "pred_error",
    "est_error",
    "sigma_min",
    "deviation",
    "identity_residual",
)


def _aggregate(values: np.ndarray) -> dict:
    return {
        "min": float(np.min(values)),
        "q05": float(np.quantile(values, 0.05)),
        "median": float(np.median(values)),
        "q95": float(np.quantile(values, 0.95)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }


def _pass_rate(flags) -> float | None:
    known = [f for f in flags if f is not None]
    if not known:
        return None
    return sum(known) / len(known)


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

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
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
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
    """Context manager every trial loop runs under, serial or pooled.

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
    """[task(i) for i in range(trials)], in a worker pool when threads > 1.

    Both run under _trial_runtime, and each task in the caller's context
    (numpy's error state among it); the pool has min(threads, cores, trials)
    workers.  When a task raises, ExperimentError names the lowest failing
    index and keeps the results that completed: those before it when
    serial, every other one when pooled.
    """
    results: list = [None] * trials
    if threads <= 1:
        with _trial_runtime:
            for i in range(trials):
                try:
                    results[i] = task(i)
                except Exception as exc:  # preserve completed work
                    raise ExperimentError(i, [r for r in results if r is not None], exc)
        return results
    failed = None
    workers = min(threads, os.cpu_count() or 1, trials)
    with _trial_runtime, ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, i) for i in range(trials)]
        for i, fut in enumerate(futures):
            try:
                results[i] = fut.result()
            except Exception as exc:
                if failed is None:
                    failed = (i, exc)
    if failed is not None:
        raise ExperimentError(failed[0], [r for r in results if r is not None], failed[1])
    return results


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run all trials (optionally in a thread pool) and aggregate.

    Results are ordered by trial index and identical at any worker count.
    A failing trial raises ExperimentError with the completed records
    preserved on the exception.
    """
    records = _map_trials(lambda i: run_trial(config, i), config.trials, threads)
    return _summarize(config, tuple(records))


def _summarize(config: ExperimentConfig, records: tuple) -> ExperimentResult:
    """Aggregates, diagnostics, skipped checks and rates of one run's records."""
    aggregates = {
        m: _aggregate(np.array([getattr(r, m) for r in records])) for m in _METRICS
    }
    xi_median = float(np.median([math.sqrt(r.xi_norm_sq) for r in records]))
    diag = diagnose(
        config.covariance.spectrum, config.n, config._beta_norm, xi_median, config.constants
    )

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
    upper_ratio = None
    lower_ratio = None
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
    return ExperimentResult(
        config_echo=config_to_dict(config),
        diagnostics=diag,
        records=records,
        aggregates=aggregates,
        rates=rates,
        skipped=skipped,
    )


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

    The draws depend only on (seed, trial), so each trial's design and
    noise are drawn and factored once and fitted at every grid point.  A
    failing trial raises ExperimentError with the first grid point's
    completed records, as run_experiment would at that point.  An infinite
    effective-rank index raises InfiniteIndexError before any other check.
    """
    if math.isinf(base_config._k_star):
        raise InfiniteIndexError("effective-rank index is infinite for this spectrum and c0; "
                                 "the scan's regime split is undefined")
    grid = [float(t) for t in snr_grid]
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    if any(t <= 0 for t in grid):
        raise ValueError("SNR targets must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")
    # Raises for the models without an expected norm, which include the
    # only one whose noise depends on beta* (model_residual); every other
    # model's noise is the same at every grid point.
    noise_norm_sq = base_config.noise_model.expected_norm_sq(base_config.n)

    s = base_config.covariance.spectrum
    cn = min(base_config.constants.cn(base_config.n), s.p)
    r_cn = s.tail_sum(cn)

    beta_norms = [math.sqrt(target * noise_norm_sq) for target in grid]
    configs = [replace(base_config, beta_norm=b, beta_values=None) for b in beta_norms]

    def trial(i):
        design, xi = _draw(base_config, i, configs[0]._beta_star)
        return [_evaluate(cfg, i, design, xi) for cfg in configs]

    try:
        by_trial = _map_trials(trial, base_config.trials, threads)
    except ExperimentError as exc:
        raise ExperimentError(
            exc.trial_index, [recs[0] for recs in exc.partial], exc.cause
        ) from exc.cause

    points = []
    for j, (target, beta_norm, cfg) in enumerate(zip(grid, beta_norms, configs)):
        result = _summarize(cfg, tuple(recs[j] for recs in by_trial))
        diag = result.diagnostics
        points.append(
            ScanPoint(
                snr_target=target,
                beta_norm=beta_norm,
                regime=diag.regime,
                snr_threshold=diag.snr_threshold,
                snr_threshold_cn=1.0 / r_cn,
                result=result,
            )
        )
    return points


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
    spectrum, n: int, c0: float, trials: int, seed: int, bins: int = 20
) -> CertificateStudy:
    """Monte Carlo frequency of the smallest-singular-value certificate; a failing
    trial raises ExperimentError with the earlier sigma_min values preserved.
    n is checked first, then k* (InfiniteIndexError), then trials and bins."""
    _check_count("n", n)
    cov = spectrum if isinstance(spectrum, CovarianceModel) else CovarianceModel(spectrum)
    ks = effective_rank_index(cov.spectrum, n, c0)
    if math.isinf(ks):
        raise InfiniteIndexError(
            "effective-rank index is infinite; the certificate threshold is undefined"
        )
    _check_count("trials", trials, _BETA_STREAM)
    _check_count("bins", bins)
    r_kstar = cov.spectrum.tail_sum(ks)
    sqrt_rk = math.sqrt(r_kstar)
    threshold = _CERT_FACTOR * sqrt_rk
    sigma_mins = np.empty(trials)  # first: a count too large to hold fails here, with its size
    sigma_mins[:] = _map_trials(lambda t: sample_design(cov, n, trial_rng(seed, t)).sigma_min(),
                                trials, threads=1)
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


def config_to_dict(config: ExperimentConfig) -> dict:
    """Fully-resolved config echo, sufficient to re-run bit-identically.

    Deliberately excludes the worker count: results do not depend on it,
    and output files must be identical at any thread count.
    """
    if config.spectrum_spec is not None:
        spectrum = dict(config.spectrum_spec)
    else:
        spectrum = {
            "type": "values",
            "values": config.covariance.spectrum.values.tolist(),
        }
    echo = {
        "schema": 1,
        "spectrum": spectrum,
        "n": config.n,
        "beta_norm": config.beta_norm,
        "beta_direction": config.beta_direction,
        "noise": noise_to_dict(config.noise_model),
        "trials": config.trials,
        "seed": config.seed,
        "constants": config.constants.to_dict(),
        "checks": sorted(config.checks),
        "rel_tol": config.rel_tol,
    }
    if config.beta_values is not None:
        echo["beta_values"] = [float(v) for v in config.beta_values]
    if config.covariance.rotation is not None:
        echo["rotation"] = [[float(v) for v in row] for row in config.covariance.rotation]
    return echo


def result_to_dict(result: ExperimentResult) -> dict:
    """Full JSON-ready view of an experiment result."""
    return {
        "config": result.config_echo,
        "diagnostics": result.diagnostics.to_dict(),
        "aggregates": result.aggregates,
        "rates": result.rates,
        "skipped": result.skipped,
        "records": [{f: getattr(r, f) for f in _RECORD_FIELDS} for r in result.records],
    }


def record_csv_header(extra=()) -> list:
    return list(extra) + list(_RECORD_FIELDS)


def record_csv_row(r: TrialRecord, extra=()) -> list:
    return list(extra) + [getattr(r, f) for f in _RECORD_FIELDS]
