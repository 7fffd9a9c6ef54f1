"""Monte Carlo harness: trials, aggregation, scans, studies."""

import math
import os
import platform
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import oracles
import ridgeless
import ridgeless.experiments as experiments
from ridgeless.design import DesignMatrix, sample_design, trial_rng
from ridgeless.diagnostics import REGIME_HIGH, REGIME_LOW, Constants, InfiniteIndexError
from ridgeless.experiments import (
    ALL_CHECKS,
    CHECK_CERTIFICATE,
    CHECK_ESTIMATION,
    CHECK_LOWER,
    CHECK_UPPER,
    IDENTITY_TOL,
    ExperimentConfig,
    ExperimentError,
    certificate_study,
    config_to_dict,
    record_csv_header,
    record_csv_row,
    resolve_beta_star,
    result_to_dict,
    run_experiment,
    run_trial,
    snr_scan,
)
from ridgeless.noise import (
    UNIFORM,
    DeterministicNoise,
    GaussianNoise,
    ModelResidualNoise,
    ScaledDirectionNoise,
    StudentTNoise,
    ZeroNoise,
)
from ridgeless.serialize import to_json
from ridgeless.spectra import CovarianceModel, Spectrum, make_flat_spectrum


def flat_config(**kwargs):
    defaults = dict(
        covariance=CovarianceModel(make_flat_spectrum(50, 1.0)),
        n=5,
        noise_model=GaussianNoise(sigma=1.0),
        trials=8,
        seed=7,
        beta_norm=1.0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        flat_config(trials=0)
    with pytest.raises(ValueError):
        flat_config(seed=-1)
    with pytest.raises(ValueError):
        flat_config(checks=frozenset({"identity", "vibes"}))
    with pytest.raises(ValueError):
        flat_config(beta_direction="down")
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            flat_config(beta_norm=bad)
    with pytest.raises(ValueError):
        flat_config(beta_values=np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        flat_config(beta_values=np.r_[math.nan, np.zeros(49)])
    with pytest.raises(ValueError):
        flat_config(n=51)  # covariance rank 50 below n
    with pytest.raises(ValueError):
        flat_config(rel_tol=0.0)
    for key in ("n", "trials", "seed"):  # bool is an int subclass
        with pytest.raises(ValueError, match=key):
            flat_config(**{key: True})
    for model, name in ((DeterministicNoise, "values"), (ModelResidualNoise, "f_values")):
        # refused when the config is built, not inside the first trial
        for length in (2, 7):
            message = f"^{model.type_name} noise {name} has length {length}, expected n=5$"
            with pytest.raises(ValueError, match=message):
                flat_config(noise_model=model(np.ones(length)))
        flat_config(noise_model=model(np.ones(5)))


def test_config_refuses_magnitudes_whose_squares_overflow():
    beta = "^beta_norm or beta_values is too large: the norm of beta\\* overflows$"
    for kwargs in ({"beta_norm": 1e155}, {"beta_norm": 1e155, "beta_direction": "random"},
                   {"beta_values": np.full(50, 1e154)}):
        with pytest.raises(ValueError, match=beta):
            flat_config(**kwargs)
    flat_config(beta_norm=1e154)  # ||beta*||^2 = 1e308 is still a float
    for model in (GaussianNoise(1e154), StudentTNoise(3.0, 1e154), ScaledDirectionNoise(1e155),
                  DeterministicNoise(np.full(5, 1e154))):
        message = f"^{model.type_name} noise is too large: E\\|\\|xi\\|\\|\\^2 at n=5 overflows$"
        with pytest.raises(ValueError, match=message):
            flat_config(noise_model=model)
    # E||xi||^2 is undefined for these; the trials meet whatever they draw
    for model in (StudentTNoise(2.0, 1e300), ModelResidualNoise(np.full(5, 1e300))):
        flat_config(noise_model=model)


def test_resolve_beta_star_directions():
    cfg = flat_config(beta_norm=2.0)
    assert np.array_equal(resolve_beta_star(cfg)[:2], [2.0, 0.0])
    rand = resolve_beta_star(flat_config(beta_norm=2.0, beta_direction="random"))
    assert np.linalg.norm(rand) == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(
        rand, resolve_beta_star(flat_config(beta_norm=2.0, beta_direction="random"))
    )
    explicit = resolve_beta_star(flat_config(beta_values=np.arange(50.0)))
    assert np.array_equal(explicit, np.arange(50.0))


def test_resolve_beta_star_top_uses_rotation():
    rng = np.random.default_rng(0)
    q, r = np.linalg.qr(rng.standard_normal((6, 6)))
    q = q * np.sign(np.diag(r))
    cov = CovarianceModel(make_flat_spectrum(6, 1.0), rotation=q)
    cfg = ExperimentConfig(
        covariance=cov, n=2, noise_model=ZeroNoise(), trials=1, seed=0,
        beta_norm=3.0, beta_direction="top",
    )
    assert resolve_beta_star(cfg) == pytest.approx(3.0 * q[:, 0], rel=1e-12)


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_deterministic():
    cfg = flat_config()
    a = run_trial(cfg, 3)
    b = run_trial(cfg, 3)
    assert a == b
    assert a != run_trial(cfg, 4)


def test_run_trial_fields():
    rec = run_trial(flat_config(), 0)
    assert rec.trial_index == 0
    assert rec.pred_error >= 0 and rec.est_error >= 0
    assert rec.sigma_min > 0
    assert rec.identity_residual <= 1e-10
    assert rec.certificate_pass is not None
    assert rec.est_bound_pass is not None


def test_run_trial_checks_disabled():
    rec = run_trial(flat_config(checks=frozenset({"identity"})), 0)
    assert rec.certificate_pass is None
    assert rec.est_bound_pass is None


# ---------------------------------------------------------------------------
# full runs


def test_run_experiment_thread_counts_agree():
    cfg = flat_config(trials=12)
    serial = run_experiment(cfg, threads=1)
    pooled = run_experiment(cfg, threads=4)
    assert serial.records == pooled.records
    assert serial.aggregates == pooled.aggregates


def test_thread_counts_agree_at_large_n():
    # At n = 200 a thin SVD's last bits can depend on the BLAS thread count
    # (they do with OpenBLAS at 1 against 2 threads), so this holds because
    # serial and pooled loops both run one BLAS thread.
    cov = CovarianceModel(make_flat_spectrum(2000, 1.0))
    cfg = ExperimentConfig(
        covariance=cov, n=200, noise_model=GaussianNoise(sigma=1.0),
        trials=4, seed=0, beta_norm=1.0,
    )
    assert run_experiment(cfg, threads=1).records == run_experiment(cfg, threads=2).records


def test_run_experiment_aggregates_match_numpy():
    result = run_experiment(flat_config(trials=10))
    preds = np.array([r.pred_error for r in result.records])
    agg = result.aggregates["pred_error"]
    assert agg["median"] == float(np.median(preds))
    assert agg["q05"] == float(np.quantile(preds, 0.05))
    assert agg["q95"] == float(np.quantile(preds, 0.95))
    assert agg["min"] == float(np.min(preds))
    assert agg["max"] == float(np.max(preds))
    assert agg["mean"] == float(np.mean(preds))


def test_run_experiment_identity_and_rates():
    # wide flat spectrum: certificate and estimation bound hold comfortably
    cov = CovarianceModel(make_flat_spectrum(2000, 1.0))
    cfg = ExperimentConfig(
        covariance=cov, n=20, noise_model=GaussianNoise(sigma=1.0),
        trials=10, seed=3, beta_norm=1.0,
    )
    result = run_experiment(cfg)
    assert all(r.identity_residual <= IDENTITY_TOL for r in result.records)
    assert result.rates["certificate_pass_rate"] == 1.0
    assert result.rates["est_bound_pass_rate"] == 1.0
    assert result.rates["upper_ratio"] is not None
    assert result.skipped == {}


def test_run_experiment_skips_lower_for_design_dependent_noise():
    cfg = flat_config(
        noise_model=ScaledDirectionNoise(target_norm=1.0), trials=4
    )
    result = run_experiment(cfg)
    assert "hypothesis violated" in result.skipped[CHECK_LOWER]
    assert result.rates["lower_ratio"] is None
    assert result.rates["certificate_pass_rate"] is not None  # others still run


def test_run_experiment_infinite_index_skips_bound_checks():
    cov = CovarianceModel(Spectrum(4.0 ** -np.arange(1, 31)))
    cfg = ExperimentConfig(
        covariance=cov, n=3, noise_model=GaussianNoise(sigma=1.0),
        trials=4, seed=1, beta_norm=1.0,
    )
    result = run_experiment(cfg)
    assert math.isinf(result.diagnostics.k_star)
    assert result.diagnostics.error is not None
    for check in (CHECK_CERTIFICATE, CHECK_ESTIMATION, CHECK_UPPER, CHECK_LOWER):
        assert "effective-rank index is infinite" in result.skipped[check]
    assert all(r.certificate_pass is None for r in result.records)
    assert result.rates["certificate_pass_rate"] is None
    # identity is always evaluated
    assert all(r.identity_residual <= IDENTITY_TOL for r in result.records)


def test_run_experiment_preserves_partial_on_failure(monkeypatch):
    real = experiments.run_trial

    def explode_at_three(config, trial_index):
        if trial_index == 3:
            raise RuntimeError("synthetic failure")
        return real(config, trial_index)

    monkeypatch.setattr(experiments, "run_trial", explode_at_three)
    with pytest.raises(ExperimentError) as info:
        run_experiment(flat_config(trials=6))
    err = info.value
    assert err.trial_index == 3
    assert len(err.partial) == 3
    assert [r.trial_index for r in err.partial] == [0, 1, 2]
    assert "synthetic failure" in str(err)


def test_config_echo_shape():
    echo = config_to_dict(flat_config())
    assert echo["schema"] == 1
    assert "threads" not in echo
    assert echo["checks"] == sorted(ALL_CHECKS)
    assert echo["spectrum"]["type"] == "values"
    assert echo["noise"] == {"type": "gaussian", "sigma": 1.0}
    # builder echo is preserved verbatim when present
    cfg = flat_config(spectrum_spec={"type": "flat", "p": 50, "value": 1.0})
    assert config_to_dict(cfg)["spectrum"] == {"type": "flat", "p": 50, "value": 1.0}


def test_result_to_dict_shape():
    result = run_experiment(flat_config(trials=3))
    payload = result_to_dict(result)
    assert set(payload) == {
        "config", "diagnostics", "aggregates", "rates", "skipped", "records",
    }
    assert len(payload["records"]) == 3
    assert payload["records"][0]["trial_index"] == 0


def test_record_csv_layout():
    header = record_csv_header(extra=("snr", "regime"))
    assert header[:2] == ["snr", "regime"]
    assert header[2] == "trial_index"
    rec = run_trial(flat_config(), 0)
    row = record_csv_row(rec, extra=(0.5, "LowSNR"))
    assert row[0] == 0.5 and row[1] == "LowSNR"
    assert row[2] == 0 and len(row) == len(header)


# ---------------------------------------------------------------------------
# expected noise norms


def test_expected_noise_norm_sq():
    assert GaussianNoise(sigma=2.0).expected_norm_sq(10) == 40.0
    assert StudentTNoise(df=4.0, scale=1.0).expected_norm_sq(10) == pytest.approx(20.0)
    assert DeterministicNoise(values=np.array([3.0, 4.0])).expected_norm_sq(2) == 25.0
    assert ScaledDirectionNoise(target_norm=3.0).expected_norm_sq(5) == 9.0
    for model in (
        ZeroNoise(),
        StudentTNoise(df=2.0, scale=1.0),
        DeterministicNoise(values=np.zeros(3)),
        ScaledDirectionNoise(target_norm=0.0),
        ModelResidualNoise(f_values=np.ones(3)),
    ):
        with pytest.raises(ValueError):
            model.expected_norm_sq(3)


# ---------------------------------------------------------------------------
# SNR scans


def test_snr_scan_rescales_and_labels():
    cfg = flat_config(trials=4)
    # flat(50), n=5, c0=10: k* = 1, r_1 = 50, threshold = 0.02
    points = snr_scan(cfg, [0.001, 10.0])
    assert [p.regime for p in points] == [REGIME_LOW, REGIME_HIGH]
    for point, target in zip(points, [0.001, 10.0]):
        assert point.snr_target == target
        assert point.beta_norm == pytest.approx(math.sqrt(target * 5.0), rel=1e-12)
        assert point.snr_threshold == pytest.approx(0.02, rel=1e-12)
        # cn = max(1, floor(0.5 * 5)) = 2, r_2 = 49
        assert point.snr_threshold_cn == pytest.approx(1.0 / 49.0, rel=1e-12)
        echo = point.result.config_echo
        assert echo["beta_norm"] == pytest.approx(point.beta_norm, rel=1e-15)


def test_snr_scan_rejections():
    # an infinite k* is reported before the grid and the noise are looked at
    infinite = flat_config(covariance=CovarianceModel(Spectrum(4.0 ** -np.arange(1, 31))),
                           n=3, noise_model=ZeroNoise())
    message = ("^effective-rank index is infinite for this spectrum and c0; "
               "the scan's regime split is undefined$")
    with pytest.raises(InfiniteIndexError, match=message):
        snr_scan(infinite, [])
    cfg = flat_config()
    with pytest.raises(ValueError):
        snr_scan(cfg, [])
    with pytest.raises(ValueError):
        snr_scan(cfg, [1.0, 0.5])
    with pytest.raises(ValueError):
        snr_scan(cfg, [-1.0, 1.0])
    with pytest.raises(ValueError):
        snr_scan(flat_config(noise_model=ZeroNoise()), [1.0])
    with pytest.raises(ValueError):
        snr_scan(flat_config(noise_model=StudentTNoise(df=2.0, scale=1.0)), [1.0])
    with pytest.raises(ValueError):
        snr_scan(flat_config(noise_model=ModelResidualNoise(f_values=np.ones(5))), [1.0])


def test_snr_scan_overrides_explicit_beta():
    # beta_values would pin the norm; the scan must rescale instead
    cfg = flat_config(beta_values=np.ones(50))
    points = snr_scan(cfg, [4.0])
    assert points[0].beta_norm == pytest.approx(math.sqrt(20.0), rel=1e-12)
    assert "beta_values" not in points[0].result.config_echo


SCAN_NOISES = [
    GaussianNoise(sigma=1.0),
    StudentTNoise(df=3.0, scale=1.0),
    ScaledDirectionNoise(target_norm=1.0),
    ScaledDirectionNoise(target_norm=1.0, direction=UNIFORM),
    DeterministicNoise(values=np.array([0.5, -1.0, 2.0, 0.25, -0.75])),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "noise", SCAN_NOISES, ids=["gaussian", "student", "worst", "uniform", "deterministic"]
)
def test_snr_scan_points_equal_separate_runs(noise, threads):
    # One draw and factorization per trial for the whole grid gives the
    # bytes of a separate run at each rescaled config.
    cfg = flat_config(noise_model=noise, trials=6, beta_direction="random")
    points = snr_scan(cfg, [0.001, 0.1, 10.0], threads=threads)
    for pt in points:
        alone = run_experiment(replace(cfg, beta_norm=pt.beta_norm, beta_values=None))
        assert to_json(result_to_dict(pt.result)) == to_json(result_to_dict(alone))


class _FactorCounter:
    """Records the name of each numpy.linalg factorization a design can call."""

    def __init__(self, monkeypatch):
        self.calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, real):
        def counted(*args, **kwargs):
            self.calls.append(name)  # list.append is atomic under the GIL
            return real(*args, **kwargs)

        return counted


@pytest.mark.parametrize("threads", [1, 2])
def test_snr_scan_factors_each_trial_once(monkeypatch, threads):
    factors = _FactorCounter(monkeypatch)
    snr_scan(flat_config(trials=7), [0.001, 0.1, 10.0, 100.0], threads=threads)
    assert factors.calls == ["eigh"] * 7


def test_worst_noise_shares_the_fit_svd(monkeypatch):
    # the fit, sigma_min and the worst direction share one Gram eigh
    factors = _FactorCounter(monkeypatch)
    run_experiment(flat_config(noise_model=ScaledDirectionNoise(target_norm=1.0), trials=5))
    assert factors.calls == ["eigh"] * 5


def test_certificate_study_factors_each_trial_once(monkeypatch):
    factors = _FactorCounter(monkeypatch)
    certificate_study(make_flat_spectrum(200, 1.0), 5, 10.0, 6, seed=0)
    assert factors.calls == ["eigh"] * 6


def test_rank_deficient_fit_reads_sigma_min_from_its_factors(monkeypatch):
    # rel_tol 0.9 cuts genuine singular values, so every fit is rank-deficient
    # and sigma_min is the true smallest singular value, not the retained one.
    # The Gram eigenvalues show the cut; the fit then takes one thin SVD.
    cfg = flat_config(rel_tol=0.9, trials=6)
    factors = _FactorCounter(monkeypatch)
    records = run_experiment(cfg).records
    assert sorted(factors.calls) == ["eigh"] * 6 + ["svd"] * 6
    monkeypatch.undo()
    for r in records:
        x = sample_design(cfg.covariance, cfg.n, trial_rng(cfg.seed, r.trial_index)).entries
        sv = np.linalg.svd(x, compute_uv=False)
        assert sv[-1] < cfg.rel_tol * sv[0]
        assert r.sigma_min == pytest.approx(sv[-1], rel=1e-12)


def _failing_trial_rng(monkeypatch, bad=3):
    real = experiments.trial_rng

    def trial_rng(seed, trial_index):
        if trial_index == bad:
            raise RuntimeError("synthetic failure")
        return real(seed, trial_index)

    monkeypatch.setattr(experiments, "trial_rng", trial_rng)


@pytest.mark.parametrize("threads,kept", [(1, 3), (2, 5)])
@pytest.mark.parametrize("scan", [False, True], ids=["run", "scan"])
def test_failure_reports_trial_and_partial_count(monkeypatch, threads, kept, scan):
    # Serial runs stop at the failure; pooled runs finish the other trials.
    # A scan reports the first grid point's records, as a run there would.
    cfg = flat_config(trials=6, beta_norm=math.sqrt(0.1 * 5.0))  # the scan's first point
    reference = run_experiment(cfg)
    _failing_trial_rng(monkeypatch)
    with pytest.raises(ExperimentError) as info:
        if scan:
            snr_scan(cfg, [0.1, 10.0], threads=threads)
        else:
            run_experiment(cfg, threads=threads)
    err = info.value
    assert err.trial_index == 3
    assert len(err.partial) == kept
    assert str(err) == f"trial 3 failed: synthetic failure ({kept} earlier trial(s) preserved)"
    assert all(r == reference.records[r.trial_index] for r in err.partial)


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs tasks inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


@pytest.mark.parametrize(
    "cpus,threads,trials,workers",
    [(3, 10**6, 8, 3), (3, 2, 8, 2), (64, 10**6, 5, 5), (None, 4, 8, 1), (2, 4, 1, 1)],
)
def test_pool_is_clamped_to_cores_and_trials(monkeypatch, cpus, threads, trials, workers):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = flat_config(trials=trials)
    assert run_experiment(cfg, threads=threads).records == run_experiment(cfg).records
    snr_scan(cfg, [0.1, 10.0], threads=threads)
    assert _InlinePool.sizes == [workers, workers]


@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_in_the_callers_numpy_error_state(threads):
    with np.errstate(over="raise", invalid="ignore"):
        states = experiments._map_trials(lambda i: np.geterr(), 3, threads)
    assert [(s["over"], s["invalid"]) for s in states] == [("raise", "ignore")] * 3


def _blas_get():
    calls = experiments._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread-count symbols in this numpy build")
    return calls[0]


def test_pool_runs_with_one_blas_thread(monkeypatch):
    get = _blas_get()
    before = get()
    seen = []
    real = experiments.run_trial

    def spy(config, trial_index):
        seen.append(get())
        if trial_index == 5:
            raise RuntimeError("synthetic failure")
        return real(config, trial_index)

    monkeypatch.setattr(experiments, "run_trial", spy)
    run_experiment(flat_config(trials=4), threads=2)
    assert seen == [1] * 4
    assert get() == before
    with pytest.raises(ExperimentError):
        run_experiment(flat_config(trials=6), threads=2)
    assert get() == before
    seen.clear()
    run_experiment(flat_config(trials=3), threads=1)  # so does the serial path
    assert seen == [1] * 3
    assert get() == before


def test_blas_pin_without_symbols_is_a_no_op(monkeypatch):
    get = _blas_get()
    before = get()
    seen = []
    real = experiments.run_trial

    def spy(config, trial_index):
        seen.append(get())
        return real(config, trial_index)

    monkeypatch.setattr(experiments, "_openblas_thread_calls", lambda: None)
    monkeypatch.setattr(experiments, "run_trial", spy)
    cfg = flat_config(trials=6)
    assert run_experiment(cfg, threads=2).records == run_experiment(cfg).records
    assert seen == [before] * 12


def test_heap_hold_without_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(experiments.ctypes, "CDLL", lambda name: object())
    assert experiments._hold_heap.__wrapped__() is None


_FAULT_PROBE = """
import resource
from ridgeless.experiments import ExperimentConfig, run_experiment
from ridgeless.noise import GaussianNoise
from ridgeless.spectra import CovarianceModel, make_flat_spectrum

cfg = ExperimentConfig(
    covariance=CovarianceModel(make_flat_spectrum(2000, 1.0)), n=20,
    noise_model=GaussianNoise(sigma=1.0), trials=200, seed=0, beta_norm=1.0,
)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap thresholds are glibc's",
)
def test_serial_trials_do_not_refault_the_heap():
    # A fresh process: glibc raises its mmap threshold after large frees, so
    # in a process that has run other work the faults may already be gone.
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ridgeless.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout)
    assert faults < 20 * 200, f"{faults} minor page faults over 200 trials"


# ---------------------------------------------------------------------------
# certificate study


def test_certificate_study_wide_flat():
    study = certificate_study(make_flat_spectrum(2000, 1.0), 20, 10.0, 50, seed=0)
    assert study.k_star == 1
    assert study.r_kstar == 2000.0
    assert study.threshold == pytest.approx(math.sqrt(2000.0) / 4, rel=1e-12)
    assert study.pass_rate == 1.0
    assert sum(study.hist_counts) == 50
    assert len(study.hist_edges) == len(study.hist_counts) + 1


def test_certificate_study_single_sample_rate():
    # n = p = 1, flat value 1: sigma_min = |g|, threshold 1/4, so the rate
    # is P(|N(0,1)| >= 1/4) = erfc(1/(4 sqrt 2))
    study = certificate_study(make_flat_spectrum(1, 1.0), 1, 1.0, 300, seed=11)
    assert study.threshold == 0.25
    assert study.pass_rate == pytest.approx(oracles.HALF_NORMAL_CERT_RATE, abs=0.07)


def test_certificate_study_rejects_infinite_index():
    s = Spectrum(4.0 ** -np.arange(1, 31))  # k* is infinite at c0 = 10
    with pytest.raises(ValueError):
        certificate_study(s, 3, 10.0, 5, seed=0)
    # n is checked first, then k*, then trials and bins
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        certificate_study(s, 0, 10.0, 0, seed=0, bins=0)
    message = "^effective-rank index is infinite; the certificate threshold is undefined$"
    with pytest.raises(InfiniteIndexError, match=message):
        certificate_study(s, 3, 10.0, 0, seed=0, bins=0)
    with pytest.raises(ValueError, match="^trials must be "):
        certificate_study(s, 3, 0.1, 0, seed=0, bins=0)


def test_certificate_study_runs_with_one_blas_thread(monkeypatch):
    get = _blas_get()
    before = get()
    seen = []
    real = DesignMatrix.sigma_min

    def spy(design):
        seen.append(get())
        if len(seen) == 7:
            raise RuntimeError("synthetic failure")
        return real(design)

    monkeypatch.setattr(DesignMatrix, "sigma_min", spy)
    certificate_study(make_flat_spectrum(50, 1.0), 5, 10.0, 4, seed=0)
    assert seen == [1] * 4
    assert get() == before
    with pytest.raises(ExperimentError, match="^trial 2 failed: synthetic failure") as info:
        certificate_study(make_flat_spectrum(50, 1.0), 5, 10.0, 6, seed=0)
    assert seen == [1] * 7
    assert get() == before
    assert info.value.trial_index == 2
    monkeypatch.undo()
    earlier = certificate_study(make_flat_spectrum(50, 1.0), 5, 10.0, 2, seed=0).sigma_min
    assert info.value.partial == earlier


@pytest.mark.parametrize("bins", [0, -3])
def test_certificate_study_rejects_bins_below_one(bins):
    with pytest.raises(ValueError, match="bins"):
        certificate_study(make_flat_spectrum(50, 1.0), 5, 10.0, 2, seed=0, bins=bins)


@pytest.mark.parametrize(
    "args,name",
    [
        ((5, 10.0, True, 0), "trials"),
        ((True, 10.0, 2, 0), "n"),
        ((5.0, 10.0, 2, 0), "n"),
        ((5, 10.0, 2, 0, True), "bins"),
    ],
    ids=["trials-bool", "n-bool", "n-float", "bins-bool"],
)
def test_certificate_study_counts_follow_the_config_rule(args, name):
    # the rule ExperimentConfig applies: an int, not a bool or a float
    with pytest.raises(ValueError, match=f"^{name} must be "):
        certificate_study(make_flat_spectrum(50, 1.0), *args)
