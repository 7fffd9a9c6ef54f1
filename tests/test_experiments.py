"""Monte Carlo harness: trials, aggregation, scans, studies."""

import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ridgeless
import ridgeless.experiments as experiments
from conftest import BAD_ENTRIES, entry_refusal, same_floats
from ridgeless.cli import _config_echo, _run_payload
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
from ridgeless.serialize import json_pieces
from ridgeless.spectra import (
    CovarianceModel,
    Spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
)


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
    for bad in (-1.0, math.nan, math.inf, 10**400):  # 10**400 once escaped as an OverflowError
        with pytest.raises(ValueError):
            flat_config(beta_norm=bad)
    with pytest.raises(ValueError):
        flat_config(beta_values=np.ones(3))
    with pytest.raises(ValueError, match="^beta_values must be finite$"):
        flat_config(beta_values=np.r_[math.nan, np.zeros(49)])
    # an entry that is no number is named, never coerced
    for bad in BAD_ENTRIES:
        with pytest.raises(ValueError, match=entry_refusal("beta_values[3]", bad)):
            flat_config(beta_values=[0.0, 0.0, 0.0, bad] + [0.0] * 46)
    for good in ([1] + [0] * 49, np.arange(50), np.linspace(0.0, 1.0, 50)):  # ints keep bits
        assert same_floats(flat_config(beta_values=good).beta_values, good)
    with pytest.raises(ValueError):
        flat_config(n=51)  # covariance rank 50 below n
    for bad in (0.0, -1e-10, 1.0, math.inf, math.nan):  # at 1 every singular value is cut
        with pytest.raises(ValueError, match=r"^rel_tol must be in \(0, 1\), got "):
            flat_config(rel_tol=bad)
    flat_config(rel_tol=0.9)
    for key in ("n", "trials", "seed", "beta_norm"):  # bool is an int subclass
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
    assert np.array_equal(cfg._beta_star[:2], [2.0, 0.0])
    rand = flat_config(beta_norm=2.0, beta_direction="random")._beta_star
    assert np.linalg.norm(rand) == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(
        rand, flat_config(beta_norm=2.0, beta_direction="random")._beta_star
    )
    explicit = flat_config(beta_values=np.arange(50.0))._beta_star
    assert np.array_equal(explicit, np.arange(50.0))
    # the top eigenvalue's direction of a diagonal, non-increasing Sigma is e1
    assert np.array_equal(flat_config(beta_norm=2.0, beta_direction="top")._beta_star,
                          cfg._beta_star)


# ---------------------------------------------------------------------------
# single trials


def test_run_trial_deterministic():
    cfg = flat_config()
    [a] = run_trial([cfg], 3)
    [b] = run_trial([cfg], 3)
    assert a == b
    assert [a] != run_trial([cfg], 4)


def test_run_trial_fields():
    [rec] = run_trial([flat_config()], 0)
    assert rec.trial_index == 0
    assert rec.pred_error >= 0 and rec.est_error >= 0
    assert rec.sigma_min > 0
    assert rec.identity_residual <= 1e-10
    assert rec.certificate_pass is not None
    assert rec.est_bound_pass is not None


def test_run_trial_checks_disabled():
    [rec] = run_trial([flat_config(checks=frozenset({"identity"}))], 0)
    assert rec.certificate_pass is None
    assert rec.est_bound_pass is None


def test_run_trial_refuses_configs_that_differ_beyond_beta():
    cfg = flat_config()
    with pytest.raises(ValueError, match="seed, n, covariance, noise model and rel_tol"):
        run_trial([], 0)
    # one stacked fit serves every config, so rel_tol must be shared too
    for other in (replace(cfg, seed=8), replace(cfg, n=6),
                  replace(cfg, noise_model=GaussianNoise(sigma=2.0)),
                  replace(cfg, covariance=CovarianceModel(make_flat_spectrum(50, 1.0))),
                  replace(cfg, rel_tol=0.5)):
        with pytest.raises(ValueError, match="seed, n, covariance, noise model and rel_tol"):
            run_trial([cfg, other], 0)
    # a second beta* is fitted on the first config's draw
    second = replace(cfg, beta_norm=2.0)
    assert run_trial([cfg, second], 0) == run_trial([cfg], 0) + run_trial([second], 0)


def test_run_trial_fits_at_most_a_quarter_of_n_configs_a_pass(monkeypatch):
    # A pass holds three or four (configs, p) arrays; capped at n/4 configs,
    # they stay within the design's own n x p size however long the grid is.
    sizes = []
    real = experiments._evaluate
    monkeypatch.setattr(experiments, "_evaluate",
                        lambda configs, *rest: sizes.append(len(configs)) or real(configs, *rest))
    cfg = flat_config(covariance=CovarianceModel(make_flat_spectrum(400, 1.0)), n=8)
    configs = [replace(cfg, beta_norm=b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert [r.trial_index for r in run_trial(configs, 3)] == [3] * 5
    assert sizes == [2, 2, 1]
    sizes.clear()
    run_trial([flat_config()] * 3, 0)  # n = 5: one config a pass
    assert sizes == [1, 1, 1]


_PROPERTY_NOISES = {
    "gaussian": GaussianNoise(sigma=1.0),
    "student": StudentTNoise(df=3.0, scale=1.0),
    "worst": ScaledDirectionNoise(target_norm=1.0),
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    extra=st.integers(0, 60),
    spread=st.floats(0.0, 6.0),
    c0=st.floats(0.05, 4.0),
    noise=st.sampled_from(list(_PROPERTY_NOISES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_passing_certificate_implies_the_estimation_bound(n, extra, spread, c0, noise, seed):
    # ||beta_hat - beta*|| <= ||beta*|| + ||xi|| / sigma_n for any interpolating
    # fit, so on the certificate's event sigma_n >= sqrt(r_k*) / 4 the estimation
    # bound holds in every trial, at every config of a stacked fit.
    rng = np.random.default_rng(seed)
    values = np.sort(10.0 ** rng.uniform(-spread, 0.0, n + extra))[::-1].copy()
    base = ExperimentConfig(
        covariance=CovarianceModel(Spectrum(values)), n=n, noise_model=_PROPERTY_NOISES[noise],
        trials=4, seed=seed, constants=Constants(c0=c0), beta_direction="random",
    )
    configs = [replace(base, beta_norm=b) for b in (0.0, 0.3, 1.0, 30.0)]
    for i in range(base.trials):
        for rec in run_trial(configs, i):
            assert rec.est_bound_pass or not rec.certificate_pass, (i, rec)


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


# Values a trial's metrics can take, few of them distinct so that rows tie:
# subnormals, NaN, values whose differences and sums overflow, and no -0.0
# (every metric is a square, a sum of squares, an abs, a sqrt or an x - y,
# none of which gives -0.0; v + 0.0 turns a drawn -0.0 into +0.0).
_AGG_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1.5, 1.7e308, -1.7e308,
                     math.nan]),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0),
)


def _assert_numpy_bits(rows, got):
    for row, agg in zip(rows, got, strict=True):
        want = [np.min(row), np.quantile(row, 0.05), np.median(row),
                np.quantile(row, 0.95), np.max(row), np.mean(row)]
        assert list(agg) == ["min", "q05", "median", "q95", "max", "mean"]
        assert [v.hex() for v in agg.values()] == [float(v).hex() for v in want]


@settings(max_examples=400, deadline=None)
@given(k=st.integers(1, 4), trials=st.integers(1, 9), data=st.data())
def test_sorted_column_aggregates_have_the_bits_of_numpy(k, trials, data):
    rows = np.array([data.draw(st.lists(_AGG_VALUES, min_size=trials, max_size=trials))
                     for _ in range(k)])
    with np.errstate(all="ignore"):  # overflowing differences: the same inf on both sides
        _assert_numpy_bits(rows, experiments._aggregate_rows(rows))


@pytest.mark.parametrize("trials", [300, 10_000])
def test_sorted_column_aggregates_have_the_bits_of_numpy_on_long_rows(trials):
    # Past 128 values np.mean sums pairwise in blocks; each row of the stack
    # must still get the bits of np.mean of that row alone.
    rng = np.random.default_rng(trials)
    rows = rng.standard_normal((4, trials)) ** 2 * np.array([[1.0], [1e-300], [1e300], [3.0]])
    rows[1] -= 1e-300  # negative values too, as a deviation has
    rows[3, trials // 3] = math.inf
    with np.errstate(all="ignore"):  # q95 of the inf row is inf - inf
        _assert_numpy_bits(rows, experiments._aggregate_rows(rows))


_MA_PROBE = """
import contextlib, io, sys
from ridgeless.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["simulate", "--flat", "50", "--n", "5", "--trials", "9", "--noise", "gaussian:1",
          "--beta-norm", "1"])
    main(["scan", "--flat", "50", "--n", "5", "--trials", "4", "--noise", "gaussian:1",
          "--snr-grid", "1e-2:1:3", "--threads", "2"])
print("numpy.ma" in sys.modules)
"""


def test_simulate_and_scan_do_not_import_numpy_ma():
    # np.median and np.quantile import numpy.ma on first use (about 14 ms and
    # 0.5 MB in a fresh process); the sorted-column summary needs neither.
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ridgeless.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    proc = subprocess.run([sys.executable, "-c", _MA_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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

    def explode_at_three(configs, trial_index):
        if trial_index == 3:
            raise RuntimeError("synthetic failure")
        return real(configs, trial_index)

    monkeypatch.setattr(experiments, "run_trial", explode_at_three)
    with pytest.raises(ExperimentError) as info:
        run_experiment(flat_config(trials=6))
    err = info.value
    assert err.trial_index == 3
    assert len(err.partial) == 3
    assert [r.trial_index for r in err.partial] == [0, 1, 2]
    assert "synthetic failure" in str(err)


# The CLI's resolved echo of flat_config's spectrum.
FLAT_ECHO = {"type": "flat", "p": 50, "value": 1.0}


def test_config_echo_shape():
    echo = _config_echo(flat_config(), FLAT_ECHO)
    assert list(echo) == ["schema", "spectrum", "n", "beta_norm", "beta_direction", "noise",
                          "trials", "seed", "constants", "checks", "rel_tol"]
    assert echo["schema"] == 1
    assert echo["checks"] == sorted(ALL_CHECKS)
    assert echo["spectrum"] == FLAT_ECHO  # the resolved spectrum echo, verbatim
    assert echo["noise"] == {"type": "gaussian", "sigma": 1.0}
    assert echo["constants"] == {"c0": 10.0, "eta": 0.05, "gamma": 0.5, "c3": 1.0, "c_frac": 0.5}


def test_result_to_dict_shape():
    cfg = flat_config(trials=3)
    result = run_experiment(cfg)
    assert result.config is cfg
    payload = json.loads("".join(json_pieces(_run_payload(result, FLAT_ECHO))))
    assert list(payload) == ["config", "diagnostics", "aggregates", "rates", "skipped", "records"]
    assert payload["config"] == _config_echo(cfg, FLAT_ECHO)
    assert len(payload["records"]) == 3
    assert payload["records"][0]["trial_index"] == 0


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
        assert point.result.config.beta_norm == pytest.approx(point.beta_norm, rel=1e-15)


def test_snr_scan_rejections(monkeypatch):
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
    # a target that is not a positive finite number, or whose beta* norm would
    # overflow, is named before any design is drawn; the second with the noise
    monkeypatch.setattr(experiments, "sample_design", lambda *a: pytest.fail("design drawn"))
    for grid, shown in (([1.0, math.inf], "inf"), ([math.nan], "nan"), ([math.nan, 1.0], "nan"),
                        ([-1.0, 1.0], "-1.0")):
        with pytest.raises(ValueError,
                           match=f"^SNR target {shown} must be a positive finite number$"):
            snr_scan(cfg, grid)
    message = (r"^SNR target 1e\+300 is too large for gaussian noise: "
               r"target \* E\|\|xi\|\|\^2 at n=5 overflows$")
    with pytest.raises(ValueError, match=message):
        snr_scan(flat_config(noise_model=GaussianNoise(sigma=1e100)), [1e100, 1e300])
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
    assert points[0].result.config.beta_values is None


# Each case overrides flat_config; the noises run on the flat 50/5 design.
SCAN_CASES = {
    "gaussian": dict(noise_model=GaussianNoise(sigma=1.0)),
    "student": dict(noise_model=StudentTNoise(df=3.0, scale=1.0)),
    "worst": dict(noise_model=ScaledDirectionNoise(target_norm=1.0)),
    "uniform": dict(noise_model=ScaledDirectionNoise(target_norm=1.0, direction=UNIFORM)),
    "deterministic": dict(
        noise_model=DeterministicNoise(values=np.array([0.5, -1.0, 2.0, 0.25, -0.75]))),
    # the benchmark's family: exp-floor 300/100 at c0 = 0.2
    "exp-floor-300-100": dict(covariance=CovarianceModel(make_exp_floor_spectrum(300, 20.0, 1e-4)),
                              n=100, constants=Constants(c0=0.2)),
    # a decaying 200-value spectrum; a run in a rotated eigenbasis Q is this one at
    # Q^T beta* (tests/test_fold.py)
    "rotated": dict(covariance=CovarianceModel(Spectrum(np.linspace(2.0, 1.0, 200)))),
    # rel_tol 0.9 cuts genuine singular values: every fit takes the truncated SVD
    "svd": dict(rel_tol=0.9),
    # n/4 = 2 configs a stacked fit: the grid takes a full pass and a short one
    "two-passes": dict(covariance=CovarianceModel(make_flat_spectrum(400, 1.0)), n=8),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_snr_scan_points_equal_separate_runs(case, threads):
    # One draw and factorization per trial and stacked fits over the grid
    # give the bytes of a separate run at each rescaled config.
    cfg = flat_config(**{"trials": 6, "beta_direction": "random", **SCAN_CASES[case]})
    points = snr_scan(cfg, [0.001, 0.1, 10.0], threads=threads)
    for pt in points:
        alone = run_experiment(replace(cfg, beta_norm=pt.beta_norm, beta_values=None))
        # the whole payload: config echo, diagnostics, aggregates, rates, skipped, records
        assert "".join(json_pieces(_run_payload(pt.result, FLAT_ECHO))) == "".join(
            json_pieces(_run_payload(alone, FLAT_ECHO)))


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
        rng = trial_rng(cfg.seed, r.trial_index)
        x = sample_design(cfg.covariance.spectrum, cfg.n, rng).entries
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


@pytest.mark.parametrize("threads,cpus", [(1, None), (2, None), (2, 1)],
                         ids=["1", "2", "2-on-one-cpu"])
@pytest.mark.parametrize("scan", [False, True], ids=["run", "scan"])
def test_failure_reports_trial_and_partial_count(monkeypatch, threads, cpus, scan):
    # At any worker count, however many CPUs the pool gets, a run stops at its
    # first failure with the trials before it.  A scan reports the first grid
    # point's records, as a run there would.
    if cpus:
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
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
    assert str(err) == "trial 3 failed: synthetic failure (3 earlier trial(s) preserved)"
    assert err.partial == reference.records[:3]


class _InlineThread:
    """Stands in for threading.Thread: records each helper and runs it inline."""

    started: list = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.started.append(self)
        self.target(*self.args)

    def is_alive(self):
        return False


@pytest.mark.parametrize(
    "affinity,cpu_count,threads,trials,workers",
    [pytest.param(3, 64, 10**6, 8, 3, id="3-1000000-8-3"),
     pytest.param(3, 64, 2, 8, 2, id="3-2-8-2"),
     pytest.param(64, 64, 10**6, 5, 5, id="64-1000000-5-5"),
     pytest.param(None, None, 4, 8, 1, id="None-4-8-1"),
     pytest.param(2, 64, 4, 1, 1, id="2-4-1-1"),
     pytest.param(1, 64, 2, 8, 1, id="1-2-8-1"),
     pytest.param(None, 3, 10**6, 8, 3, id="no-affinity-3-1000000-8-3")],
)
def test_pool_is_clamped_to_cores_and_trials(monkeypatch, affinity, cpu_count, threads, trials,
                                              workers):
    # affinity: the CPUs this process may run on (None: no such call on the
    # platform), which wins over the machine's cpu_count (None: unknown).
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpu_count)
    if affinity:
        monkeypatch.setattr(experiments.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)
    else:
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.threading, "Thread", _InlineThread)
    monkeypatch.setattr(_InlineThread, "started", [])
    cfg = flat_config(trials=trials)
    assert run_experiment(cfg, threads=threads).records == run_experiment(cfg).records
    snr_scan(cfg, [0.1, 10.0], threads=threads)
    assert len(_InlineThread.started) == 2 * (workers - 1)  # the caller is the other worker


def test_a_failing_task_stops_a_pooled_run(monkeypatch):
    # The helper runs inline, so it meets the failure alone: it stops there, and
    # the caller, finding the stop set, starts no task either.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(experiments.threading, "Thread", _InlineThread)
    monkeypatch.setattr(_InlineThread, "started", [])
    calls = []

    def task(i):
        calls.append(i)
        if i == 3:
            raise RuntimeError("synthetic failure")
        return i

    with pytest.raises(ExperimentError) as info:
        experiments._map_trials(task, 1000, threads=2)
    assert len(_InlineThread.started) == 1
    assert calls == [0, 1, 2, 3]
    assert (info.value.trial_index, info.value.partial) == (3, (0, 1, 2))


def test_a_helper_that_cannot_start_stops_the_started_ones(monkeypatch):
    # As under a process limit: the error reaches the caller only once the
    # helper already running has stopped, so no trial runs after the return.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    real, started, done = threading.Thread, [], []

    class Thread(real):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    def task(i):
        time.sleep(0.001)
        done.append(i)
        return i

    monkeypatch.setattr(experiments.threading, "Thread", Thread)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        experiments._map_trials(task, 10**4, threads=3)
    count = len(done)
    time.sleep(0.05)
    assert not started[0].is_alive() and len(done) == count < 10**4


def _two_cpus(monkeypatch):
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_every_index_runs_once_under_contention(monkeypatch):
    # More workers than cores, switching threads as often as possible: an index
    # taken twice or skipped by the shared iterator shows in the counts.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    calls = [0] * 2000

    def task(i):
        calls[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert experiments._map_trials(task, 2000, threads=8) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert calls == [1] * 2000


def test_a_failure_under_contention_keeps_exactly_the_earlier_trials(monkeypatch):
    # Every index below the failing one was taken before it, and its worker
    # finishes it before the join, however the threads interleave.
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)

    def task(i):
        if i == 500:
            raise RuntimeError("synthetic failure")
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ExperimentError) as info:
            experiments._map_trials(task, 2000, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert (info.value.trial_index, info.value.partial) == (500, tuple(range(500)))


def test_an_interrupt_in_the_callers_trial_stops_every_worker(monkeypatch):
    _two_cpus(monkeypatch)
    helper_busy = threading.Event()
    starts, seen = [], []

    def task(i):
        starts.append(i)
        if threading.current_thread() is threading.main_thread():
            assert helper_busy.wait(timeout=30)
            seen.append(len(starts))
            raise KeyboardInterrupt
        helper_busy.set()
        time.sleep(0.05)
        return i

    with pytest.raises(KeyboardInterrupt):
        experiments._map_trials(task, 200, threads=2)
    assert len(starts) - seen[0] <= 1  # the helper starts at most one more trial


def test_a_base_exception_in_a_helper_reaches_the_caller(monkeypatch):
    _two_cpus(monkeypatch)
    helper_failed = threading.Event()
    callers = []

    def task(i):
        if threading.current_thread() is threading.main_thread():
            callers.append(i)
            assert helper_failed.wait(timeout=30)
            time.sleep(0.005)
            return i
        helper_failed.set()
        raise SystemExit(4)

    with pytest.raises(SystemExit) as info:
        experiments._map_trials(task, 200, threads=2)
    assert info.value.code == 4
    assert len(callers) < 10  # the caller stops too, not after all 199 other trials


@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_in_the_callers_numpy_error_state(threads):
    with np.errstate(over="raise", invalid="ignore"):
        states = experiments._map_trials(lambda i: np.geterr(), 3, threads)
    assert [(s["over"], s["invalid"]) for s in states] == [("raise", "ignore")] * 3


def test_plain_openblas_thread_symbols_are_found(monkeypatch):
    # A distro or conda OpenBLAS exports only the unprefixed names.
    threads = [4]

    def get():
        return threads[0]

    def set_(count):
        threads[0] = count

    experiments._hold_heap()  # before CDLL is faked; it is set once per process
    maps = "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /usr/lib/libopenblas.so.0\n"
    monkeypatch.setattr(experiments, "open", lambda *args, **kwargs: io.StringIO(maps),
                        raising=False)
    loaded = []
    monkeypatch.setattr(experiments.ctypes, "CDLL", lambda name: loaded.append(name) or
                        types.SimpleNamespace(openblas_get_num_threads=get,
                                              openblas_set_num_threads=set_))
    experiments._openblas_thread_calls.cache_clear()
    try:
        assert experiments._openblas_thread_calls() == (get, set_)
        assert experiments._map_trials(lambda i: get(), 3, 1) == [1, 1, 1]
    finally:
        experiments._openblas_thread_calls.cache_clear()
    assert loaded == ["/usr/lib/libopenblas.so.0"]
    assert threads == [4]


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

    def spy(configs, trial_index):
        seen.append(get())
        if trial_index == 5:
            raise RuntimeError("synthetic failure")
        return real(configs, trial_index)

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

    def spy(configs, trial_index):
        seen.append(get())
        return real(configs, trial_index)

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


@pytest.mark.parametrize("p, n, value", [(2000, 20, 1.0), (2000, 100, 1.0), (500, 50, 4.0)])
def test_certificate_study_median_sigma_min_is_bai_yin(p, n, value):
    study = certificate_study(make_flat_spectrum(p, value), n, 1.0, 200, seed=0)
    ratio = float(np.median(study.sigma_min)) / oracles.bai_yin_sigma_min(value, p, n)
    assert ratio == pytest.approx(1.0, abs=0.03)


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


def test_certificate_study_refuses_bins_past_the_cap_before_any_design(monkeypatch):
    monkeypatch.setattr(experiments, "sample_design", lambda *a: pytest.fail("design drawn"))
    with pytest.raises(ValueError, match=r"^bins must be at most 1000000, got 1000001$"):
        certificate_study(make_flat_spectrum(50, 1.0), 5, 10.0, 2, seed=0, bins=10**6 + 1)


@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_certificate_study_checks_the_seed_before_any_design(monkeypatch, seed):
    # once "trial 0 failed: seed must be ...", raised from inside the trial loop
    monkeypatch.setattr(experiments, "sample_design", lambda *a: pytest.fail("design drawn"))
    with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {seed}$"):
        certificate_study(make_flat_spectrum(50, 1.0), 5, 1.0, 3, seed)


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
