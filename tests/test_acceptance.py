"""Acceptance gate: nine pinned end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances and runtime budgets are part of the contract; the
Monte Carlo bands were frozen from pilot runs at the recorded seeds.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
import ridgeless
from ridgeless.design import (
    DesignMatrix,
    min_norm_fit,
    sample_design,
    trial_rng,
)
from ridgeless.diagnostics import Constants, complexity_radius, effective_rank_index, lower_radius, tail_halving_index
from ridgeless.experiments import (
    CHECK_LOWER,
    CHECK_CERTIFICATE,
    ExperimentConfig,
    run_experiment,
    run_trial,
    snr_scan,
)
from ridgeless.noise import (
    DeterministicNoise,
    GaussianNoise,
    ModelResidualNoise,
    ScaledDirectionNoise,
    StudentTNoise,
    ZeroNoise,
)
from ridgeless.spectra import (
    CovarianceModel,
    Spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
)

# Constants frozen by pilot runs (seeds recorded in the tests below):
# the exp-floor estimation-bound runs use c0 = 0.5 (k* = 163, threshold
# sqrt(r_kstar)/4 = 0.0351, observed min sigma_n = 0.2245 over 500 trials);
# the scan uses c0 = 0.2 (k* = 1, SNR threshold 0.0512) and the high-SNR
# median ratio centered at 2.0 in the pilot.
EXP_FLOOR_C0 = 0.5
SCAN_C0 = 0.2
SCAN_HIGH_CENTER = 2.0


def report(number: int, ok: bool, text: str, elapsed: float | None = None) -> None:
    tag = "[PASS]" if ok else "[FAIL]"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"{tag} criterion {number}: {text}{suffix}")
    assert ok, f"criterion {number}: {text}"


def fuzz_sizes(rng, n_max, p_max):
    n = int(round(10 ** rng.uniform(0.0, math.log10(n_max))))
    p = n + int(round(10 ** rng.uniform(0.0, math.log10(max(p_max - n, 2)))))
    return n, min(p, p_max)


def fuzz_spectrum_values(rng, p):
    kind = rng.integers(0, 3)
    if kind == 0:
        return np.full(p, float(10 ** rng.uniform(-2, 2)))
    if kind == 1:
        return oracles.log_uniform_spectrum(rng, p)
    decay = np.exp(-np.arange(1, p + 1) / float(rng.uniform(1.0, p)))
    return decay + float(10 ** rng.uniform(-8, -2))


def test_criterion_1_interpolation_identity():
    # 500 fuzzed instances across every noise model: the exact algebra
    # pred + deviation = ||xi||^2 / n must hold to 1e-8 relative
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        n, p = fuzz_sizes(rng, 200, 2000)
        cov = CovarianceModel(Spectrum(fuzz_spectrum_values(rng, p)))
        kind = i % 6
        if kind == 0:
            noise = ZeroNoise()
        elif kind == 1:
            noise = GaussianNoise(sigma=float(10 ** rng.uniform(-2, 1)))
        elif kind == 2:
            noise = StudentTNoise(df=float(rng.uniform(0.5, 5.0)), scale=1.0)
        elif kind == 3:
            noise = DeterministicNoise(values=rng.standard_normal(n))
        elif kind == 4:
            noise = ScaledDirectionNoise(target_norm=float(rng.uniform(0.0, 5.0)))
        else:
            noise = ModelResidualNoise(f_values=rng.standard_normal(n))
        cfg = ExperimentConfig(
            covariance=cov, n=n, noise_model=noise, trials=1, seed=int(i),
            beta_norm=float(rng.uniform(0.0, 5.0)),
            beta_direction="random" if i % 2 else "e1",
        )
        worst = max(worst, run_trial([cfg], 0)[0].identity_residual)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-8 and elapsed < 60.0,
        f"interpolation identity residual <= 1e-8 on 500 fuzzed instances "
        f"(worst {worst:.2e})",
        elapsed,
    )


def test_criterion_2_solver_oracle():
    # min_norm_fit vs the normal-equations oracle, plus min-norm optimality
    # under null-space perturbations
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 41))
        p = 2 * n + int(rng.integers(0, 120))  # p >= 2n keeps X X^T well conditioned
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        beta_hat = min_norm_fit(DesignMatrix(x), y)
        want = oracles.min_norm_oracle(x, y)
        ok &= bool(
            np.linalg.norm(beta_hat - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)
        )
        _, _, vt = np.linalg.svd(x, full_matrices=True)
        base = np.linalg.norm(beta_hat)
        null = vt[n:]
        for _ in range(10):
            coeffs = rng.standard_normal(null.shape[0])
            v = coeffs @ null
            t = float(rng.uniform(-2.0, 2.0))
            ok &= bool(np.linalg.norm(beta_hat + t * v) >= base - 1e-10)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        2,
        ok,
        "solver matches the normal-equations oracle (1e-8, 200 instances) "
        "and is minimum-norm under 10 null perturbations each",
        elapsed,
    )


def test_criterion_3_fixed_point_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(1000):
        p = int(round(10 ** rng.uniform(math.log10(2), math.log10(5000))))
        values = oracles.log_uniform_spectrum(rng, p)
        s = Spectrum(values)
        n = int(rng.integers(1, 201))
        eta = float(10 ** rng.uniform(-3, 0))
        got = complexity_radius(s, n, eta)
        want = oracles.r_star_bisect(values, n, eta)
        ok &= math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)

        rho = float(10 ** rng.uniform(-1, 1))
        xi = float(10 ** rng.uniform(-1, 2))
        gamma = float(10 ** rng.uniform(math.log10(0.05), math.log10(2.0)))
        got_bar = lower_radius(s, rho, xi, gamma)
        want_bar = oracles.r_bar_bisect(values, rho, xi, gamma)
        if math.isinf(want_bar):
            ok &= math.isinf(got_bar)
        else:
            ok &= math.isclose(got_bar, want_bar, rel_tol=1e-10, abs_tol=1e-12)
        if not ok:
            break

    # analytic flat-spectrum values
    ok &= math.isclose(
        complexity_radius(make_flat_spectrum(1000, 1.0), 100, 0.1), 10.0, rel_tol=1e-12
    )
    ok &= tail_halving_index(make_flat_spectrum(1000, 1.0), 1, 0.5) == 751
    spiked = Spectrum(np.array([100.0] + [1.0] * 100))
    ok &= effective_rank_index(spiked, 10, 10.0) == 2  # c0 * n = 100
    elapsed = time.perf_counter() - start
    report(
        3,
        ok,
        "fixed-point radii match bisection oracles (1e-10, 1000 spectra) "
        "and the flat analytic values",
        elapsed,
    )


def test_criterion_4_estimation_bound():
    start = time.perf_counter()
    noises = [
        GaussianNoise(sigma=1.0),
        StudentTNoise(df=2.0, scale=1.0),
        ScaledDirectionNoise(target_norm=1.0),
    ]
    setups = [
        (CovarianceModel(make_flat_spectrum(2000, 1.0)), 20, Constants()),
        (
            CovarianceModel(make_exp_floor_spectrum(300, 20.0, 1e-4)),
            100,
            Constants(c0=EXP_FLOOR_C0),
        ),
    ]
    rates = []
    for cov, n, cons in setups:
        for noise in noises:
            cfg = ExperimentConfig(
                covariance=cov, n=n, noise_model=noise, trials=500,
                seed=2024, constants=cons, beta_norm=1.0,
            )
            rates.append(run_experiment(cfg, threads=4).rates["est_bound_pass_rate"])
    elapsed = time.perf_counter() - start
    report(
        4,
        all(r == 1.0 for r in rates) and elapsed < 300.0,
        "estimation bound holds in all 500 trials for both spectra and "
        "all three noise models",
        elapsed,
    )


def test_criterion_5_singular_value_certificate():
    start = time.perf_counter()

    def rate(p, n, c0, trials):  # a zero-noise run that makes the certificate check alone
        return run_experiment(ExperimentConfig(
            covariance=CovarianceModel(make_flat_spectrum(p, 1.0)), n=n, noise_model=ZeroNoise(),
            trials=trials, seed=0, constants=Constants(c0=c0),
            checks=frozenset({CHECK_CERTIFICATE}))).rates["certificate_pass_rate"]

    wide, single = rate(2000, 20, 10.0, 200), rate(1, 1, 1.0, 1000)
    gap = abs(single - oracles.HALF_NORMAL_CERT_RATE)
    elapsed = time.perf_counter() - start
    report(
        5,
        wide == 1.0 and gap <= 0.04,
        f"certificate rate 1.0 on flat 2000/20 and {single:.4f} on the "
        f"n=1 half-normal study (target {oracles.HALF_NORMAL_CERT_RATE:.4f} +/- 0.04)",
        elapsed,
    )


def test_criterion_6_phase_transition():
    start = time.perf_counter()
    s = make_exp_floor_spectrum(300, 20.0, 1e-4)
    cov = CovarianceModel(s)
    cons = Constants(c0=SCAN_C0)
    r_cn = s.tail_sum(min(cons.cn(100), s.p))
    grid = [float(v) for v in np.geomspace(1e-3, 3.0, 20)]
    third = len(grid) // 3

    ok = True
    for seed in range(5):
        cfg = ExperimentConfig(
            covariance=cov, n=100, noise_model=GaussianNoise(sigma=1.0),
            trials=50, seed=seed, constants=cons, beta_norm=0.0,
        )
        points = snr_scan(cfg, grid, threads=4)
        regimes = [pt.regime for pt in points]
        ok &= sum(1 for a, b in zip(regimes, regimes[1:]) if a != b) == 1
        for pt in points[:third]:
            xi_med = float(np.median([r.xi_norm_sq for r in pt.result.records]))
            ratio = pt.result.aggregates["pred_error"]["median"] / (xi_med / 100)
            ok &= 0.05 <= ratio <= 20.0
        high_ratios = [
            pt.result.aggregates["pred_error"]["median"] / (pt.beta_norm**2 * r_cn / 100)
            for pt in points[-third:]
        ]
        med = float(np.median(high_ratios))
        ok &= SCAN_HIGH_CENTER / 3 <= med <= SCAN_HIGH_CENTER * 3
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        6,
        ok and elapsed < 600.0,
        "one regime switch per scan, low-SNR ratios in [0.05, 20], high-SNR "
        "median within 3x of the pilot center, across 5 seeds",
        elapsed,
    )


def test_criterion_7_lower_bound_regime():
    start = time.perf_counter()
    cov = CovarianceModel(make_flat_spectrum(300, 1.0))
    cfg = ExperimentConfig(
        covariance=cov, n=100, noise_model=GaussianNoise(sigma=1.0),
        trials=200, seed=7, constants=Constants(c0=3.0), beta_norm=0.0,
    )
    result = run_experiment(cfg, threads=4)
    # the noise-floor ratio pred_error / (||xi||^2 / (n ∧ k_bar)) per trial
    denominator_index = min(cfg.n, result.diagnostics.k_bar)
    ratios = np.array(
        [r.pred_error / (r.xi_norm_sq / denominator_index) for r in result.records]
    )
    design_dependent = run_experiment(
        ExperimentConfig(
            covariance=cov, n=100,
            noise_model=ScaledDirectionNoise(target_norm=1.0),
            trials=2, seed=0, constants=Constants(c0=3.0),
        )
    )
    refused = "hypothesis violated" in design_dependent.skipped.get(CHECK_LOWER, "")
    elapsed = time.perf_counter() - start
    report(
        7,
        denominator_index == 100
        and float(ratios.min()) >= 0.01
        and 0.1 <= float(np.median(ratios)) <= 10.0
        and refused,
        f"noise-floor ratios >= 0.01 in all 200 trials (median "
        f"{float(np.median(ratios)):.3f}), design-dependent noise refused",
        elapsed,
    )


def test_criterion_8_zero_noise_and_saturation():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        covariance=CovarianceModel(make_flat_spectrum(50, 1.0)), n=50,
        noise_model=ZeroNoise(), trials=20, seed=1, beta_norm=1.0,
        beta_direction="random",
    )
    result = run_experiment(cfg)
    max_pred = max(r.pred_error for r in result.records)

    saturated = True
    for t in range(5):
        rng = trial_rng(50, t)
        design = sample_design(make_flat_spectrum(40, 1.0), 8, rng)
        xi = ScaledDirectionNoise(target_norm=2.0).realize(design, None, rng)
        lhs = float(np.linalg.norm(np.linalg.pinv(design.entries) @ xi))
        rhs = float(np.linalg.norm(xi)) / oracles.smallest_singular_value(design.entries)
        saturated &= math.isclose(lhs, rhs, rel_tol=1e-8)
    elapsed = time.perf_counter() - start
    report(
        8,
        max_pred <= 1e-12 and saturated,
        f"zero-noise square fit recovers beta* (max pred_error {max_pred:.2e}); "
        "adversarial noise saturates ||X^+ xi|| = ||xi||/sigma_n",
        elapsed,
    )


def _run_cli(args, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIDGELESS_")}
    # The child runs in tmp_path, where relative PYTHONPATH entries do not
    # resolve, so put the absolute directory of the package under test first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(ridgeless.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e]
    )
    argv = [sys.executable, "-m", "ridgeless", *args]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, (
        f"argv={argv} cwd={tmp_path} PYTHONPATH={env['PYTHONPATH']}\n{proc.stderr}"
    )
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    sim = [
        "simulate", "--flat", "200", "--n", "5", "--trials", "8",
        "--beta-norm", "1", "--noise", "gaussian:1", "--seed", "5",
        "-q", "--format", "both",
    ]
    scan = [
        "scan", "--flat", "200", "--n", "5", "--trials", "6",
        "--noise", "gaussian:1", "--snr-grid", "0.001:1:3", "--seed", "3",
        "-q", "--format", "both",
    ]
    ok = True
    for args, suffixes in ((sim, (".json", ".csv")), (scan, (".json", ".csv", ".plot.csv"))):
        outs = {}
        for label, threads in (("a", 1), ("b", 1), ("c", 8)):
            base = tmp_path / f"{args[0]}_{label}"
            _run_cli(args + ["--out", str(base), "--threads", str(threads)], tmp_path)
            outs[label] = {
                sfx: (tmp_path / f"{args[0]}_{label}{sfx}").read_bytes()
                for sfx in suffixes
            }
        ok &= outs["a"] == outs["b"]  # identical repeat
        ok &= outs["a"] == outs["c"]  # 1 vs 8 worker threads
    elapsed = time.perf_counter() - start
    report(
        9,
        ok,
        "CLI outputs byte-identical on repeat and at 1 vs 8 threads "
        "(simulate and scan, json+csv+plot)",
        elapsed,
    )
