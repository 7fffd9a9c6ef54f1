"""Effective-rank index, fixed-point radii, bounds, regimes."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ridgeless.diagnostics import (
    REGIME_HIGH,
    REGIME_LOW,
    Constants,
    complexity_radius,
    diagnose,
    effective_rank_index,
    lower_radius,
    tail_halving_index,
)
from ridgeless.spectra import (
    Spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
)


def fuzz_spectrum(draw_seed: int, max_p: int = 300) -> Spectrum:
    rng = np.random.default_rng(draw_seed)
    p = int(rng.integers(2, max_p + 1))
    return Spectrum(oracles.log_uniform_spectrum(rng, p))


# ---------------------------------------------------------------------------
# effective-rank index


def test_kstar_flat_example():
    s = make_flat_spectrum(1000, 1.0)
    assert effective_rank_index(s, 10, 10.0) == 1  # r_1/lambda_1 = 1000 >= 100


def test_kstar_spiked_example():
    s = Spectrum(np.array([100.0] + [1.0] * 100))
    # r_1/lambda_1 = 200/100 = 2 < 100; r_2/lambda_2 = 100 >= 100
    assert effective_rank_index(s, 10, 10.0) == 2


def test_kstar_geometric_infinite():
    s = Spectrum(4.0 ** -np.arange(1, 51))
    assert math.isinf(effective_rank_index(s, 10, 10.0))  # ratio < 4/3 always


def test_kstar_stops_at_zero_tail():
    s = Spectrum(np.array([4.0, 1.0, 0.0, 0.0]))
    # the 0/0 tail must not satisfy the condition as 0 >= 0
    assert math.isinf(effective_rank_index(s, 10, 10.0))


@pytest.mark.parametrize("seed", range(40))
def test_kstar_matches_scan_oracle(seed):
    s = fuzz_spectrum(seed)
    rng = np.random.default_rng(seed + 10_000)
    n = int(rng.integers(1, 50))
    c0 = float(10.0 ** rng.uniform(-2, 2))
    assert effective_rank_index(s, n, c0) == oracles.kstar_scan(s.values, n, c0)


@pytest.mark.parametrize("seed", range(15))
def test_kstar_non_decreasing_in_threshold(seed):
    # raising c0*n shrinks the qualifying set, so the infimum can only move up
    s = fuzz_spectrum(seed)
    thresholds = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
    indices = [effective_rank_index(s, 1, c0) for c0 in thresholds]
    assert all(a <= b for a, b in zip(indices, indices[1:]))


def test_kstar_scale_invariant():
    s = fuzz_spectrum(7)
    assert effective_rank_index(s, 5, 3.0) == effective_rank_index(Spectrum(s.values * 37.5), 5, 3.0)


def test_kstar_validation():
    s = make_flat_spectrum(3, 1.0)
    with pytest.raises(ValueError):
        effective_rank_index(s, 0, 1.0)
    with pytest.raises(ValueError):
        effective_rank_index(s, 3, 0.0)
    # c0 and eta are magnitudes: finite real numbers, never bools
    with pytest.raises(ValueError, match="^c0 must be a positive finite number, got True$"):
        effective_rank_index(s, 3, True)
    with pytest.raises(ValueError, match="^eta must be a positive finite number, got inf$"):
        complexity_radius(s, 3, math.inf)


def test_n_beyond_a_float_is_refused_by_name():
    # the bounds scale floats by n; 10^400 once escaped as "int too large to convert to float"
    s = make_flat_spectrum(3, 1.0)
    for call in (
        lambda n: effective_rank_index(s, n, 1.0),
        lambda n: complexity_radius(s, n, 1.0),
        lambda n: diagnose(s, n, 1.0, 1.0),
    ):
        for huge in (10**400, 10**5000):  # never written out: 5000 digits would not print
            with pytest.raises(ValueError, match=r"^n must be at most 1\.7976931348623157e\+308, "
                               "got an int beyond the float range$"):
                call(huge)
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
            call(0)
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got True$"):
            call(True)  # a bool is an int instance, but no count
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 2\.5$"):
            call(2.5)  # once accepted: the bounds took n = 2.5 samples


# ---------------------------------------------------------------------------
# localization radius


def test_rho_examples():
    # rho = ||beta*|| + 4 ||xi|| / sqrt(r_kstar); at c0 = n = 1 a flat spectrum has k* = 1
    # and r_kstar = p
    for p, beta, xi, rho in ((16, 1.0, 2.0, 3.0), (5, 0.0, 0.0, 0.0), (123, 1.0, 0.0, 1.0)):
        report = diagnose(make_flat_spectrum(p, 1.0), 1, beta, xi, Constants(c0=1.0))
        assert (report.k_star, report.r_kstar, report.rho) == (1, p, rho)


def test_rho_rejects_degenerate_tail():
    # a finite k* has r_kstar >= c0 n lambda_k* > 0; a tail that reaches zero first leaves
    # k* infinite, and rho undefined
    report = diagnose(Spectrum(np.array([4.0, 1.0, 0.0, 0.0])), 10, 1.0, 1.0)
    assert math.isinf(report.k_star) and report.rho is None and report.error is not None


# ---------------------------------------------------------------------------
# complexity radius r*


def test_r_star_flat_exact():
    s = make_flat_spectrum(1000, 1.0)
    assert complexity_radius(s, 100, 0.1) == pytest.approx(10.0, rel=1e-14)


def test_r_star_degenerate_dimension():
    assert complexity_radius(make_flat_spectrum(5, 1.0), 100, 0.1) == 0.0


def test_r_star_exp_floor_vs_bisection():
    s = make_exp_floor_spectrum(200, 10.0, 1e-3)
    got = complexity_radius(s, 50, 0.05)
    assert got == pytest.approx(oracles.r_star_bisect(s.values, 50, 0.05), rel=1e-10)


@pytest.mark.parametrize("seed", range(60))
def test_r_star_matches_bisection(seed):
    s = fuzz_spectrum(seed)
    rng = np.random.default_rng(seed + 20_000)
    n = int(rng.integers(1, 200))
    eta = float(10.0 ** rng.uniform(-3, 0.5))
    got = complexity_radius(s, n, eta)
    want = oracles.r_star_bisect(s.values, n, eta)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_r_star_monotone_in_eta_and_n(seed):
    s = fuzz_spectrum(seed)
    radii_eta = [complexity_radius(s, 10, eta) for eta in (0.01, 0.05, 0.2, 1.0)]
    assert all(a >= b for a, b in zip(radii_eta, radii_eta[1:]))
    radii_n = [complexity_radius(s, n, 0.05) for n in (1, 5, 25, 125)]
    assert all(a >= b for a, b in zip(radii_n, radii_n[1:]))


@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
@settings(deadline=None, max_examples=60)
def test_r_star_scale_covariance(seed, a):
    # scaling the spectrum by a scales the radius by sqrt(a)
    s = fuzz_spectrum(seed, max_p=80)
    base = complexity_radius(s, 7, 0.1)
    scaled = complexity_radius(Spectrum(s.values * a), 7, 0.1)
    assert scaled == pytest.approx(math.sqrt(a) * base, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_r_star_is_infimum(seed):
    # strictly below r*, the defining inequality must fail
    s = fuzz_spectrum(seed)
    n, eta = 5, 0.1
    r = complexity_radius(s, n, eta)
    if r == 0.0:
        return
    x = (r * (1.0 - 1e-6)) ** 2
    assert float(np.sum(np.minimum(s.values, x))) > eta * n * x


# ---------------------------------------------------------------------------
# lower radius r-bar


def test_r_bar_flat_example():
    # flat(10,1), rho=1, gamma ||xi||^2 = 5: T(r) = 10 r^2 on the active segment
    s = make_flat_spectrum(10, 1.0)
    got = lower_radius(s, 1.0, math.sqrt(10.0), 0.5)
    assert got == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_r_bar_zero_noise():
    assert lower_radius(make_flat_spectrum(5, 1.0), 2.0, 0.0, 0.5) == 0.0


def test_r_bar_infinite_budget():
    # trace rho^2 = 3 <= gamma ||xi||^2 = 50
    assert math.isinf(lower_radius(make_flat_spectrum(3, 1.0), 1.0, 10.0, 0.5))


def test_r_bar_exp_floor_vs_bisection():
    s = make_exp_floor_spectrum(100, 5.0, 0.01)
    got = lower_radius(s, 2.0, 3.0, 0.25)
    assert got == pytest.approx(oracles.r_bar_bisect(s.values, 2.0, 3.0, 0.25), rel=1e-10)


@pytest.mark.parametrize("seed", range(60))
def test_r_bar_matches_bisection(seed):
    s = fuzz_spectrum(seed)
    rng = np.random.default_rng(seed + 30_000)
    rho = float(10.0 ** rng.uniform(-2, 2))
    xi = float(10.0 ** rng.uniform(-2, 3))
    gamma = float(10.0 ** rng.uniform(-2, 1))
    got = lower_radius(s, rho, xi, gamma)
    want = oracles.r_bar_bisect(s.values, rho, xi, gamma)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_r_bar_monotone_in_gamma_and_xi(seed):
    s = fuzz_spectrum(seed)
    radii = [lower_radius(s, 1.0, 1.0, g) for g in (0.1, 0.5, 1.0, 2.0)]
    assert all(a <= b for a, b in zip(radii, radii[1:]))
    radii = [lower_radius(s, 1.0, x, 0.5) for x in (0.1, 1.0, 10.0)]
    assert all(a <= b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("seed", range(20))
def test_r_bar_is_supremum(seed):
    s = fuzz_spectrum(seed)
    rho, xi, gamma = 1.3, 2.0, 0.5
    r = lower_radius(s, rho, xi, gamma)
    if r == 0.0 or math.isinf(r):
        return
    x = (r * (1.0 + 1e-6)) ** 2
    assert float(np.sum(np.minimum(s.values * rho * rho, x))) > gamma * xi * xi


# ---------------------------------------------------------------------------
# tail-halving index


def test_kbar_flat_example():
    s = make_flat_spectrum(1000, 1.0)
    assert tail_halving_index(s, 1, 0.5) == 751  # need 1001-k <= 250


def test_kbar_gamma_two_collapses():
    s = fuzz_spectrum(3)
    assert tail_halving_index(s, 1, 2.0) == 1


def test_kbar_sentinel():
    # gamma so small the tail never halves enough: sentinel p+1
    s = make_flat_spectrum(10, 1.0)
    assert tail_halving_index(s, 1, 1e-9) == 11


@pytest.mark.parametrize("k_star", [0, 11, 1.0, True])
def test_kbar_refuses_k_star(k_star):
    # a bool is an int instance, but no index: True once passed as k* = 1
    s = make_flat_spectrum(10, 1.0)
    with pytest.raises(ValueError, match=rf"^k_star must be an integer in \[1, 10\], got {k_star}$"):
        tail_halving_index(s, k_star, 0.5)


def test_kbar_three_level_paper_bound():
    # eps2 <= gamma/(2-gamma) * cn/(p-k2+1) * eps1 forces k_bar <= k1 + c_times_n
    k1, cn, p, gamma = 10, 20, 10_000, 0.5
    eps1 = 0.01
    k2 = k1 + cn + 1
    eps2 = gamma / (2 - gamma) * cn / (p - k2 + 1) * eps1 * 0.9
    s = make_three_level_spectrum(k1, cn, p, eps1, eps2)
    k_star = effective_rank_index(s, 10, 0.9)
    assert k_star <= k1 + cn
    assert tail_halving_index(s, k_star, gamma) <= k1 + cn


@pytest.mark.parametrize("seed", range(30))
def test_kbar_matches_scan_oracle(seed):
    s = fuzz_spectrum(seed)
    rng = np.random.default_rng(seed + 40_000)
    k_star = int(rng.integers(1, s.p + 1))
    gamma = float(10.0 ** rng.uniform(-2, 0.5))
    assert tail_halving_index(s, k_star, gamma) == oracles.kbar_scan(s.values, k_star, gamma)


@pytest.mark.parametrize("seed", range(10))
def test_kbar_non_increasing_in_gamma(seed):
    s = fuzz_spectrum(seed)
    indices = [tail_halving_index(s, 1, g) for g in (0.05, 0.2, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(indices, indices[1:]))


def test_kbar_at_least_kstar():
    s = fuzz_spectrum(11)
    for k_star in (1, s.p // 2, s.p):
        assert tail_halving_index(s, k_star, 0.5) >= k_star


# ---------------------------------------------------------------------------
# bounds


def _bound_forms(report):
    """upper and lower bounds from the report's own fields, by their defining max/min forms."""
    floor = (report.constants.c3 * report.xi_norm) ** 2 / report.n
    lower = floor if math.isinf(report.r_bar) else min(report.r_bar * report.r_bar, floor)
    return max((report.rho * report.r_star) ** 2, floor), lower


def test_prediction_bounds_examples():
    s = make_flat_spectrum(1000, 1.0)
    # (rho r*)^2 = 3140 above the noise floor 4/10, r_bar^2 = 0.002 below it
    report = diagnose(s, 10, 1.0, 2.0)
    assert report.upper_bound == pytest.approx((1 + 8 / math.sqrt(1000)) ** 2 * 2000, rel=1e-12)
    assert report.lower_bound == pytest.approx(0.002, rel=1e-9)
    # c3 = 1000 lifts the noise floor to 4e5, above (rho r*)^2
    report = diagnose(s, 10, 1.0, 2.0, Constants(c3=1e3))
    assert (report.upper_bound, report.lower_bound) == (4e5, pytest.approx(0.002, rel=1e-9))
    # c3 = 1e-3 drops it to 4e-7, below r_bar^2
    report = diagnose(s, 10, 1.0, 2.0, Constants(c3=1e-3))
    assert report.lower_bound == pytest.approx(4e-7, rel=1e-14)
    # p <= eta n: r* = 0, so the noise floor ||xi||^2 / n is the upper bound
    assert diagnose(s, 1000, 1.0, 2.0, Constants(c0=1.0, eta=1.0)).upper_bound == 0.004
    # gamma ||xi||^2 >= trace rho^2: r_bar = inf leaves the noise floor as the lower bound
    report = diagnose(make_flat_spectrum(3, 1.0), 1, 0.0, 1.0, Constants(c0=1.0, gamma=20.0))
    assert math.isinf(report.r_bar) and report.lower_bound == 1.0
    assert diagnose(make_flat_spectrum(100, 1.0), 10, 1.0, 0.0).lower_bound == 0.0
    for cons in (Constants(), Constants(c3=1e3), Constants(c3=1e-3)):
        report = diagnose(s, 10, 1.0, 2.0, cons)
        assert (report.upper_bound, report.lower_bound) == _bound_forms(report)


def test_prediction_bounds_refuse_a_square_that_overflows():
    root = math.sqrt(1.7976931348623157e308)  # the largest float with a finite square
    report = diagnose(make_flat_spectrum(1000, 1.0), 1, 1.0, 1.0, Constants(c0=1.0, c3=root))
    assert report.upper_bound == root * root
    # rho = 1e150 and r* = sqrt(2e303) are each in range, their product is not
    with pytest.raises(ValueError, match=r"^rho \* r_star must be at most 1\.3407807929942596e"
                       r"\+154 \(its square overflows\), got 4\.47213595499958e\+301$"):
        diagnose(make_flat_spectrum(1000, 1e300), 10, 1e150, 0.0)
    # r* = 0 (p <= eta n), so only c3 * xi_norm = 2e154 overflows
    with pytest.raises(ValueError, match=r"^c3 \* xi_norm must be at most .* got 2e\+154$"):
        diagnose(make_flat_spectrum(1000, 1.0), 1000, 1.0, 1e154,
                 Constants(c0=1.0, eta=1.0, c3=2.0))


def test_regime_bounds_examples():
    s = make_flat_spectrum(1000, 1.0)
    report = diagnose(s, 100, 1.0, 0.0)
    assert report.corollary_upper == pytest.approx(9.51, rel=1e-14)  # r_50 = 951, over n=100
    assert report.corollary_lower == 0.0
    upper_noise = diagnose(s, 100, 0.0, 2.0).corollary_upper
    assert upper_noise == pytest.approx(0.04, rel=1e-14)  # ||xi||^2/n exactly


def test_regime_bounds_lower_bracket():
    cons = Constants(c0=0.5)
    xi = 3.0
    report = diagnose(make_flat_spectrum(50, 1.0), 50, 1.0, xi, cons)
    assert report.k_bar == 39  # r_39 = 12 <= r_1 / 4 = 12.5
    assert report.corollary_lower == cons.c3 * xi**2 / 39
    assert cons.c3 * xi**2 / 50 <= report.corollary_lower <= cons.c3 * xi**2


def test_regime_bounds_cn_clamped_to_p():
    # floor(c_frac*n) beyond p must clamp to the last tail sum, not error
    s = make_flat_spectrum(4, 1.0)
    upper = diagnose(s, 100, 1.0, 0.0, Constants(c0=0.01)).corollary_upper
    assert upper == pytest.approx(s.tail_sum(4) / 100, rel=1e-14)


# ---------------------------------------------------------------------------
# SNR and regime


def _snr(beta_star_norm, xi_norm, p=4):
    """(snr, threshold, regime) of a flat spectrum at n = c0 = 1, where k* = 1 and r_1 = p."""
    report = diagnose(make_flat_spectrum(p, 1.0), 1, beta_star_norm, xi_norm, Constants(c0=1.0))
    return report.snr, report.snr_threshold, report.regime


def test_snr_examples():
    assert _snr(1.0, 1.0) == (1.0, 0.25, REGIME_HIGH)


def test_snr_zero_noise_infinite():
    snr, _, regime = _snr(1.0, 0.0)
    assert math.isinf(snr) and regime == REGIME_HIGH


def test_snr_zero_signal_low():
    snr, _, regime = _snr(0.0, 2.0)
    assert snr == 0.0 and regime == REGIME_LOW


def test_snr_is_infinite_when_the_ratio_squared_overflows():
    snr, _, regime = _snr(1e100, 1e-100)
    assert math.isinf(snr) and regime == REGIME_HIGH


def test_snr_rejects_infinite_kstar():
    # r_k / lambda_k = 5 - k never reaches c0 n = 10: no regime without k*
    report = diagnose(make_flat_spectrum(4, 1.0), 1, 1.0, 1.0)
    assert math.isinf(report.k_star)
    assert (report.snr, report.snr_threshold, report.regime) == (None, None, None)


# ---------------------------------------------------------------------------
# full report


def test_diagnose_flat_example():
    report = diagnose(make_flat_spectrum(1000, 1.0), 10, 1.0, 2.0)
    assert report.k_star == 1
    assert report.r_kstar == pytest.approx(1000.0, rel=1e-14)
    assert report.rho == pytest.approx(1 + 8 / math.sqrt(1000), rel=1e-12)
    assert report.rho == pytest.approx(1.25298, abs=1e-5)
    assert report.r_star == pytest.approx(math.sqrt(2000), rel=1e-12)
    assert report.r_bar**2 == pytest.approx(2.0 / 1000, rel=1e-9)
    assert report.k_bar == 751
    assert report.snr == 0.25
    assert report.snr_threshold == pytest.approx(1e-3, rel=1e-14)
    assert report.regime == REGIME_HIGH
    assert report.error is None


def test_diagnose_zero_noise():
    report = diagnose(make_flat_spectrum(100, 1.0), 10, 1.0, 0.0)
    assert report.rho == 1.0
    assert report.r_bar == 0.0
    assert report.lower_bound == 0.0


def test_diagnose_exp_floor_paper_bound():
    # tau log10(1/eps) = 80 <= n: the effective-rank index lands within it
    report = diagnose(
        make_exp_floor_spectrum(300, 20.0, 1e-4), 100, 1.0, 1.0,
        Constants(c0=0.2),
    )
    assert report.error is None
    assert report.k_star <= 20 * math.log10(1e4) <= 100


def test_diagnose_infinite_kstar():
    report = diagnose(Spectrum(4.0 ** -np.arange(1, 51)), 10, 1.0, 1.0)
    assert math.isinf(report.k_star)
    assert report.error is not None
    assert report.trace > 0 and report.r_star is not None
    payload = asdict(report)
    assert [k for k, v in payload.items() if v is None] == [
        "r_kstar", "rho", "r_bar", "k_bar", "snr", "snr_threshold", "regime",
        "upper_bound", "lower_bound", "corollary_upper", "corollary_lower",
    ]
    assert list(payload) == list(asdict(diagnose(make_flat_spectrum(10, 1.0), 2, 1.0, 1.0)))


def test_diagnose_report_dict_field_names():
    report = diagnose(make_flat_spectrum(10, 1.0), 2, 1.0, 1.0)
    payload = asdict(report)
    for name in (
        "k_star", "r_kstar", "rho", "r_star", "r_bar", "k_bar", "snr",
        "snr_threshold", "regime", "upper_bound", "lower_bound",
        "corollary_upper", "corollary_lower", "constants",
    ):
        assert name in payload


def test_diagnose_rejects_negative_norms():
    with pytest.raises(ValueError):
        diagnose(make_flat_spectrum(4, 1.0), 2, -1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            diagnose(make_flat_spectrum(4, 1.0), 2, bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            diagnose(make_flat_spectrum(4, 1.0), 2, 1.0, bad)


def test_diagnose_refuses_norms_whose_squares_overflow():
    s = make_flat_spectrum(4, 1.0)
    for args, name in (((1e155, 0.0), "beta_star_norm"), ((1.0, 1e155), "xi_norm")):
        with pytest.raises(ValueError, match=f"^{name} must be at most 1.3407807929942596e\\+154 "
                           r"\(its square overflows\), got 1e\+155$"):
            diagnose(s, 2, *args)
    # both norms in range, but rho = 1 + 4 ||xi|| / sqrt(r_k*) is not: refused
    # before lower_radius squares it
    with pytest.raises(ValueError, match="^rho must be at most "):
        diagnose(make_flat_spectrum(100, 1e-300), 2, 1.0, 1e10)


# ---------------------------------------------------------------------------
# constants


def test_constants_defaults():
    cons = Constants()
    assert (cons.c0, cons.eta, cons.gamma, cons.c3, cons.c_frac) == (10.0, 0.05, 0.5, 1.0, 0.5)


def test_constants_cn():
    assert Constants().cn(100) == 50
    assert Constants().cn(1) == 1  # floor(0.5) clamps up to 1
    assert Constants(c_frac=1.0).cn(7) == 7


def test_constants_validation():
    for kwargs in (
        {"c0": 0.0}, {"eta": -1.0}, {"gamma": 0.0}, {"c3": -2.0},
        {"c_frac": 0.0}, {"c_frac": 1.5}, {"c0": True},
    ):
        with pytest.raises(ValueError):
            Constants(**kwargs)
    for bad in (1.5, 1 + 1e-15, 0.0, math.nan, True):  # a range: (0, 1], closed at 1
        with pytest.raises(ValueError, match=rf"^c_frac must be in \(0, 1\], got {bad!r}$"):
            Constants(c_frac=bad)
