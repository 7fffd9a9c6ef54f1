"""Design sampling, minimum-norm fit, error functionals and the per-trial error split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BAD_ENTRIES, entry_refusal, same_floats
from ridgeless import design as design_module
from ridgeless.design import (
    DesignMatrix,
    _nonneg_sum,
    _weighted_square,
    min_norm_fit,
    sample_design,
    trial_rng,
)
from ridgeless.experiments import ExperimentConfig, run_trial
from ridgeless.noise import DeterministicNoise
from ridgeless.spectra import (
    CovarianceModel,
    Spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
)


# ---------------------------------------------------------------------------
# per-trial generator


def test_trial_rng_reproducible():
    a = trial_rng(123, 7).integers(0, 2**63, size=32)
    b = trial_rng(123, 7).integers(0, 2**63, size=32)
    assert np.array_equal(a, b)


def test_trial_rng_streams_differ():
    a = trial_rng(123, 0).integers(0, 2**63, size=32)
    b = trial_rng(123, 1).integers(0, 2**63, size=32)
    c = trial_rng(124, 0).integers(0, 2**63, size=32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_rng_validation():
    # a bool is an int instance, but no seed or index: True once drew seed 1's stream
    for seed, idx in ((-1, 0), (2**64, 0), (1.5, 0), (0, -1), (0, 2.5), (True, 0), (0, False)):
        with pytest.raises(ValueError):
            trial_rng(seed, idx)


# ---------------------------------------------------------------------------
# design container


def test_design_rejects_p_below_n():
    with pytest.raises(ValueError, match="p=2 < n=3"):
        DesignMatrix(np.ones((3, 2)))


def test_design_rejects_non_finite():
    with pytest.raises(ValueError, match="^design entries must be finite$"):
        DesignMatrix(np.array([[1.0, math.nan]]))
    with pytest.raises(ValueError, match="^design entries must be finite$"):
        DesignMatrix(np.array([[1.0, math.inf]]))
    # an entry that is no number is named by its row and column, never coerced
    for bad in BAD_ENTRIES:
        with pytest.raises(ValueError, match=entry_refusal("design entries[1][0]", bad)):
            DesignMatrix([[1.0, 2.0, 3.0], [bad, 5.0, 6.0]])
    for bad in (np.ones(3), [[]], np.ones((1, 1, 1))):  # 1-d, empty or 3-d
        with pytest.raises(ValueError, match="^design entries must be a non-empty 2-d array$"):
            DesignMatrix(bad)
    # ints, integer arrays and float arrays keep their bits
    for good in ([[1, 2, 3]], np.arange(6).reshape(2, 3), np.ones((2, 3))):
        assert same_floats(DesignMatrix(good).entries, good)


def test_design_entries_read_only():
    a = np.ones((2, 3))
    d = DesignMatrix(a)
    with pytest.raises(ValueError):
        d.entries[0, 0] = 5.0
    a[0, 0] = 5.0  # a copy: the caller's array stays its own
    assert d.entries[0, 0] == 1.0 and a.flags.writeable


# ---------------------------------------------------------------------------
# sampling


def test_sample_design_zero_eigenvalue_kills_column():
    x = sample_design(Spectrum(np.array([1.0, 0.0])), 1, trial_rng(0, 0))
    assert np.all(x.entries[:, 1] == 0.0)
    assert x.entries[0, 0] != 0.0


def test_sample_design_column_variances():
    # rank(diag(2,1)) = 2 caps each draw at n = 2, so pool 50k independent
    # draws into 1e5 i.i.d. rows for the moment check
    spectrum = Spectrum(np.array([2.0, 1.0]))
    rng = trial_rng(42, 0)
    x = np.vstack([sample_design(spectrum, 2, rng).entries for _ in range(50_000)])
    assert np.var(x[:, 0]) == pytest.approx(2.0, rel=0.03)
    assert np.var(x[:, 1]) == pytest.approx(1.0, rel=0.03)
    assert abs(np.mean(x[:, 0] * x[:, 1])) < 0.03


class _StubRng:
    """Hands back a fixed Gaussian block, for exact-construction checks."""

    def __init__(self, block):
        self.block = block

    def standard_normal(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


def test_sample_design_construction():
    # the draw is G sqrt(Lambda) for the Gaussian block G, bit for bit (scaled in
    # place), and read-only as a copied design is
    rng = np.random.default_rng(5)
    spectrum = Spectrum(np.array([3.0, 1.0, 0.5]))
    g = rng.standard_normal((3, 3))
    entries = sample_design(spectrum, 3, _StubRng(g)).entries
    assert entries.tobytes() == (g * np.sqrt(spectrum.values)).tobytes()
    with pytest.raises(ValueError):
        entries[0, 0] = 5.0


def test_sample_design_deterministic():
    spectrum = make_flat_spectrum(6, 1.0)
    a = sample_design(spectrum, 4, trial_rng(9, 3)).entries
    b = sample_design(spectrum, 4, trial_rng(9, 3)).entries
    assert np.array_equal(a, b)


def test_sample_design_rank_below_n():
    with pytest.raises(ValueError):
        sample_design(Spectrum(np.array([1.0, 0.0])), 2, trial_rng(0, 0))


@pytest.mark.parametrize("n", [0, True])
def test_sample_design_refuses_n(n):
    # True once reached numpy as a shape and failed there with a TypeError
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
        sample_design(make_flat_spectrum(6, 1.0), n, trial_rng(0, 0))


# ---------------------------------------------------------------------------
# minimum-norm fit


def test_fit_single_row_example():
    x, y = np.array([[1.0, 1.0]]), np.array([2.0])
    beta_hat = min_norm_fit(DesignMatrix(x), y)
    assert beta_hat == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.linalg.norm(x @ beta_hat - y) < 1e-12


def test_fit_diagonal_example():
    x = DesignMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    assert min_norm_fit(x, [1.0, 2.0]) == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)
    assert x.sigma_min() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_fit_matches_normal_equations_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = n + int(rng.integers(0, 13))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    beta_hat = min_norm_fit(DesignMatrix(x), y)
    want = oracles.min_norm_oracle(x, y)
    assert np.linalg.norm(beta_hat - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)


@pytest.mark.parametrize("seed", range(10))
def test_fit_is_minimum_norm(seed):
    # adding any null-space direction cannot shrink the norm
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((4, 9))
    beta_hat = min_norm_fit(DesignMatrix(x), rng.standard_normal(4))
    _, _, vt = np.linalg.svd(x, full_matrices=True)
    base = np.linalg.norm(beta_hat)
    for k in range(vt.shape[0] - 4):
        for t in (-2.0, 0.7):
            assert np.linalg.norm(beta_hat + t * vt[4 + k]) >= base - 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_fit_lies_in_row_space(seed):
    rng = np.random.default_rng(seed + 200)
    x = rng.standard_normal((5, 12))
    beta_hat = min_norm_fit(DesignMatrix(x), rng.standard_normal(5))
    proj = np.linalg.pinv(x) @ x @ beta_hat
    assert np.linalg.norm(proj - beta_hat) <= 1e-8 * np.linalg.norm(beta_hat)


def test_fit_rank_deficient_reports_residual():
    # duplicated row with inconsistent targets: no interpolant exists; the fit is
    # the least-squares one of the rank-1 truncated SVD, which leaves sqrt(2)
    x, y = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]), np.array([1.0, 3.0])
    beta_hat = min_norm_fit(DesignMatrix(x), y)
    assert _rel(beta_hat, oracles.truncated_svd_fit(x, y, 1e-10)) <= 1e-12
    assert np.linalg.norm(x @ beta_hat - y) == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_fit_zero_design():
    design = DesignMatrix(np.zeros((2, 4)))
    assert np.all(min_norm_fit(design, [1.0, 2.0]) == 0.0)
    assert design.sigma_min() == 0.0


def test_fit_target_shape_checked():
    with pytest.raises(ValueError):
        min_norm_fit(DesignMatrix(np.ones((2, 3))), [1.0])


def test_fit_interpolates_exactly_at_p_equals_n():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((50, 50))
    beta = rng.standard_normal(50)
    beta_hat = min_norm_fit(DesignMatrix(x), x @ beta)
    assert np.linalg.norm(beta_hat - beta) <= 1e-8 * np.linalg.norm(beta)


# ---------------------------------------------------------------------------
# singular values


def test_smallest_singular_value_examples():
    assert DesignMatrix(np.array([[3.0, 0.0], [0.0, 4.0]])).sigma_min() == pytest.approx(3.0, rel=1e-12)
    assert DesignMatrix(np.array([[1.0, 0.0, 0.0]])).sigma_min() == pytest.approx(1.0, rel=1e-12)
    assert DesignMatrix(np.zeros((2, 3))).sigma_min() == 0.0  # no Gram path: w_min = 0


def test_smallest_singular_value_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 20))
    got = DesignMatrix(x).sigma_min()
    assert got == pytest.approx(oracles.smallest_singular_value(x), rel=1e-12)


# ---------------------------------------------------------------------------
# Gram factorization and its thin-SVD fallback


class _SvdOnly(DesignMatrix):
    """A design whose Gram path is switched off: every caller takes the thin SVD."""

    def gram(self):
        return None


GRAM_DESIGNS = {
    "flat-2000-20": (make_flat_spectrum(2000, 1.0), 20),
    "exp-floor-300-100": (make_exp_floor_spectrum(300, 20, 1e-4), 100),
    "three-level-2000-100": (make_three_level_spectrum(10, 50, 2000, 1e-2, 1e-5), 100),
}


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


@pytest.mark.parametrize("name", GRAM_DESIGNS)
@pytest.mark.parametrize("seed", range(4))
def test_gram_fit_matches_svd_fit_and_normal_equations(name, seed):
    spectrum, n = GRAM_DESIGNS[name]
    rng = trial_rng(seed, 0)
    design = sample_design(spectrum, n, rng)
    y = rng.standard_normal(n)
    w = design.gram()[0]
    svd_only = _SvdOnly(design.entries)
    gram_fit, svd_fit = min_norm_fit(design, y), min_norm_fit(svd_only, y)
    assert _rel(gram_fit, svd_fit) <= 1e-10
    assert _rel(gram_fit, oracles.min_norm_oracle(design.entries, y)) <= 1e-10
    assert _rel(svd_fit, oracles.truncated_svd_fit(design.entries, y, 1e-10)) <= 1e-10
    sigma = oracles.smallest_singular_value(design.entries)
    for got in (design.sigma_min(), svd_only.sigma_min()):
        assert got == pytest.approx(sigma, rel=1e-10)
    # an eigenvector is as accurate as its eigengap allows: scale by w_max / gap
    u, u_svd = design.worst_direction(), svd_only.worst_direction()
    assert _rel(u, u_svd) <= 1e-10 * w[-1] / (w[1] - w[0])
    assert np.linalg.norm(design.entries.T @ u) == pytest.approx(sigma, rel=1e-10)


def test_ill_conditioned_square_design_falls_back_to_svd():
    # at p = n the smallest singular value is often tiny: trial 15 of seed 0
    # has w_min / w_max near 1e-7, below the Gram cutoff of 1e-6
    rng = trial_rng(0, 15)
    design = sample_design(make_flat_spectrum(60, 1.0), 60, rng)
    y = rng.standard_normal(60)
    sv = np.linalg.svd(design.entries, compute_uv=False)
    assert (sv[-1] / sv[0]) ** 2 < 1e-6
    assert design.gram() is None
    fit, reference = min_norm_fit(design, y), min_norm_fit(_SvdOnly(design.entries), y)
    assert np.array_equal(fit, reference)
    assert _rel(fit, oracles.truncated_svd_fit(design.entries, y, 1e-10)) <= 1e-8  # rank 60
    assert design.sigma_min() == float(design.svd()[1][-1])
    assert np.array_equal(design.worst_direction(), _SvdOnly(design.entries).worst_direction())


def test_rank_cutoff_must_lie_between_zero_and_one():
    # at 1 or above every singular value is cut, and the fit would be silently zero
    design = sample_design(make_flat_spectrum(20, 1.0), 5, trial_rng(5, 0))
    for bad in (0.0, -0.5, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^rel_tol must be in \(0, 1\), got "):
            min_norm_fit(design, np.ones(5), bad)


def test_rank_cutoff_above_the_spread_falls_back_to_svd():
    # rel_tol 0.9 cuts genuine singular values of a well-conditioned design:
    # the fit is the truncated SVD one, and no longer interpolates
    rng = trial_rng(5, 0)
    design = sample_design(make_flat_spectrum(200, 1.0), 5, rng)
    y = rng.standard_normal(5)
    assert design.gram() is not None
    sv = np.linalg.svd(design.entries, compute_uv=False)
    assert 1 <= np.count_nonzero(sv > 0.9 * sv[0]) < 5
    fit, reference = min_norm_fit(design, y, 0.9), min_norm_fit(_SvdOnly(design.entries), y, 0.9)
    assert np.array_equal(fit, reference)
    assert _rel(fit, oracles.truncated_svd_fit(design.entries, y, 0.9)) <= 1e-10
    assert np.linalg.norm(design.entries @ fit - y) > 0


# ---------------------------------------------------------------------------
# error functionals


def _one_gap(spectrum, d) -> float:
    """_weighted_square of a one-row stack."""
    return _weighted_square(spectrum, d[None])[0]


def test_prediction_error_diagonal_example():
    spectrum = Spectrum(np.array([4.0, 1.0]))
    assert _one_gap(spectrum, np.array([1.0, 1.0])) == pytest.approx(5.0, rel=1e-14)
    assert _one_gap(spectrum, np.array([2.0, 3.0]) - np.array([2.0, 3.0])) == 0.0


def _fsum_per_element(v) -> float:
    """Reference sum: math.fsum over one float() conversion per element."""
    return math.fsum(map(float, v))


def test_prediction_error_sum_is_bit_identical_to_per_element_fsum():
    # fsum is correctly rounded, so converting the terms in one tolist()
    # call cannot change the sum, even when the terms cancel.
    rng = np.random.default_rng(5)
    for p in (1, 7, 2000):
        spectrum = Spectrum(np.sort(rng.exponential(size=p))[::-1].copy())
        bh, bs = rng.standard_normal(p), rng.standard_normal(p)
        d = bh - bs
        want = _fsum_per_element(spectrum.values * d * d)
        assert _one_gap(spectrum, bh - bs).hex() == want.hex()
    big = rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, size=1000)
    for v in (
        np.array([1e16, 1.0, -1e16, 1e-16, -1.0]),
        np.array([0.1] * 10 + [-1.0]),
        np.concatenate([big, -big[::-1], [3e-300]]),
        rng.standard_normal(2000),
    ):
        assert math.fsum(v.tolist()).hex() == _fsum_per_element(v).hex()


# ---------------------------------------------------------------------------
# the certified extended-precision sum behind the prediction error

needs_extended = pytest.mark.skipif(
    not design_module._EXTENDED, reason="the fast path needs the x87 long double"
)


def _outcome(f, t):
    """f(t)'s bits, or the type of the error it raises."""
    try:
        return f(t).hex()
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
    low=st.integers(-1100, 1030),
    spread=st.sampled_from([0, 1, 10, 60, 300, 2100]),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
    special=st.sampled_from([None, math.inf, math.nan]),
)
def test_nonneg_sum_has_the_bits_of_fsum(p, seed, low, spread, zeros, special):
    # mantissas in [0, 1) times 2^e, e in [low, low + spread] up to 1024 (every term
    # finite): wide exponent spreads, subnormals, terms that flush to zero and sums
    # that overflow; then zeros and an inf or a nan
    rng = np.random.default_rng(seed)
    e = rng.integers(low, low + spread, size=p, endpoint=True)
    t = np.ldexp(rng.random(p), np.minimum(e, 1024))
    t[rng.random(p) < zeros] = 0.0
    if special is not None:
        t[rng.integers(p)] = special
    assert _outcome(_nonneg_sum, t) == _outcome(lambda v: math.fsum(v.tolist()), t)


def test_nonneg_sum_overflow_raises_on_both_paths(monkeypatch):
    big = np.array([1.7976931348623157e308, 1e292])  # exact sum is past the overflow threshold
    with pytest.raises(OverflowError):
        math.fsum(big.tolist())
    with pytest.raises(OverflowError):
        _nonneg_sum(big)
    monkeypatch.setattr(design_module, "_EXTENDED", False)
    with pytest.raises(OverflowError):
        _nonneg_sum(big)


def _counting_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(terms):
        calls.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


@needs_extended
@pytest.mark.parametrize(
    "terms,want",
    [
        ([1.0, 2.0**-53], 1.0),  # exact tie, to even below
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # exact tie, to even above
        ([1.0, 2.0**-53, 2.0**-100], 1.0 + 2.0**-52),  # past the tie by less than s resolves
        ([1.0, 2.0**-53 - 2.0**-106], 1.0),  # short of the tie by less than s resolves
        ([0.5, 0.5 - 2.0**-54], 1.0),  # tie below a power of two, where the gap halves
        ([1.0, 2.0**-54, 2.0**-54], 1.0),  # a tie built from two terms
    ],
    ids=["tie-down", "tie-up", "above-tie", "below-tie", "binade-tie", "two-term-tie"],
)
def test_near_ties_take_the_fsum_fallback(terms, want, monkeypatch):
    t = np.array(terms)
    calls = _counting_fsum(monkeypatch)
    assert _nonneg_sum(t).hex() == want.hex()
    assert calls == [t.size]


@needs_extended
def test_ordinary_sums_take_the_fast_path(monkeypatch):
    # exact sums (r = 0) always pass the certificate; random ones mostly do
    exact = [np.arange(1.0, p + 1) for p in (1, 2, 7, 2000)]
    rng = np.random.default_rng(8)
    drawn = [rng.standard_normal(2000) ** 2 for _ in range(200)]
    want = [math.fsum(t.tolist()).hex() for t in exact + drawn]
    calls = _counting_fsum(monkeypatch)
    assert [_nonneg_sum(t).hex() for t in exact] == want[: len(exact)]
    assert calls == []
    assert [_nonneg_sum(t).hex() for t in drawn] == want[len(exact):]
    assert len(calls) < 40  # 14 of 200 fall back: where s lies within 2b u s of a tie


def test_trial_loop_kernel_has_the_bits_of_fsum():
    # the trial loop passes Delta = beta_hat - beta* itself to the kernel
    rng = np.random.default_rng(9)
    spectrum = Spectrum(np.sort(rng.exponential(size=50))[::-1].copy())
    bh, bs = rng.standard_normal(50), rng.standard_normal(50)
    d = bh - bs
    want = math.fsum(((spectrum.values * d) * d).tolist())
    assert _one_gap(spectrum, bh - bs).hex() == want.hex()


@pytest.mark.parametrize("rotated", [False])
def test_each_row_of_a_stack_has_the_bits_of_its_own_sum(rotated):
    # a stack's rows are summed one by one, each certified (or falling back) alone
    rng = np.random.default_rng(12)
    spectrum = Spectrum(np.sort(rng.exponential(size=300))[::-1].copy())
    d = rng.standard_normal((25, 300)) * 10.0 ** rng.integers(-160, 150, size=(25, 1))
    d[3] = 0.0  # a zero sum, which takes math.fsum
    stacked = _weighted_square(spectrum, d)
    assert [v.hex() for v in stacked] == [_one_gap(spectrum, row).hex() for row in d]
    assert [v.hex() for v in stacked] == [
        math.fsum(((spectrum.values * r) * r).tolist()).hex() for r in d]


def fixed_trial(p, n, seed, trial_index):
    """One run_trial record with beta* and the noise fixed in advance."""
    rng = np.random.default_rng(seed)
    beta_star = rng.standard_normal(p)
    xi = rng.standard_normal(n)
    config = ExperimentConfig(
        covariance=CovarianceModel(make_flat_spectrum(p, 1.0)),
        n=n,
        noise_model=DeterministicNoise(values=xi),
        trials=trial_index + 1,
        seed=seed,
        beta_values=beta_star,
    )
    return run_trial([config], trial_index)[0], beta_star, xi


@pytest.mark.parametrize("seed", range(10))
def test_prediction_plus_deviation_identity(seed):
    # on an interpolating fit, X Delta = xi, so pred + dev = ||xi||^2 / n
    rec, _, xi = fixed_trial(30, 10, 2024, seed)
    want = float(xi @ xi) / 10.0
    assert rec.pred_error + rec.deviation == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("seed", range(10))
def test_deterministic_estimation_bound(seed):
    # ||Delta|| <= ||beta*|| + ||xi|| / sigma_n for any interpolating fit
    rec, beta_star, xi = fixed_trial(40, 8, 99, seed)
    bound = np.linalg.norm(beta_star) + np.linalg.norm(xi) / rec.sigma_min
    assert math.sqrt(rec.est_error) <= bound + 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_pseudo_inverse_decomposition(seed):
    # beta_hat - beta* = (X^+ X - I) beta* + X^+ xi
    rng = trial_rng(123, seed)
    x = rng.standard_normal((6, 15))
    beta_star = rng.standard_normal(15)
    xi = rng.standard_normal(6)
    beta_hat = min_norm_fit(DesignMatrix(x), x @ beta_star + xi)
    pinv = np.linalg.pinv(x)
    want = (pinv @ x - np.eye(15)) @ beta_star + pinv @ xi
    got = beta_hat - beta_star
    assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1.0)
