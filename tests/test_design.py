"""Design sampling, minimum-norm fit, error functionals and the per-trial error split."""

import math

import numpy as np
import pytest

import oracles
from ridgeless.design import (
    DesignMatrix,
    min_norm_fit,
    prediction_error,
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


def random_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


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
    for seed, idx in ((-1, 0), (2**64, 0), (1.5, 0), (0, -1), (0, 2.5)):
        with pytest.raises(ValueError):
            trial_rng(seed, idx)


# ---------------------------------------------------------------------------
# design container


def test_design_rejects_p_below_n():
    with pytest.raises(ValueError, match="p=2 < n=3"):
        DesignMatrix(np.ones((3, 2)))


def test_design_rejects_non_finite():
    with pytest.raises(ValueError):
        DesignMatrix(np.array([[1.0, math.nan]]))
    with pytest.raises(ValueError):
        DesignMatrix(np.array([[1.0, math.inf]]))


def test_design_entries_read_only():
    d = DesignMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        d.entries[0, 0] = 5.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_design_zero_eigenvalue_kills_column():
    cov = CovarianceModel(Spectrum(np.array([1.0, 0.0])))
    x = sample_design(cov, 1, trial_rng(0, 0))
    assert np.all(x.entries[:, 1] == 0.0)
    assert x.entries[0, 0] != 0.0


def test_sample_design_column_variances():
    # rank(diag(2,1)) = 2 caps each draw at n = 2, so pool 50k independent
    # draws into 1e5 i.i.d. rows for the moment check
    cov = CovarianceModel(Spectrum(np.array([2.0, 1.0])))
    rng = trial_rng(42, 0)
    x = np.vstack([sample_design(cov, 2, rng).entries for _ in range(50_000)])
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


def test_sample_design_rotation_construction():
    # rotated draw is (G sqrt(Lambda)) Q^T for the same Gaussian block G
    rng = np.random.default_rng(5)
    q = random_orthogonal(rng, 3)
    spectrum = Spectrum(np.array([3.0, 1.0, 0.5]))
    g = rng.standard_normal((3, 3))
    plain = sample_design(CovarianceModel(spectrum), 3, _StubRng(g)).entries
    rotated = sample_design(CovarianceModel(spectrum, rotation=q), 3, _StubRng(g)).entries
    assert np.allclose(plain, g * np.sqrt(spectrum.values), atol=0)
    assert np.max(np.abs(rotated - plain @ q.T)) < 1e-15


def test_sample_design_rotation_covariance():
    rng = np.random.default_rng(5)
    q = random_orthogonal(rng, 3)
    spectrum = Spectrum(np.array([3.0, 1.0, 0.5]))
    cov = CovarianceModel(spectrum, rotation=q)
    gen = trial_rng(7, 0)
    x = np.vstack([sample_design(cov, 3, gen).entries for _ in range(30_000)])
    sample_cov = x.T @ x / x.shape[0]
    dense = q @ np.diag(spectrum.values) @ q.T
    assert np.max(np.abs(sample_cov - dense)) < 0.05


def test_sample_design_deterministic():
    cov = CovarianceModel(make_flat_spectrum(6, 1.0))
    a = sample_design(cov, 4, trial_rng(9, 3)).entries
    b = sample_design(cov, 4, trial_rng(9, 3)).entries
    assert np.array_equal(a, b)


def test_sample_design_rank_below_n():
    cov = CovarianceModel(Spectrum(np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        sample_design(cov, 2, trial_rng(0, 0))


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
    design = sample_design(CovarianceModel(spectrum), n, rng)
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
    design = sample_design(CovarianceModel(make_flat_spectrum(60, 1.0)), 60, rng)
    y = rng.standard_normal(60)
    sv = np.linalg.svd(design.entries, compute_uv=False)
    assert (sv[-1] / sv[0]) ** 2 < 1e-6
    assert design.gram() is None
    fit, reference = min_norm_fit(design, y), min_norm_fit(_SvdOnly(design.entries), y)
    assert np.array_equal(fit, reference)
    assert _rel(fit, oracles.truncated_svd_fit(design.entries, y, 1e-10)) <= 1e-8  # rank 60
    assert design.sigma_min() == float(design.svd()[1][-1])
    assert np.array_equal(design.worst_direction(), _SvdOnly(design.entries).worst_direction())


def test_rank_cutoff_above_the_spread_falls_back_to_svd():
    # rel_tol 0.9 cuts genuine singular values of a well-conditioned design:
    # the fit is the truncated SVD one, and no longer interpolates
    rng = trial_rng(5, 0)
    design = sample_design(CovarianceModel(make_flat_spectrum(200, 1.0)), 5, rng)
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


def test_prediction_error_diagonal_example():
    cov = CovarianceModel(Spectrum(np.array([4.0, 1.0])))
    assert prediction_error(cov, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(5.0, rel=1e-14)
    assert prediction_error(cov, [2.0, 3.0], [2.0, 3.0]) == 0.0


def test_prediction_error_rotated_matches_dense():
    rng = np.random.default_rng(11)
    q = random_orthogonal(rng, 5)
    spectrum = Spectrum(np.sort(rng.uniform(0.1, 4.0, size=5))[::-1].copy())
    cov = CovarianceModel(spectrum, rotation=q)
    dense = q @ np.diag(spectrum.values) @ q.T
    for _ in range(20):
        bh, bs = rng.standard_normal(5), rng.standard_normal(5)
        d = bh - bs
        assert prediction_error(cov, bh, bs) == pytest.approx(
            float(d @ dense @ d), rel=1e-10, abs=1e-12
        )


def _fsum_per_element(v) -> float:
    """Reference sum: math.fsum over one float() conversion per element."""
    return math.fsum(map(float, v))


def test_prediction_error_sum_is_bit_identical_to_per_element_fsum():
    # fsum is correctly rounded, so converting the terms in one tolist()
    # call cannot change the sum, even when the terms cancel.
    rng = np.random.default_rng(5)
    for p, rotated in ((1, False), (7, False), (7, True), (2000, False)):
        spectrum = Spectrum(np.sort(rng.exponential(size=p))[::-1].copy())
        q = random_orthogonal(rng, p) if rotated else None
        cov = CovarianceModel(spectrum, rotation=q)
        bh, bs = rng.standard_normal(p), rng.standard_normal(p)
        d = bh - bs if q is None else q.T @ (bh - bs)
        want = _fsum_per_element(spectrum.values * d * d)
        assert prediction_error(cov, bh, bs).hex() == want.hex()
    big = rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, size=1000)
    for v in (
        np.array([1e16, 1.0, -1e16, 1e-16, -1.0]),
        np.array([0.1] * 10 + [-1.0]),
        np.concatenate([big, -big[::-1], [3e-300]]),
        rng.standard_normal(2000),
    ):
        assert math.fsum(v.tolist()).hex() == _fsum_per_element(v).hex()


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
    return run_trial(config, trial_index), beta_star, xi


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
