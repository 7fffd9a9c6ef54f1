"""A rotated covariance folded into beta*: with Gaussian rows, a run at
Sigma = Q Lambda Q^T and beta* is the run at Lambda and Q^T beta*.

The reference draws the rotated design G Lambda^{1/2} Q^T from each trial's
own stream, realizes the noise on it, and fits it by the dense normal
equations, with the prediction error taken against the dense Q Lambda Q^T.
The package never sees Q: it runs diag(Lambda) at beta_values = Q^T beta*.
"""

import numpy as np
import pytest

import oracles
from ridgeless.design import DesignMatrix, trial_rng
from ridgeless.experiments import ExperimentConfig, run_experiment
from ridgeless.noise import GaussianNoise, ScaledDirectionNoise, StudentTNoise
from ridgeless.spectra import CovarianceModel, make_flat_spectrum, make_three_level_spectrum

SPECTRA = {
    "flat-80-10": (make_flat_spectrum(80, 1.0), 10),
    "three-level-120-20": (make_three_level_spectrum(3, 10, 120, 1e-2, 1e-5), 20),
}
NOISES = {
    "gaussian": GaussianNoise(sigma=1.0),
    "student-3-1": StudentTNoise(df=3.0, scale=1.0),
    "worst-1": ScaledDirectionNoise(target_norm=1.0),
}
TRIALS, SEED = 50, 3

# Largest relative gap between a record and its rotated reference: ten times
# the worst measured over these 50 trials, 2.0e-11 (pred_error, worst-1) on the
# ill-conditioned three-level spectrum and 8e-15 on the flat one.  deviation, a
# cancelling difference, is compared at the scale ||xi||^2 / n of the identity
# it enters (measured 1.7e-11 there).
FOLD_TOL = 2e-10


def rotated_reference(spectrum, q, n, noise, beta_star):
    """(xi_norm_sq, pred_error, est_error, sigma_min, deviation) per trial, on the
    rotated design drawn as the sampler once drew it: G sqrt(Lambda), then Q^T."""
    sigma = oracles.covariance_matrix(spectrum, q)
    for t in range(TRIALS):
        rng = trial_rng(SEED, t)
        x = rng.standard_normal((n, spectrum.p))
        x *= np.sqrt(spectrum.values)
        x = x @ q.T
        xi = noise.realize(DesignMatrix(x), beta_star, rng)
        d = oracles.min_norm_oracle(x, x @ beta_star + xi) - beta_star
        pred = float(d @ sigma @ d)
        xd = x @ d
        yield (float(xi @ xi), pred, float(d @ d), oracles.smallest_singular_value(x),
               float(xd @ xd) / n - pred)


@pytest.mark.parametrize("noise", list(NOISES))
@pytest.mark.parametrize("case", list(SPECTRA))
def test_a_rotated_run_is_its_diagonal_run_at_the_folded_beta(case, noise):
    spectrum, n = SPECTRA[case]
    rng = np.random.default_rng(11)
    q, r = np.linalg.qr(rng.standard_normal((spectrum.p, spectrum.p)))
    q *= np.sign(np.diag(r))
    beta_star = rng.standard_normal(spectrum.p)
    beta_star /= np.linalg.norm(beta_star)
    config = ExperimentConfig(covariance=CovarianceModel(spectrum), n=n,
                              noise_model=NOISES[noise], trials=TRIALS, seed=SEED,
                              beta_values=q.T @ beta_star)
    records = run_experiment(config).records
    for rec, (xi_sq, pred, est, sigma_min, deviation) in zip(
            records, rotated_reference(spectrum, q, n, NOISES[noise], beta_star), strict=True):
        assert rec.xi_norm_sq == pytest.approx(xi_sq, rel=FOLD_TOL)
        assert rec.pred_error == pytest.approx(pred, rel=FOLD_TOL)
        assert rec.est_error == pytest.approx(est, rel=FOLD_TOL)
        assert rec.sigma_min == pytest.approx(sigma_min, rel=FOLD_TOL)
        assert rec.deviation == pytest.approx(deviation, abs=FOLD_TOL * xi_sq / n)
