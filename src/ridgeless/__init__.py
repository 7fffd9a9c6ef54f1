"""Minimum-norm interpolation diagnostics and Monte Carlo experiments.

The package splits into spectra (eigenvalue sequences and tail sums),
diagnostics (effective-rank index, fixed-point radii, bounds, regimes),
design (Gaussian designs and the pseudo-inverse fit), noise (noise
models, each with its realization, design-independence flag and
expected norm), experiments (seeded trial harness, scans, studies), and
cli (the command-line front end).
"""

from .design import (
    DesignMatrix,
    min_norm_fit,
    prediction_error,
    sample_design,
    trial_rng,
)
from .diagnostics import (
    REGIME_HIGH,
    REGIME_LOW,
    Constants,
    DiagnosticsReport,
    InfiniteIndexError,
    complexity_radius,
    diagnose,
    effective_rank_index,
    localization_radius,
    lower_radius,
    prediction_bounds,
    regime_bounds,
    snr_and_regime,
    tail_halving_index,
)
from .experiments import (
    ALL_CHECKS,
    ExperimentConfig,
    ExperimentError,
    ExperimentResult,
    TrialRecord,
    certificate_study,
    run_experiment,
    run_trial,
    snr_scan,
)
from .noise import (
    DeterministicNoise,
    GaussianNoise,
    ModelResidualNoise,
    ScaledDirectionNoise,
    StudentTNoise,
    ZeroNoise,
    realize_noise,
)
from .spectra import (
    CovarianceModel,
    Spectrum,
    load_spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
    parse_spectrum,
)

__version__ = "0.1.0"
