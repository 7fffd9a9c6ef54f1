"""Noise models for the regression targets.

The bounds verified by this package place no assumption on the noise:
it may be zero, random with any distribution (including heavy tails
with infinite variance), a fixed vector, aligned with the design's
weakest singular direction (the adversarial stress case, which
saturates the pseudo-inverse norm), or the residual of an arbitrary
prediction target.

Each model is a frozen dataclass that carries its own behaviour: its
serialized type name, `realize` (the length-n noise vector for one
trial), `expected_norm_sq` (E ||xi||^2, used to aim SNR targets), and
`design_independent`.  Models whose realization depends on the sampled
design are not design-independent, so lower-bound checks, whose
hypothesis needs design rows independent of the noise, can be skipped
rather than silently misapplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .design import DesignMatrix
from .spectra import _check_number, _float_array

__all__ = [
    "ZeroNoise",
    "GaussianNoise",
    "StudentTNoise",
    "DeterministicNoise",
    "ScaledDirectionNoise",
    "ModelResidualNoise",
    "NoiseModel",
    "NOISE_TYPES",
    "WORST_SINGULAR",
    "FIRST_COORDINATE",
    "UNIFORM",
]

WORST_SINGULAR = "worst_singular"
FIRST_COORDINATE = "first_coordinate"
UNIFORM = "uniform"
_DIRECTIONS = (WORST_SINGULAR, FIRST_COORDINATE, UNIFORM)

_ZERO_SNR = "SNR undefined for zero noise"


def _check_length(what: str, size: int, n: int) -> None:
    if size != n:
        raise ValueError(f"{what} has length {size}, expected n={n}")


@dataclass(frozen=True)
class ZeroNoise:
    """No noise: the targets are exactly X beta*."""

    type_name = "zero"
    design_independent = True

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        return np.zeros(design.n)

    def expected_norm_sq(self, n: int) -> float:
        raise ValueError(_ZERO_SNR)


@dataclass(frozen=True)
class GaussianNoise:
    """i.i.d. N(0, sigma^2) entries."""

    sigma: float

    type_name = "gaussian"
    design_independent = True

    def __post_init__(self):
        _check_number("sigma", self.sigma)

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        return self.sigma * rng.standard_normal(design.n)

    def expected_norm_sq(self, n: int) -> float:
        return n * self.sigma**2


@dataclass(frozen=True)
class StudentTNoise:
    """i.i.d. scaled Student-t entries.

    df <= 2 (infinite variance) is allowed: the verified bounds depend
    only on the realized noise norm, which reports always carry.
    """

    df: float
    scale: float

    type_name = "student"
    design_independent = True

    def __post_init__(self):
        _check_number("df", self.df)
        _check_number("scale", self.scale)

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        return self.scale * rng.standard_t(self.df, size=design.n)

    def expected_norm_sq(self, n: int) -> float:
        if self.df <= 2:
            raise ValueError(
                "expected noise norm undefined for df <= 2 (infinite variance); "
                "SNR targets cannot be aimed"
            )
        return n * self.scale**2 * self.df / (self.df - 2.0)


@dataclass(frozen=True, eq=False)
class DeterministicNoise:
    """A fixed vector, independent of the design."""

    values: np.ndarray

    type_name = "deterministic"
    design_independent = True

    def __post_init__(self):
        object.__setattr__(self, "values", _float_array("values", self.values))

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        _check_length("deterministic noise", self.values.size, design.n)
        return self.values.copy()

    def expected_norm_sq(self, n: int) -> float:
        total = float(self.values @ self.values)
        if total == 0.0:
            raise ValueError(_ZERO_SNR)
        return total


@dataclass(frozen=True)
class ScaledDirectionNoise:
    """A unit direction scaled to a fixed norm.

    worst_singular: the left singular vector of the design for its
    smallest singular value, its largest-magnitude entry positive; among
    all noise of this norm it maximizes the pseudo-inverse image norm,
    making it the canonical adversarial stress case.  first_coordinate
    and uniform are fixed directions that do not look at the design.
    """

    target_norm: float
    direction: str = WORST_SINGULAR

    type_name = "scaled_direction"

    def __post_init__(self):
        _check_number("target_norm", self.target_norm, zero=True)
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )

    @property
    def design_independent(self) -> bool:
        return self.direction != WORST_SINGULAR

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        n = design.n
        if self.direction == FIRST_COORDINATE:
            xi = np.zeros(n)
            xi[0] = self.target_norm
            return xi
        if self.direction == UNIFORM:
            return np.full(n, self.target_norm / np.sqrt(n))
        return self.target_norm * design.worst_direction()

    def expected_norm_sq(self, n: int) -> float:
        if self.target_norm == 0.0:
            raise ValueError(_ZERO_SNR)
        return self.target_norm**2


@dataclass(frozen=True, eq=False)
class ModelResidualNoise:
    """Noise making the targets equal an external predictor's values: xi_i = f_i - <X_i, beta*>."""

    f_values: np.ndarray

    type_name = "model_residual"
    design_independent = False

    def __post_init__(self):
        object.__setattr__(self, "f_values", _float_array("f_values", self.f_values))

    def realize(self, design: DesignMatrix, beta_star, rng) -> np.ndarray:
        _check_length("residual noise targets", self.f_values.size, design.n)
        b = np.asarray(beta_star, dtype=float)
        if b.shape != (design.p,):
            raise ValueError(f"beta_star must have shape ({design.p},), got {b.shape}")
        return self.f_values - design.entries @ b

    def expected_norm_sq(self, n: int) -> float:
        raise ValueError(
            "expected noise norm unavailable for residual noise (it depends on "
            "the design and the coefficients)"
        )


NoiseModel = Union[
    ZeroNoise,
    GaussianNoise,
    StudentTNoise,
    DeterministicNoise,
    ScaledDirectionNoise,
    ModelResidualNoise,
]

# Every noise model by its serialized type name.
NOISE_TYPES = {cls.type_name: cls for cls in get_args(NoiseModel)}

