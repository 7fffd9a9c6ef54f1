"""Noise models: realization, design independence, expected norms, and their config objects,
which the CLI alone reads and writes."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import BAD_ENTRIES, entry_refusal, same_floats
from ridgeless.cli import noise_from_dict, noise_to_dict
from ridgeless.design import sample_design, trial_rng
from ridgeless.noise import (
    FIRST_COORDINATE,
    UNIFORM,
    WORST_SINGULAR,
    DeterministicNoise,
    GaussianNoise,
    ModelResidualNoise,
    ScaledDirectionNoise,
    StudentTNoise,
    ZeroNoise,
)
from ridgeless.spectra import make_flat_spectrum


def small_design(seed=0, n=4, p=9):
    return sample_design(make_flat_spectrum(p, 1.0), n, trial_rng(seed, 0))


def tall_placeholder(n):
    # realization target for models that only read design.n; a design with
    # p >= n would hold n^2 entries, 10^10 at the n used below
    return SimpleNamespace(n=n)


# ---------------------------------------------------------------------------
# realization


def test_zero_noise():
    xi = ZeroNoise().realize(small_design(), None, trial_rng(0, 0))
    assert np.all(xi == 0.0) and xi.shape == (4,)


def test_gaussian_scales_exactly():
    x = small_design()
    a = GaussianNoise(sigma=1.0).realize(x, None, trial_rng(5, 1))
    b = GaussianNoise(sigma=2.5).realize(x, None, trial_rng(5, 1))
    assert np.array_equal(b, 2.5 * a)


def test_gaussian_moment():
    xi = GaussianNoise(sigma=1.0).realize(tall_placeholder(100_000), None, trial_rng(11, 0))
    assert float(xi @ xi) / 100_000 == pytest.approx(1.0, rel=0.03)


def test_student_scales_exactly():
    x = small_design()
    a = StudentTNoise(df=2.0, scale=1.0).realize(x, None, trial_rng(6, 2))
    b = StudentTNoise(df=2.0, scale=3.0).realize(x, None, trial_rng(6, 2))
    assert np.array_equal(b, 3.0 * a)


def test_deterministic_copies_values():
    model = DeterministicNoise(values=np.array([1.0, -2.0, 3.0, 0.0]))
    xi = model.realize(small_design(), None, trial_rng(0, 0))
    assert np.array_equal(xi, [1.0, -2.0, 3.0, 0.0])
    xi[0] = 99.0  # returned vector is a private copy
    assert model.values[0] == 1.0


def test_deterministic_length_mismatch():
    with pytest.raises(ValueError):
        DeterministicNoise(values=np.ones(3)).realize(small_design(), None, trial_rng(0, 0))


@pytest.mark.parametrize("direction", [WORST_SINGULAR, FIRST_COORDINATE, UNIFORM])
def test_scaled_direction_norm(direction):
    model = ScaledDirectionNoise(target_norm=2.5, direction=direction)
    xi = model.realize(small_design(), None, trial_rng(0, 0))
    assert np.linalg.norm(xi) == pytest.approx(2.5, rel=1e-12)


def test_first_coordinate_direction():
    model = ScaledDirectionNoise(target_norm=3.0, direction=FIRST_COORDINATE)
    xi = model.realize(small_design(), None, trial_rng(0, 0))
    assert np.array_equal(xi, [3.0, 0.0, 0.0, 0.0])


def test_uniform_direction():
    model = ScaledDirectionNoise(target_norm=4.0, direction=UNIFORM)
    xi = model.realize(small_design(), None, trial_rng(0, 0))
    assert xi == pytest.approx(np.full(4, 2.0), rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_worst_singular_saturates_pseudo_inverse(seed):
    # ||X^+ xi|| = target / sigma_n: the adversarial direction maps to the
    # weakest right singular vector over sigma_n
    x = small_design(seed=seed)
    target = 1.75
    model = ScaledDirectionNoise(target_norm=target, direction=WORST_SINGULAR)
    xi = model.realize(x, None, trial_rng(0, 0))
    sv = np.linalg.svd(x.entries, compute_uv=False)
    want = target / sv[-1]
    assert np.linalg.norm(np.linalg.pinv(x.entries) @ xi) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("n,p", [(4, 9), (20, 2000), (30, 30)])
@pytest.mark.parametrize("seed", range(8))
def test_worst_singular_sign_is_canonical(seed, n, p):
    # the largest-magnitude entry is positive, whatever sign the solver returns
    xi = ScaledDirectionNoise(target_norm=2.0).realize(small_design(seed, n, p), None, None)
    assert xi[np.argmax(np.abs(xi))] > 0
    assert np.linalg.norm(xi) == pytest.approx(2.0, rel=1e-12)


def test_model_residual():
    x = small_design()
    beta = np.arange(9.0) / 10.0
    f = np.array([1.0, 2.0, 3.0, 4.0])
    xi = ModelResidualNoise(f_values=f).realize(x, beta, trial_rng(0, 0))
    assert xi == pytest.approx(f - x.entries @ beta, rel=1e-14)
    # and targets X beta + xi recover f exactly
    assert x.entries @ beta + xi == pytest.approx(f, rel=1e-12)


def test_model_residual_shape_checks():
    x = small_design()
    with pytest.raises(ValueError):
        ModelResidualNoise(f_values=np.ones(3)).realize(x, np.zeros(9), trial_rng(0, 0))
    with pytest.raises(ValueError):
        ModelResidualNoise(f_values=np.ones(4)).realize(x, np.zeros(2), trial_rng(0, 0))


# ---------------------------------------------------------------------------
# validation


def test_parameter_validation():
    with pytest.raises(ValueError):
        GaussianNoise(sigma=0.0)
    with pytest.raises(ValueError):
        StudentTNoise(df=0.0, scale=1.0)
    with pytest.raises(ValueError):
        StudentTNoise(df=3.0, scale=-1.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ScaledDirectionNoise(target_norm=bad)
    with pytest.raises(ValueError):
        GaussianNoise(sigma=math.inf)
    # a bool is a Real instance, but no magnitude
    for make, name in ((GaussianNoise, "sigma"), (ScaledDirectionNoise, "target_norm"),
                       (lambda v: StudentTNoise(df=v, scale=1.0), "df")):
        with pytest.raises(ValueError, match=f"^{name} must be a .* finite number, got True$"):
            make(True)
    with pytest.raises(ValueError):
        ScaledDirectionNoise(target_norm=1.0, direction="sideways")
    with pytest.raises(ValueError):
        DeterministicNoise(values=np.array([1.0, math.nan]))
    with pytest.raises(ValueError, match="^f_values must be a non-empty 1-d array$"):
        ModelResidualNoise(f_values=np.ones((2, 2)))
    # an entry that is no number is named, never coerced
    for model, name in ((DeterministicNoise, "values"), (ModelResidualNoise, "f_values")):
        for bad in BAD_ENTRIES:
            with pytest.raises(ValueError, match=entry_refusal(f"{name}[2]", bad)):
                model([1.0, 2.0, bad])
        for good in ([1, 2, 3], np.arange(3), np.ones(3)):  # ints keep their bits
            assert same_floats(getattr(model(good), name), good)
    StudentTNoise(df=2.0, scale=1.0)  # infinite variance is allowed
    ScaledDirectionNoise(target_norm=0.0)  # zero norm is allowed


# ---------------------------------------------------------------------------
# independence tag


def test_independence_tags():
    independent = [
        ZeroNoise(),
        GaussianNoise(sigma=1.0),
        StudentTNoise(df=2.0, scale=1.0),
        DeterministicNoise(values=np.ones(3)),
        ScaledDirectionNoise(target_norm=1.0, direction=FIRST_COORDINATE),
        ScaledDirectionNoise(target_norm=1.0, direction=UNIFORM),
    ]
    for model in independent:
        assert model.design_independent is True
    dependent = [
        ScaledDirectionNoise(target_norm=1.0, direction=WORST_SINGULAR),
        ModelResidualNoise(f_values=np.ones(3)),
    ]
    for model in dependent:
        assert model.design_independent is False


def test_models_take_arrays_not_paths(tmp_path):
    # a model never opens a file: the CLI reads a path into an array first
    path = tmp_path / "xi.txt"
    path.write_text("1.0 2.0\n", encoding="utf-8")
    for cls in (DeterministicNoise, ModelResidualNoise):
        name = "values" if cls is DeterministicNoise else "f_values"
        message = f"^{name}: expected a list of numbers, got {re.escape(repr(str(path)))}$"
        with pytest.raises(ValueError, match=message):
            cls(str(path))
    assert np.array_equal(DeterministicNoise([1, 2]).values, [1.0, 2.0])


# ---------------------------------------------------------------------------
# config objects, through the CLI's reader and writer


@pytest.mark.parametrize(
    "model",
    [
        ZeroNoise(),
        GaussianNoise(sigma=0.5),
        StudentTNoise(df=2.0, scale=1.5),
        DeterministicNoise(values=np.array([1.0, -2.0])),
        ScaledDirectionNoise(target_norm=3.0, direction=WORST_SINGULAR),
        ScaledDirectionNoise(target_norm=1.0, direction=UNIFORM),
        ModelResidualNoise(f_values=np.array([0.5, 0.25])),
    ],
)
def test_dict_round_trip(model):
    back = noise_from_dict(noise_to_dict(model))
    assert type(back) is type(model)
    assert noise_to_dict(back) == noise_to_dict(model)
    assert json.loads(json.dumps(noise_to_dict(model))) == noise_to_dict(model)  # plain JSON


def test_from_dict_errors():
    with pytest.raises(ValueError, match="type must be one of"):
        noise_from_dict({"type": "pink"})
    with pytest.raises(ValueError, match=r"missing keys for type 'gaussian': \['sigma'\]"):
        noise_from_dict({"type": "gaussian"})
    with pytest.raises(ValueError, match=r"unknown keys for type 'gaussian': \['mean'\]"):
        noise_from_dict({"type": "gaussian", "sigma": 1.0, "mean": 0.0})
    with pytest.raises(ValueError, match="expected an object with a 'type' key"):
        noise_from_dict({"sigma": 1.0})
    with pytest.raises(ValueError, match="expected an object with a 'type' key, got 'gaussian'"):
        noise_from_dict("gaussian")


def test_vector_from_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("# header comment\n3.0, 1.0\n2.0\n", encoding="utf-8")
    model = noise_from_dict({"type": "deterministic", "values": str(path)})
    assert np.array_equal(model.values, [3.0, 1.0, 2.0])  # order preserved


def test_vector_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^empty vector input$"):
        noise_from_dict({"type": "deterministic", "values": str(empty)})
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^cannot parse vector entry 'oops'$"):
        noise_from_dict({"type": "model_residual", "f_values": str(bad)})
