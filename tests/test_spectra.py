"""Spectrum construction, tail sums, parsing, covariance models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BAD_ENTRIES, entry_refusal, same_floats
from ridgeless.spectra import (
    CovarianceModel,
    Spectrum,
    load_spectrum,
    make_exp_floor_spectrum,
    make_flat_spectrum,
    make_three_level_spectrum,
    parse_spectrum,
)


def sorted_values(min_size=1, max_size=60):
    return st.lists(
        st.floats(min_value=1e-9, max_value=1e6), min_size=min_size, max_size=max_size
    ).map(lambda v: np.sort(np.asarray(v, dtype=float))[::-1].copy())


# ---------------------------------------------------------------------------
# builders


def test_flat_examples():
    assert list(make_flat_spectrum(3, 1.0).values) == [1.0, 1.0, 1.0]
    assert list(make_flat_spectrum(1, 2.5).values) == [2.5]
    assert make_flat_spectrum(10, 1.0).tail_sum(3) == 8.0


@pytest.mark.parametrize("p,value", [(0, 1.0), (3, 0.0), (3, -1.0), (True, 1.0), (5, True),
                                     pytest.param(3, 10**400, id="3-10**400")])
def test_flat_rejects(p, value):
    with pytest.raises(ValueError):
        make_flat_spectrum(p, value)


def test_exp_floor_examples():
    s = make_exp_floor_spectrum(2, 1.0, 0.1)
    assert s.values[0] == pytest.approx(math.exp(-1) + 0.1, abs=1e-12)
    assert s.values[1] == pytest.approx(math.exp(-2) + 0.1, abs=1e-12)
    assert s.values[0] == pytest.approx(0.46788, abs=1e-5)
    assert s.values[1] == pytest.approx(0.23534, abs=1e-5)


def test_exp_floor_rejects_zero_eps():
    with pytest.raises(ValueError):
        make_exp_floor_spectrum(1, 10.0, 0.0)
    with pytest.raises(ValueError):
        make_exp_floor_spectrum(5, 0.0, 0.1)
    with pytest.raises(ValueError, match="^p must be a positive integer, got True$"):
        make_exp_floor_spectrum(True, 1.0, 1.0)  # once built p = 1
    with pytest.raises(ValueError, match="^tau must be a positive finite number, got inf$"):
        make_exp_floor_spectrum(5, math.inf, 0.1)  # once built the flat floor


def test_exp_floor_at_a_subnormal_tau_is_its_floor():
    # k / tau overflows to inf, and exp(-inf) = 0 is the limit, not a warning
    with np.errstate(over="raise"):
        assert np.array_equal(make_exp_floor_spectrum(5, 5e-324, 0.5).values, np.full(5, 0.5))


def test_exp_floor_strictly_decreasing():
    s = make_exp_floor_spectrum(200, 7.5, 1e-3)
    assert np.all(np.diff(s.values) < 0)


def test_exp_floor_tail_bracket():
    # p=300, tau=20, eps=1e-4 at k=200: the tail holds (p-k+1) floor terms,
    # so the bracket is (p-k+1)*eps .. (p-k+1)*eps + (tau+1)*e^{-k/tau}.
    s = make_exp_floor_spectrum(300, 20.0, 1e-4)
    got = s.tail_sum(200)
    naive = oracles.naive_tail_sum(s.values, 200)
    assert got == pytest.approx(naive, rel=1e-12)
    floor_mass = (300 - 200 + 1) * 1e-4
    assert floor_mass <= got <= floor_mass + 21.0 * math.exp(-10.0)


def test_three_level_example():
    s = make_three_level_spectrum(2, 1, 5, 0.5, 0.1)
    assert list(s.values) == [1.0, 0.5, 0.5, 0.1, 0.1]


def test_three_level_no_leading_plateau():
    s = make_three_level_spectrum(1, 2, 6, 0.3, 0.2)
    assert s.values[0] == 0.3  # empty range i <= k1-1 = 0
    assert list(s.values) == [0.3, 0.3, 0.3, 0.2, 0.2, 0.2]


def test_three_level_rejects():
    with pytest.raises(ValueError):
        make_three_level_spectrum(2, 2, 4, 0.5, 0.1)  # p < k1 + c_times_n + 1
    # the levels are non-increasing from 1: eps1 in (0, 1], eps2 in (0, eps1]
    with pytest.raises(ValueError, match=r"^eps2 must be in \(0, 0\.1\], got 0\.5$"):
        make_three_level_spectrum(2, 1, 5, 0.1, 0.5)
    with pytest.raises(ValueError, match=r"^eps1 must be in \(0, 1\], got 1\.5$"):
        make_three_level_spectrum(2, 1, 5, 1.5, 0.1)
    # a bool is an int instance, but no count: (True, True, 3, ...) was once accepted
    with pytest.raises(ValueError, match="^k1 must be a positive integer, got True$"):
        make_three_level_spectrum(True, True, 3, 0.5, 0.1)
    with pytest.raises(ValueError, match="^c_times_n must be a positive integer, got True$"):
        make_three_level_spectrum(1, True, 3, 0.5, 0.1)
    with pytest.raises(ValueError, match=r"^p must be an integer >= 3, got True$"):
        make_three_level_spectrum(1, 1, True, 0.5, 0.1)
    # a level is a magnitude: a finite real number, never a bool
    with pytest.raises(ValueError, match=r"^eps2 must be in \(0, 1\.0\], got True$"):
        make_three_level_spectrum(1, 1, 3, 1.0, True)
    with pytest.raises(ValueError, match=r"^eps1 must be in \(0, 1\], got True$"):
        make_three_level_spectrum(1, 1, 3, True, 0.5)


# ---------------------------------------------------------------------------
# tail sums


def test_tail_sum_examples():
    s = make_flat_spectrum(10, 1.0)
    assert s.tail_sum(1) == 10.0
    assert s.tail_sum(3) == 8.0


def test_tail_sum_range():
    s = make_flat_spectrum(4, 1.0)
    with pytest.raises(ValueError):
        s.tail_sum(0)
    # the one-past-the-end convention r_{p+1} = 0 is allowed
    assert s.tail_sum(5) == 0.0
    with pytest.raises(ValueError):
        s.tail_sum(6)
    # a bool or a float once reached numpy's indexing (TypeError, IndexError)
    for k in (True, 2.0):
        message = rf"^tail rank must be an integer in \[1, 5\], got {k}$"
        with pytest.raises(ValueError, match=message):
            s.tail_sum(k)


def test_tail_sum_matches_naive_example():
    s = make_exp_floor_spectrum(100, 5.0, 0.01)
    assert s.tail_sum(50) == pytest.approx(oracles.naive_tail_sum(s.values, 50), rel=1e-12)


@given(sorted_values())
@settings(deadline=None)
def test_tail_sum_matches_naive(values):
    s = Spectrum(values)
    for k in range(1, s.p + 1):
        assert s.tail_sum(k) == pytest.approx(oracles.naive_tail_sum(values, k), rel=1e-12)


@given(sorted_values(min_size=2))
@settings(deadline=None)
def test_telescoping(values):
    s = Spectrum(values)
    for k in range(1, s.p):
        diff = s.tail_sum(k) - s.tail_sum(k + 1)
        lam = float(values[k - 1])
        assert abs(diff - lam) <= 1e-12 * max(lam, s.tail_sum(k), 1e-30)


@given(sorted_values(min_size=2))
@settings(deadline=None)
def test_tail_sum_non_increasing(values):
    s = Spectrum(values)
    sums = [s.tail_sum(k) for k in range(1, s.p + 2)]
    assert all(a >= b for a, b in zip(sums, sums[1:]))


def test_tiny_floor_mass_not_lost():
    # compensated summation must keep the eps*p mass of a huge flat floor
    p = 100_000
    vals = np.full(p, 1e-8)
    vals[0] = 1.0
    s = Spectrum(vals)
    assert s.tail_sum(2) == pytest.approx((p - 1) * 1e-8, rel=1e-12)


# ---------------------------------------------------------------------------
# validation


def test_spectrum_rejects_bad_input():
    for bad in ([], [0.0, 0.0], [1.0, 2.0], [1.0, -0.5], [np.nan], [np.inf]):
        with pytest.raises(ValueError):
            Spectrum(np.asarray(bad, dtype=float))
    # an entry that is no number is named, never coerced, in a list or an object array
    for bad in BAD_ENTRIES:
        for values in ([4.0, bad, 0.5], np.array([4.0, bad, 0.5], dtype=object)):
            with pytest.raises(ValueError, match=entry_refusal("spectrum values[1]", bad)):
                Spectrum(values)
    with pytest.raises(ValueError, match=r"^spectrum values\[0\]: expected a number, got True$"):
        Spectrum(np.array([True, False]))
    # ints within the float range, integer arrays and float arrays keep their bits
    for good in ([3, 2, 1], [2**1000, 1], np.arange(5, 0, -1), np.array([2.5, 1.0, 0.0])):
        assert same_floats(Spectrum(good).values, good)


def test_spectrum_allows_trailing_zeros():
    s = Spectrum(np.array([2.0, 1.0, 0.0]))
    assert s.p == 3
    assert s.tail_sum(3) == 0.0
    assert s.rank() == 2


def test_spectrum_values_read_only():
    s = make_flat_spectrum(3, 1.0)
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_trace_and_scaled():
    s = make_exp_floor_spectrum(30, 3.0, 0.05)
    assert s.trace == pytest.approx(oracles.naive_tail_sum(s.values, 1), rel=1e-12)
    doubled = Spectrum(s.values * 2.0)
    assert doubled.trace == pytest.approx(2.0 * s.trace, rel=1e-12)


def test_rank_tolerance():
    s = Spectrum(np.array([1.0, 1e-15]))
    assert s.rank() == 1
    assert Spectrum(np.array([1.0, 1e-11])).rank() == 2


# ---------------------------------------------------------------------------
# parsing


def test_parse_sorted_input():
    loaded = parse_spectrum("1.0, 0.5, 0.25")
    assert list(loaded.spectrum.values) == [1.0, 0.5, 0.25]
    assert loaded.reordered is False


def test_parse_unsorted_input_sets_flag():
    loaded = parse_spectrum("0.5, 1.0")
    assert list(loaded.spectrum.values) == [1.0, 0.5]
    assert loaded.reordered is True


def test_parse_rejects():
    for bad in ("1.0, -0.1", "", "abc", "1.0\ninf"):
        with pytest.raises(ValueError):
            parse_spectrum(bad)


def test_parse_comments_and_newlines():
    text = "# eigenvalues\n3.0\n2.0, 1.0\n# done\n"
    loaded = parse_spectrum(text)
    assert list(loaded.spectrum.values) == [3.0, 2.0, 1.0]


def test_load_spectrum_roundtrip(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("0.25\n1.0\n0.5\n")
    loaded = load_spectrum(path)
    assert list(loaded.spectrum.values) == [1.0, 0.5, 0.25]
    assert loaded.reordered is True


# ---------------------------------------------------------------------------
# covariance model


def test_covariance_diagonal_matrix():
    s = Spectrum(np.array([2.0, 1.0]))
    cov = CovarianceModel(s)
    assert cov.spectrum is s
    assert np.array_equal(oracles.covariance_matrix(cov.spectrum, np.eye(2)), np.diag([2.0, 1.0]))
