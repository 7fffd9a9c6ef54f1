"""The whole-array forms of the O(p) spectrum paths against the scalar loops
they replaced (kept verbatim in oracles.py), compared bit for bit, plus a
call-count guard that fails as soon as a per-element loop comes back."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ridgeless import spectra
from ridgeless.diagnostics import (
    Constants,
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
    parse_numbers,
)


def _random():
    return Spectrum(oracles.log_uniform_spectrum(np.random.default_rng(11), 3000, -12.0, 6.0))


def _zero_tail():
    vals = np.zeros(500)
    vals[:120] = np.sort(np.random.default_rng(5).uniform(0.1, 3.0, 120))[::-1]
    vals[120:140] = -0.0  # sign of zero must not leak into a tail
    return Spectrum(vals)


def _tiny_floor():
    vals = np.full(100_000, 1e-8)
    vals[0] = 1.0
    return Spectrum(vals)


SPECTRA = {
    "random": _random,
    "flat": lambda: make_flat_spectrum(2000, 1.0),
    "zero-tail": _zero_tail,
    "three-level": lambda: make_three_level_spectrum(10, 50, 5000, 1e-2, 1e-5),
    "exp-floor": lambda: make_exp_floor_spectrum(20_000, 20.0, 1e-4),
    "tiny-floor": _tiny_floor,
    "pareto": lambda: Spectrum(
        np.sort(np.random.default_rng(0).pareto(1.5, 20_000) + 1e-6)[::-1].copy()
    ),
    "p=1": lambda: Spectrum(np.array([2.5])),
    "overflow": lambda: Spectrum(np.array([1e308, 1e308, 1e300, 1.0, 0.0])),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def outcome(fn, *args):
    """Return value, or the exception type and message, of fn(*args)."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def same_outcome(fn, oracle, *args) -> None:
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want
    if isinstance(want, float):
        assert same_bits(got, want)


def check_spectrum(s: Spectrum, n: int, c0: float, rho: float, xi: float, gamma: float):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the loops never warned
        _check_spectrum(s, n, c0, rho, xi, gamma)


def _check_spectrum(s, n, c0, rho, xi, gamma):
    assert same_bits(s._tails, oracles.suffix_sums_loop(s.values))
    same_outcome(effective_rank_index, oracles.effective_rank_index_loop, s, n, c0)
    same_outcome(lower_radius, oracles.lower_radius_loop, s, rho, xi, gamma)
    for k_star in sorted({1, (s.p + 1) // 2, s.p}):
        same_outcome(tail_halving_index, oracles.tail_halving_index_loop, s, k_star, gamma)


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_vectorised_paths_equal_the_loops(name):
    s = SPECTRA[name]()
    for n, c0 in ((1, 0.5), (100, 0.2), (100, 10.0), (100, 1e5)):
        for rho, xi, gamma in ((1.0, 1.0, 0.5), (0.3, 10.0, 0.05), (2.0, 0.01, 2.0)):
            check_spectrum(s, n, c0, rho, xi, gamma)


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_infinite_and_zero_tail_cases_agree(name):
    s = SPECTRA[name]()
    # an infinite effective-rank index, a radius that is infinite at once,
    # and a degenerate one (rho^2 overflows) that both forms must refuse
    assert outcome(effective_rank_index, s, 10**9, 1e9) == math.inf
    same_outcome(effective_rank_index, oracles.effective_rank_index_loop, s, 10**9, 1e9)
    same_outcome(lower_radius, oracles.lower_radius_loop, s, 1.0, 1e9, 0.5)
    same_outcome(lower_radius, oracles.lower_radius_loop, s, 1e200, 1.0, 0.5)
    assert outcome(lower_radius, s, 1e200, 1.0, 0.5) == (
        ArithmeticError, "no feasible segment for the lower radius"
    )


def test_tails_are_read_only():
    s = make_flat_spectrum(10)
    with pytest.raises(ValueError):
        s._tails[3] = 0.0


spectrum_values = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e300),
        st.floats(min_value=0.0, max_value=1e-300),
        st.sampled_from([0.0, 1.0, 1e-8, 5e-324]),
    ),
    min_size=1,
    max_size=80,
).map(lambda v: np.sort(np.asarray(v, dtype=float))[::-1].copy()).filter(lambda v: v[0] > 0)


@settings(max_examples=300, deadline=None)
@given(
    spectrum_values,
    st.integers(1, 200),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1e3),
    st.floats(1e-3, 4.0),
)
def test_vectorised_paths_equal_the_loops_on_drawn_spectra(vals, n, c0, rho, xi, gamma):
    check_spectrum(Spectrum(vals), n, c0, rho, xi, gamma)


# ---------------------------------------------------------------------------
# number parser


PARSER_INPUTS = [
    "1 2 3",
    "1,2,3\n4, 5 ,6",
    "# header only\n#\n1.5\n# in between\n2.5\n",
    "1 2 # trailing comment, with 9 9\n3#4\n",
    "1\r\n2\r\n3\r\n",
    "1\r\n# c\r\n2 # d\r\n",
    "",
    "   \n\t\n",
    "# nothing but comments\n# here\n",
    ",,,",
    "1\n2\nx7\n4\nalso-bad\n",
    "1,2,,3,bad,4",
    "1e308 -0.0 5e-324 nan inf -inf 1_000",
    "1\x0b2\x0c3\x1c4\x855 6",
]


def parse_outcome(parse, text):
    try:
        return parse(text, "spectrum")
    except ValueError as exc:
        return str(exc)


def assert_same_parse(text):
    got = parse_outcome(parse_numbers, text)
    want = parse_outcome(oracles.parse_numbers_loop, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert same_bits(got, want)


@pytest.mark.parametrize("text", PARSER_INPUTS)
def test_parse_numbers_equals_the_loop(text):
    assert_same_parse(text)


def test_parse_numbers_names_the_first_bad_token():
    with pytest.raises(ValueError, match=r"^cannot parse vector entry 'x7'$"):
        parse_numbers("1\n2\nx7\n4\nalso-bad\n", "vector")
    with pytest.raises(ValueError, match=r"^empty spectrum input$"):
        parse_numbers("# only a comment\r\n", "spectrum")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.e-+ ,#\n\r\t\x0b\x0c\x1c\x85 abinf_", max_size=60))
def test_parse_numbers_equals_the_loop_on_drawn_text(text):
    assert_same_parse(text)


# ---------------------------------------------------------------------------
# no per-element loop over p


class _CountingArray(np.ndarray):
    """Counts every scalar read: a scalar index, or one step of iteration."""

    reads = 0

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            _CountingArray.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for v in super().__iter__():
            _CountingArray.reads += 1
            yield v


READ_BOUND = 64  # a loop over p = 10^5 entries makes at least 10^5 reads


@pytest.mark.parametrize("c0", [0.2, 1e5], ids=["finite-kstar", "infinite-kstar"])
def test_diagnose_reads_no_entry_per_index(monkeypatch, c0):
    s = make_exp_floor_spectrum(100_000, 20.0, 1e-4)
    object.__setattr__(s, "values", s.values.view(_CountingArray))
    object.__setattr__(s, "_tails", s._tails.view(_CountingArray))
    calls = []
    real = Spectrum.tail_sum

    def tail_sum(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(Spectrum, "tail_sum", tail_sum)
    monkeypatch.setattr(_CountingArray, "reads", 0)
    report = diagnose(s, 100, 1.0, 10.0, Constants(c0=c0))
    assert math.isinf(report.k_star) == (c0 == 1e5)
    assert len(calls) <= READ_BOUND
    assert _CountingArray.reads <= READ_BOUND


def test_suffix_sums_read_no_entry_per_index(monkeypatch):
    monkeypatch.setattr(_CountingArray, "reads", 0)
    vals = make_exp_floor_spectrum(100_000, 20.0, 1e-4).values
    tails = spectra._suffix_sums(vals.view(_CountingArray))
    assert _CountingArray.reads == 0
    assert same_bits(tails, oracles.suffix_sums_loop(vals))
