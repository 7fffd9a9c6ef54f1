import re

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Entries that no number array takes (a str, a bool, None, a complex, a nested list and
# an int beyond the float range); each was once coerced, or escaped as an OverflowError.
BAD_ENTRIES = ("3", True, None, 1j, [1.0], 10**400)


# How a refusal shows an int beyond the float range, whose decimal digits could run to
# thousands (Python refuses to write one of more than 4300).
HUGE_INT = "an int beyond the float range"


def entry_refusal(name: str, bad) -> str:
    """The pattern of the whole message that refuses entry `bad`, at `name`, of a number array."""
    shown = "a list" if isinstance(bad, list) else HUGE_INT if bad == 10**400 else repr(bad)
    return "^" + re.escape(f"{name}: expected a number, got {shown}") + "$"


def same_floats(a, b) -> bool:
    """a is a float64 array with the bits of np.asarray(b, dtype=float)."""
    b = np.asarray(b, dtype=float)
    return a.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()
