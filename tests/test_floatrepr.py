"""floatrepr.repr_floats writes exactly what ``repr`` writes, for every float64."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from planegaze.floatrepr import repr_floats


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    want = list(map(repr, values.tolist()))
    got = repr_floats(values)
    assert got == want, [(w, g) for w, g in zip(want, got) if w != g][:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_repr(values)


def with_neighbours(values) -> np.ndarray:
    """Each value, the next float64 below it and the next above it, with both signs."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # above the largest finite value is infinity
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    assert_repr(with_neighbours(powers))


def test_notation_edges_and_extremes():
    edges = [1e-04, 1e-05, 1e16, 9007199254740992.0, 1e15, 0.1, 0.5, 1.0, 123456789012345680.0,
             sys.float_info.min, 5e-324, sys.float_info.max]
    assert_repr(with_neighbours(edges))
    assert_repr([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, np.nextafter(sys.float_info.min, 0.0)])


def test_values_of_few_decimals_at_every_scale():
    rng = np.random.default_rng(11)
    values = [np.round(rng.normal(size=2000) * 1000, decimals) * 10.0**scale
              for decimals in range(0, 17, 4) for scale in range(-300, 301, 25)]
    assert_repr(np.concatenate(values))


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(104729)
    for _ in range(16):  # in slices, so the scratch arrays stay small
        assert_repr(rng.integers(0, 2**64, 62_500, dtype=np.uint64, endpoint=False).view(np.float64))
