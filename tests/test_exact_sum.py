"""exact_sum: math.fsum of a float64 array, bit for bit, on either side of
the size cutover."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iksea.model
from iksea.model import EXACT_SUM_CUTOVER, exact_sum

CUT = EXACT_SUM_CUTOVER


def assert_same_as_fsum(x):
    """exact_sum(x) returns or raises exactly what math.fsum(x.tolist()) does."""
    try:
        want = math.fsum(x.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            exact_sum(x)
        return
    got = exact_sum(x)
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


@st.composite
def float_arrays(draw):
    n = draw(st.one_of(st.integers(0, 3 * CUT),
                       st.sampled_from([CUT - 1, CUT, CUT + 1]),
                       st.integers(3 * CUT, 100_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-1126, 1023))
    hi = min(1023, lo + draw(st.sampled_from([0, 1, 30, 120, 2200])))
    # ldexp rounds significands that reach below 2^-1074 into subnormals
    x = np.ldexp(rng.random(n), rng.integers(lo, hi + 1, n))
    signs = draw(st.sampled_from(["+", "-", "mixed"]))
    if signs == "-":
        x = -x
    elif signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    if draw(st.booleans()):       # cancelling pairs
        half = n // 2
        x[half:2 * half] = -x[:half]
    parts = [x, draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              max_size=8))]
    for e in draw(st.lists(st.integers(-916, 1023), max_size=3)):
        # exact ties: 1 + 2^-53 + s 2^-106 sits on or off a rounding midpoint
        s = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        parts.append(np.ldexp([1.0, 1.0, s], [e, e - 53, e - 106]))
    x = np.concatenate(parts)
    rng.shuffle(x)
    return x


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(float_arrays())
def test_equals_fsum_bit_for_bit(x):
    assert_same_as_fsum(x)


@pytest.mark.parametrize("n", [CUT - 1, CUT, 4 * CUT])
@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("head", [
    [1.0, 2.0 ** -53, 2.0 ** -106],
    [1.0, 2.0 ** -53, -2.0 ** -106],
    [1.0, 2.0 ** -53],
    [1.0, -2.0 ** -54, -2.0 ** -107],
    [-1.0, -2.0 ** -53, -2.0 ** -106],
    [1e16, 1.0, -1e16, 2.0 ** -60],
    [2.0 ** -1022, -2.0 ** -1074],
    [0.0, -0.0],
    [],
    [1e300, -1e300, 1e-300],
])
def test_ties_cancellation_and_zeros(head, zero, n):
    x = np.full(n, zero)
    x[:len(head)] = head
    assert_same_as_fsum(x)
    assert_same_as_fsum(x[::-1].copy())


@pytest.mark.parametrize("n", [CUT - 1, 4 * CUT])
@pytest.mark.parametrize("special", [
    [math.inf],
    [-math.inf],
    [math.nan],
    [math.inf, -math.inf],
    [math.inf, math.inf, 1.0],
    [1e308, 1e308],                    # the sum overflows
    [1e308, 1e308, -1e308],            # a partial sum overflows
    [-1.7e308, -1.7e308, 1.7e308, 1.7e308],
    [2.0 ** 1022, 2.0 ** 1022],
])
def test_non_finite_and_overflow_match_fsum(special, n):
    x = np.full(n, 0.5)
    x[:len(special)] = special
    assert_same_as_fsum(x)


def test_large_sizes_take_the_array_path(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2 * CUT) * 10.0 ** rng.uniform(-200, 200, 2 * CUT)
    small = x[:CUT - 1].copy()
    want, want_small = math.fsum(x.tolist()), math.fsum(small.tolist())
    calls, fsum = [], math.fsum

    def counting(values):
        calls.append(len(values))
        return fsum(values)

    monkeypatch.setattr(iksea.model.math, "fsum", counting)
    assert exact_sum(x) == want
    assert calls == []
    assert exact_sum(small) == want_small
    assert calls == [CUT - 1]


@pytest.mark.parametrize("signs", ["+", "-", "mixed"])
def test_all_zero_sums_skip_the_array_pass(monkeypatch, signs):
    x = np.zeros(4 * CUT)
    if signs == "-":
        x = -x
    elif signs == "mixed":
        x[::3] = -0.0

    def never(*args):
        raise AssertionError("all-zero input entered the array pass")

    monkeypatch.setattr(iksea.model.np, "frexp", never)
    assert_same_as_fsum(x)


@pytest.mark.parametrize("n", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
def test_block_boundaries_equal_fsum(n):
    # blocks of 2^14 values with different smallest exponents
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
    x[-1] = 1e-300
    assert_same_as_fsum(x)
    assert_same_as_fsum(np.abs(x[::-1]))
