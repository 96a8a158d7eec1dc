"""exact_sum: math.fsum of a float64 array, bit for bit, on either side of
the size cutover."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import iksea.model
from iksea.model import EXACT_SUM_CUTOVER, _exact_add, _exact_round, exact_sum

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
    kind = draw(st.sampled_from(["spread", "integers", "near_sigma", "guard"]))
    lo = draw(st.integers(-1126, 1023))
    hi = min(1023, lo + draw(st.sampled_from([0, 1, 30, 120, 2200])))
    if kind == "integers":
        # few significant bits: one extraction level
        bits = draw(st.integers(0, 40))
        x = np.ldexp(rng.integers(-2 ** bits, 2 ** bits + 1, n).astype(float),
                     draw(st.integers(-1074, 1023 - 60)))
    elif kind == "near_sigma":
        # magnitudes a few units of 2^-b below a power of two: the sum of q
        # nears 2^53 units, and with mixed signs r + sigma rounds on both
        # sides of sigma
        x = np.ldexp(1.0 - rng.integers(0, 4, n) * 2.0 ** -draw(st.integers(30, 53)),
                     draw(st.integers(-1000, 900)))
    else:
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
    if kind == "guard" and x.size:
        # the largest |x| at 2^top (math.fsum's guard) or one ulp below it,
        # where sigma reaches 2^1022
        top = 1022 - (x.size - 1).bit_length()
        peak = 2.0 ** top * (1.0 - draw(st.sampled_from([0.0, 2.0 ** -53])))
        x[rng.integers(x.size, size=3)] = peak * rng.choice([-1.0, 1.0], 3)
    rng.shuffle(x)
    return x


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
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


def test_2_to_the_26_values_take_the_array_path():
    # from 2^26 values on, exact_sum once summed math.fsum(values.tolist()),
    # a list of over 2 GB; a zero-stride view holds them in 8 bytes, and
    # tolist fails the test (0.1 * 2^26 is exact)
    class NoList(np.ndarray):
        def tolist(self):
            raise AssertionError("exact_sum made a list")

    x = np.broadcast_to(np.float64(0.1), 2 ** 26).view(NoList)
    assert exact_sum(x) == 0.1 * 2 ** 26


def levels_and_fsum_calls(monkeypatch, x):
    """exact_sum(x) with the number of its extraction levels and fsum calls.

    Each level starts from one math.frexp of the residual's largest |r|.
    """
    calls = {"frexp": 0, "fsum": 0}
    frexp, fsum = math.frexp, math.fsum

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(iksea.model.math, "frexp", counting("frexp", frexp))
        m.setattr(iksea.model.math, "fsum", counting("fsum", fsum))
        got = exact_sum(x)
    assert got == fsum(x.tolist())
    return calls["frexp"], calls["fsum"]


def _one_block(kind):
    n = 2 ** 14
    rng = np.random.default_rng(11)
    if kind == "integers":
        return rng.integers(-2 ** 20, 2 ** 20, n).astype(float)
    if kind == "unit":
        return rng.random(n) * rng.choice([-1.0, 1.0], n)
    if kind == "spread":
        return np.ldexp(rng.random(n), rng.integers(-600, 600, n))
    if kind == "subnormal":
        x = np.ldexp(rng.random(n), rng.integers(-1100, -1010, n))
        x[0] = 2.0 ** -1000
        return x
    if kind == "guard":
        x = rng.random(n)
        x[0] = 2.0 ** (1022 - 14) * (1.0 - 2.0 ** -53)
        return x
    raise ValueError(kind)


@pytest.mark.parametrize("kind, levels", [
    ("integers", 1),        # every bit lies above ulp(sigma / 2)
    ("unit", 2),            # 53 bits under sigma = 2^15: two levels of 38
    ("subnormal", 2),       # the second level's unit is the 2^-1074 bottom
    ("guard", 4),           # sigma = 2^1022 and 2^984, then two for [0, 1)
])
def test_extraction_levels(monkeypatch, kind, levels):
    assert levels_and_fsum_calls(monkeypatch, _one_block(kind)) == (levels, 0)


@pytest.mark.parametrize("signs", ["-", "mixed"])
def test_sums_at_the_sigma_bound(monkeypatch, signs):
    # one block of 2^14 values just above -2^e, so sigma = 2^(e + 14) and
    # r + sigma lies below sigma, where q are multiples of u = ulp(sigma/2):
    # they sum to 2^53 - 2^14 + 1 units u.  A sigma half as large would
    # round an odd sum above 2^53 of its units to a tie, which 2^-40 breaks
    n, e = 2 ** 14, 7
    x = np.full(n, -2.0 ** e * (1.0 - 2.0 ** -39))
    x[0] = -2.0 ** e * (1.0 - 2.0 ** -40)
    x[-1] = 2.0 ** -40
    if signs == "mixed":
        x[1::2] *= -1.0
    levels, fsum_calls = levels_and_fsum_calls(monkeypatch, x)
    assert levels <= 2 and fsum_calls == 0


def test_wide_exponent_spread_takes_many_levels(monkeypatch):
    levels, fsum_calls = levels_and_fsum_calls(monkeypatch, _one_block("spread"))
    assert levels > 10 and fsum_calls == 0


def test_largest_value_at_the_guard_goes_to_fsum(monkeypatch):
    x = _one_block("guard")
    x[0] = 2.0 ** (1022 - 14)
    assert levels_and_fsum_calls(monkeypatch, x) == (0, 1)


@pytest.mark.parametrize("signs", ["+", "-", "mixed"])
def test_all_zero_sums_skip_the_array_pass(monkeypatch, signs):
    x = np.zeros(4 * CUT)
    if signs == "-":
        x = -x
    elif signs == "mixed":
        x[::3] = -0.0
    # no extraction level runs, and no math.fsum of the row decides the zero:
    # only an all -0.0 row asks math.fsum, for its sum of the one value -0.0
    assert levels_and_fsum_calls(monkeypatch, x) == (0, int(signs == "-"))
    assert_same_as_fsum(x)


def test_negative_zero_rows_sum_as_one_negative_zero():
    # the sign math.fsum gives -0.0 values does not depend on how many
    assert all(math.copysign(1.0, math.fsum([-0.0] * k))
               == math.copysign(1.0, math.fsum([-0.0])) for k in (2, 3, CUT, 4 * CUT))


@pytest.mark.parametrize("n", [1, CUT - 1, CUT, 2 ** 14 + 1, 4 * CUT + 3])
@pytest.mark.parametrize("pattern", ["+", "-", "first +", "last +", "alternating"])
def test_signed_zero_rows_equal_fsum_bit_for_bit(n, pattern):
    x = np.full(n, 0.0 if pattern == "+" else -0.0)
    if pattern == "first +":
        x[0] = 0.0
    elif pattern == "last +":
        x[-1] = 0.0
    elif pattern == "alternating":
        x[::2] = 0.0
    assert_same_as_fsum(x)
    rng = np.random.default_rng(n)
    for cuts in (0, 1, 7, n):
        assert_blocks_add_up_to_fsum(x, random_edges(rng, n, cuts))


@pytest.mark.parametrize("n", [2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 3 * 2 ** 14 + 5])
def test_block_boundaries_equal_fsum(n):
    # blocks of 2^14 values with different smallest exponents
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
    x[-1] = 1e-300
    assert_same_as_fsum(x)
    assert_same_as_fsum(np.abs(x[::-1]))


def assert_blocks_add_up_to_fsum(x, edges):
    """The blocks of x between the edges, through _exact_add and one
    _exact_round, give math.fsum(x.tolist()) bit for bit, and make the whole
    array only where exact_sum leaves the sum to math.fsum: an inf or nan,
    or some |v| >= 2^top.  A zero or subnormal total, its sign included,
    comes from the blocks alone."""
    exact, made = -0.0, []
    for a, b in zip(edges, edges[1:]):
        exact = _exact_add(exact, x[a:b], x.size)
    total = _exact_round(exact, lambda: made.append(x) or x[:0])
    if not np.abs(x).max() < 2.0 ** (1022 - (x.size - 1).bit_length()):
        assert exact is None and made
        return
    want = math.fsum(x.tolist())
    assert not made and type(total) is float and total == want
    assert math.copysign(1.0, total) == math.copysign(1.0, want)


def random_edges(rng, n, cuts):
    """0, up to cuts distinct random block edges inside n, and n."""
    inner = np.unique(rng.integers(0, n, cuts))
    return [0, *inner[inner > 0].tolist(), n]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(float_arrays(), st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
def test_blocks_at_random_edges_add_up_to_fsum(x, seed, cuts):
    # the sizes of float_arrays: below the cutover, at it and above
    assume(x.size > 0)
    assert_blocks_add_up_to_fsum(x, random_edges(np.random.default_rng(seed), x.size, cuts))


@pytest.mark.parametrize("n", [7, CUT - 1, CUT, 4 * CUT + 3])
@pytest.mark.parametrize("fill", [0.0, -0.0, 0.5])
@pytest.mark.parametrize("special", [
    [0.0, -0.0],
    [-0.0, -0.0],
    [2.0 ** -1074, 2.0 ** -1060],       # a subnormal total over zeros
    [2.0 ** -1022, -2.0 ** -1074],      # just below the normal range
    [math.inf],
    [-math.inf],
    [math.nan],
    [math.inf, -math.inf],
    ["top"],                            # 2^top: math.fsum's guard
    ["below top"],                      # one ulp below it: added exactly
])
def test_blocks_with_zeros_subnormals_and_specials_add_up_to_fsum(n, fill, special):
    rng = np.random.default_rng(n)
    top = 2.0 ** (1022 - (n - 1).bit_length())
    x = np.full(n, fill)
    x[rng.choice(n, len(special), replace=False)] = [
        top if v == "top" else top * (1.0 - 2.0 ** -53) if v == "below top" else v
        for v in special]
    for cuts in (0, 1, 5, n):
        assert_blocks_add_up_to_fsum(x, random_edges(rng, n, cuts))
