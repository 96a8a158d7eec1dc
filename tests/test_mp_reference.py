"""The exceptional-mode tolerance against eps_sq in 50-digit mpmath.

model.exceptional_tolerance is a bound on the rounding error of the computed
eps_sq.  Here eps_sq = (h + cos phi)^2 + (K^2 - gamma^2) sin^2 phi is taken in
mpmath at the kernel's own float angle and float parameters, at any N up to
2^20, with the cancelling corners (phi -> pi at h ~ 1, phi -> 0 at h ~ -1,
K ~ gamma) drawn on purpose.  The phase's tangency verdict is checked against
the continuum minimum of eps_sq in the same arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iksea.ground
from iksea.errors import ExceptionalModeError
from iksea.ground import ground_qfi
from iksea.model import (ChainParams, block_elements, classify_phase, exceptional_field,
                         exceptional_tolerance, momentum_grid)


def mp_eps_sq(p, phi):
    """eps_sq of params p at the float angle phi, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        x = mpmath.mpf(float(phi))
        k, gam = mpmath.mpf(p.k_ksea), mpmath.mpf(p.gamma)
        return (p.h + mpmath.cos(x)) ** 2 + (k * k - gam * gam) * mpmath.sin(x) ** 2


@st.composite
def points(draw):
    """(params, sorted 1-based modes): the first, the last (phi nearest pi),
    its neighbour and a few more."""
    n = 2 * draw(st.integers(1, 2 ** 19))
    h = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(1 - 1e-6, 1 + 1e-6),
                       st.floats(-1 - 1e-6, -1 + 1e-6), st.sampled_from([1.0, -1.0])))
    gamma = draw(st.floats(0.0, 2.0))
    k = draw(st.one_of(st.floats(0.0, 2.0), st.just(gamma),
                       st.floats(-1e-6, 1e-6).map(lambda dk: max(gamma + dk, 0.0))))
    top = n // 2
    modes = draw(st.lists(st.integers(1, top), max_size=3)) + [1, top, max(top - 1, 1)]
    return ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=n), sorted(set(modes))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(points())
def test_tolerance_bounds_the_rounding_error_of_eps_sq(point):
    p, modes = point
    phi = momentum_grid(p.n_sites)[np.array(modes) - 1]
    g, ap, am, eps_sq = block_elements(p, phi)
    tol = exceptional_tolerance(g, ap, am)
    exact = [mp_eps_sq(p, x) for x in phi]
    assert all(abs(e - x) <= t for e, x, t in zip(eps_sq.tolist(), exact, tol.tolist()))
    # a mode clear of twice its bound is never flagged, by the kernel either
    clear = np.array([abs(x) > 2 * t for x, t in zip(exact, tol.tolist())])
    assert (np.abs(eps_sq)[clear] > tol[clear]).all()
    if clear.any():
        iksea.ground._mode_qfi(p, phi[clear])


@pytest.mark.parametrize("n, mode", [(8, 1), (64, 20), (2 ** 20, 2 ** 19)])
def test_exact_exceptional_mode_is_still_flagged(n, mode):
    # gamma = K with g = h + cos phi exactly 0: the block [[0, -a+], [0, 0]]
    # is defective, and the exact eps_sq lies within the bound of 0
    phi = momentum_grid(n)[mode - 1]
    p = ChainParams(h=-float(np.cos(phi)), gamma=0.3, k_ksea=0.3, n_sites=n)
    g, ap, am, eps_sq = block_elements(p, phi)
    assert g == 0.0 and eps_sq == 0.0
    assert abs(float(mp_eps_sq(p, phi))) <= exceptional_tolerance(g, ap, am)
    with pytest.raises(ExceptionalModeError) as info:
        ground_qfi(p)
    assert info.value.mode_index == mode


@st.composite
def near_tangency(draw):
    """gamma > K with h within a few ulps, or up to 1e-12 relative, of +-h_e."""
    gamma = draw(st.floats(1e-3, 2.0))
    k = gamma * draw(st.floats(0.0, 0.999))
    h = exceptional_field(ChainParams(h=1.0, gamma=gamma, k_ksea=k, n_sites=2))
    h = draw(st.one_of(
        st.integers(-8, 8).map(lambda j: h + j * math.ulp(h)),
        st.floats(-1e-12, 1e-12).map(lambda d: h * (1.0 + d))))
    return ChainParams(h=h * draw(st.sampled_from([1.0, -1.0])), gamma=gamma,
                       k_ksea=k, n_sites=8)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(near_tangency())
def test_tangency_verdict_against_the_continuum_minimum(p):
    # min over phi of eps_sq = (gamma^2 - K^2)(h^2 - h_e^2) / h_e^2, exactly
    # for the float h, gamma and K; clear of twice the mode bound at omega_c
    # the point is Broken or Unbroken by its sign, never the exceptional point
    with mpmath.workdps(50):
        k, gam, h = mpmath.mpf(p.k_ksea), mpmath.mpf(p.gamma), mpmath.mpf(abs(p.h))
        he2 = 1 + gam * gam - k * k
        minimum = (gam * gam - k * k) * (h * h - he2) / he2
    omega_c = float(np.arccos(-abs(p.h) / exceptional_field(p) ** 2))
    g, ap, am, _ = block_elements(p.replace(h=abs(p.h)), omega_c)
    if abs(minimum) > 2 * exceptional_tolerance(g, ap, am):
        assert classify_phase(p).region == ("Broken" if minimum < 0 else "Unbroken")
