"""The exceptional-mode tolerance and the per-mode ground QFI against mpmath.

model.exceptional_tolerance is a bound on the rounding error of the computed
eps_sq.  Here eps_sq = (h + cos phi)^2 + (K^2 - gamma^2) sin^2 phi is taken in
mpmath at the kernel's own float angle and float parameters, at any N up to
2^20, with the cancelling corners (phi -> pi at h ~ 1, phi -> 0 at h ~ -1,
K ~ gamma) drawn on purpose.  The phase's tangency verdict is checked against
the continuum minimum of eps_sq in the same arithmetic.  The per-mode ground
QFI is checked against a 60-digit value made from mpmath's eigenvectors alone,
without the closed forms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iksea.ground
from iksea.errors import ExceptionalModeError
from iksea.ground import ground_qfi, ground_qfi_values
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


def mp_ground_qfi(p, phi):
    """Ground QFI of the block of params p at the float angle phi, in 60-digit
    arithmetic from mpmath.eig alone: the right eigenvector of the ground
    (smallest real part on a real spectrum, else largest imaginary part),
    normalised, differentiated by central differences in h (step 1e-25)
    after aligning the phases of the h +- step vectors with the centre's."""
    with mpmath.workdps(60):
        x = mpmath.mpf(float(phi))
        s, c = mpmath.sin(x), mpmath.cos(x)
        gam, k = mpmath.mpf(p.gamma), mpmath.mpf(p.k_ksea)

        def ground(h):
            g = h + c
            vals, vecs = mpmath.eig(mpmath.matrix([[-g, -(gam + k) * s],
                                                   [(gam - k) * s, g]]))
            if max(abs(mpmath.im(v)) for v in vals) <= mpmath.mpf(10) ** -40:
                i = min((0, 1), key=lambda j: mpmath.re(vals[j]))
            else:
                i = max((0, 1), key=lambda j: mpmath.im(vals[j]))
            return vecs[:, i] / mpmath.norm(vecs[:, i])

        def aligned(v):
            o = (v0.H * v)[0]
            return v * (mpmath.conj(o) / abs(o))

        step, h = mpmath.mpf("1e-25"), mpmath.mpf(p.h)
        v0 = ground(h)
        dv = (aligned(ground(h + step)) - aligned(ground(h - step))) / (2 * step)
        return 4 * (mpmath.re((dv.H * dv)[0]) - abs((v0.H * dv)[0]) ** 2)


#: per-regime bound on the relative error of ground_qfi_values against
#: mp_ground_qfi, beyond the relative rounding bound of the mode's eps_sq
#: (the test): about twice the worst of 5000 seeded draws of ground_points
#: (4.4e-15, 5.0e-15, 1.3e-10, 2.8e-9, 4.0e-7 in this order).  critical
#: grows like N gamma / (K sqrt(K^2 - gamma^2)) (g = h + cos phi rounds at
#: phi -> pi); near_degenerate and cancelling like 1/(K - gamma), from the
#: gamma g + eps K cancellation of the real branch.
GROUND_BOUND = {"broken": 1e-14, "unbroken": 1e-14, "critical": 3e-10,
                "near_degenerate": 6e-9, "cancelling": 1e-6}


@st.composite
def ground_points(draw):
    """(regime, params, extra mode draws), N up to 2^20.  critical: h = +-1,
    K > gamma; broken and unbroken: gamma > K with |h| below or above h_e;
    near_degenerate: h = +-1, K = gamma + 1e-7 .. 1e-5 and N inside the N^6
    window pi/N > 10 theta* (asymptotic_qfi's); cancelling: |h| in
    [0.1, 0.9], K = gamma + 1e-9 .. 1e-7."""
    regime = draw(st.sampled_from(sorted(GROUND_BOUND)))
    gamma, n_max = draw(st.floats(0.1, 1.0)), 2 ** 20
    if regime in ("broken", "unbroken"):
        k = gamma * draw(st.floats(0.0, 0.95))
        h = exceptional_field(ChainParams(h=1.0, gamma=gamma, k_ksea=k, n_sites=2)) \
            * draw(st.floats(0.0, 0.95) if regime == "broken" else st.floats(1.05, 3.0))
    elif regime == "critical":
        k, h = gamma + draw(st.floats(0.05, 1.0)), 1.0
    elif regime == "near_degenerate":
        k, h = gamma + 10.0 ** draw(st.floats(-7.0, -5.0)), 1.0
        n_max = max(2, math.ceil(math.pi / (20.0 * math.sqrt(k * k - gamma * gamma))) - 1)
    else:
        k, h = gamma + 10.0 ** draw(st.floats(-9.0, -7.0)), draw(st.floats(0.1, 0.9))
    p = ChainParams(h=h * draw(st.sampled_from([1.0, -1.0])), gamma=gamma, k_ksea=k,
                    n_sites=2 * draw(st.integers(1, n_max // 2)))
    return regime, p, draw(st.lists(st.integers(0, 2 ** 19), max_size=2))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(ground_points())
def test_ground_mode_qfi_against_mpmath(point):
    # the first and the last two modes, the largest value and up to two more;
    # a mode is known no better than its eps_sq, whose relative rounding
    # error is at most exceptional_tolerance / |eps_sq| (near an exceptional
    # point of the broken regime that term leads)
    regime, p, extra = point
    values, top = ground_qfi_values(p), p.n_sites // 2
    modes = {1, top, max(top - 1, 1), int(np.argmax(values)) + 1} | {1 + e % top for e in extra}
    phi = momentum_grid(p.n_sites)
    for m in sorted(modes):
        ref = mp_ground_qfi(p, phi[m - 1])
        err = float(abs(mpmath.mpf(float(values[m - 1])) - ref) / ref)
        g, ap, am, eps_sq = block_elements(p, phi[m - 1])
        assert err <= GROUND_BOUND[regime] + exceptional_tolerance(g, ap, am) / abs(eps_sq), \
            (regime, p, m, err)
