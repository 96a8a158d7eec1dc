"""Momentum blocks, dispersion branches, and phase classification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from iksea.errors import ParameterError
from iksea.ground import ground_qfi
from iksea.model import (
    N_MAX,
    PARAM_MAX,
    ChainParams,
    block_elements,
    classify_phase,
    dispersion,
    exceptional_field,
    exceptional_tolerance,
    momentum_grid,
    zero_crossings,
)

from _reference import block_matrix


def test_momentum_grid_small_sizes():
    np.testing.assert_allclose(momentum_grid(4), [np.pi / 4, 3 * np.pi / 4])
    np.testing.assert_allclose(
        momentum_grid(8), [np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8])
    # antiperiodic grid never contains 0 or pi
    for n in (2, 6, 10, 64):
        grid = momentum_grid(n)
        assert grid.shape == (n // 2,)
        assert grid[0] > 0.0 and grid[-1] < np.pi


@pytest.mark.parametrize("n", [2, 4, 6, 1000, 21852, 2 ** 20])
def test_momentum_grid_equals_the_textbook_formula_bit_for_bit(n):
    p = np.arange(1, n // 2 + 1)
    want = (2 * p - 1) * np.pi / n
    assert (momentum_grid(n).view(np.int64) == want.view(np.int64)).all()


def test_momentum_grid_rejects_odd_or_tiny():
    with pytest.raises(ParameterError):
        momentum_grid(5)
    with pytest.raises(ParameterError):
        momentum_grid(0)


def test_params_validation():
    with pytest.raises(ParameterError):
        ChainParams(h=np.nan, gamma=0.5, k_ksea=0.2, n_sites=4)
    with pytest.raises(ParameterError):
        ChainParams(h=1.0, gamma=-0.1, k_ksea=0.2, n_sites=4)
    with pytest.raises(ParameterError):
        ChainParams(h=1.0, gamma=0.5, k_ksea=-0.2, n_sites=4)
    with pytest.raises(ParameterError):
        ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=7)
    with pytest.raises(ParameterError):
        ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=4.0)
    # |h|, gamma and K above PARAM_MAX would overflow the kernels
    for bad in ({"h": -1.01e50}, {"gamma": 1e51}, {"k_ksea": 1e50 * (1 + 1e-15)}):
        with pytest.raises(ParameterError, match=r"must be <= 1e\+50"):
            ChainParams(**{"h": 1.0, "gamma": 0.5, "k_ksea": 0.2, "n_sites": 4, **bad})
    ChainParams(h=-PARAM_MAX, gamma=PARAM_MAX, k_ksea=PARAM_MAX, n_sites=4)
    # replace() keeps the other fields and re-validates
    p = ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=4)
    q = p.replace(n_sites=8)
    assert q.n_sites == 8 and q.h == p.h
    with pytest.raises(ParameterError):
        p.replace(n_sites=9)


def test_n_sites_is_at_most_n_max():
    # N_MAX = 2^22 is 4x the largest N any config, test or benchmark runs
    assert ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=N_MAX).n_sites == N_MAX
    for n in (N_MAX + 2, 2 ** 50):
        with pytest.raises(ParameterError, match=f"n_sites must be <= {N_MAX}, got {n}"):
            ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=n)


def test_momentum_grid_keeps_the_n_max_bound_before_allocating():
    # the same check and message as ChainParams, raised before the grid is
    # made: 2^50 sites would otherwise ask numpy for 4 PiB
    assert momentum_grid(N_MAX).size == N_MAX // 2
    tracemalloc.start()
    try:
        for n in (N_MAX + 2, 2 ** 50):
            with pytest.raises(ParameterError) as grid_error:
                momentum_grid(n)
            with pytest.raises(ParameterError) as params_error:
                ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=n)
            assert str(grid_error.value) == str(params_error.value) \
                == f"n_sites must be <= {N_MAX}, got {n}"
        assert tracemalloc.get_traced_memory()[1] < 2 ** 16
    finally:
        tracemalloc.stop()


def test_block_elements_frozen_values():
    # g = h + cos(phi), eps_sq = g^2 + (K^2 - gamma^2) sin(phi)^2
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    g, ap, am, eps_sq = block_elements(p, 2 * np.pi / 3)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)
    np.testing.assert_allclose(eps_sq, -0.1575, rtol=1e-13)
    np.testing.assert_allclose(ap, 0.7 * np.sin(2 * np.pi / 3), rtol=1e-13)
    np.testing.assert_allclose(am, 0.3 * np.sin(2 * np.pi / 3), rtol=1e-13)

    p2 = ChainParams(h=2.0, gamma=0.2, k_ksea=0.5, n_sites=4)
    g2, ap2, am2, eps2 = block_elements(p2, np.pi / 2)
    assert g2 == 2.0
    np.testing.assert_allclose(eps2, 4.21, rtol=1e-14)
    np.testing.assert_allclose(ap2, 0.7, rtol=1e-14)
    np.testing.assert_allclose(am2, -0.3, rtol=1e-14)


def test_block_matrix_layout_and_eigenvalues():
    p = ChainParams(h=0.9, gamma=0.35, k_ksea=0.55, n_sites=6)
    for phi in momentum_grid(6):
        g, ap, am, eps_sq = block_elements(p, phi)
        m = block_matrix(p, phi)
        np.testing.assert_allclose(m, [[-g, -ap], [am, g]], rtol=0, atol=0)
        vals = np.linalg.eigvals(m.astype(complex))
        root = np.sqrt(complex(eps_sq))
        got = sorted(vals, key=lambda z: (z.real, z.imag))
        want = sorted([-root, root], key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-12)
        # traceless, so eigenvalues come in +/- pairs
        np.testing.assert_allclose(vals.sum(), 0.0, atol=1e-12)


def test_dispersion_branch_conventions():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    # real branch: eps real and >= 0
    eps_sq, eps = dispersion(p, np.pi / 16)
    assert eps_sq > 0 and np.isrealobj(np.asarray(eps)) or abs(np.imag(eps)) == 0
    assert np.real(eps) >= 0.0
    np.testing.assert_allclose(np.real(eps) ** 2, eps_sq, rtol=1e-14)
    # broken branch: eps = -i sqrt(-eps_sq)
    eps_sq_b, eps_b = dispersion(p, 2 * np.pi / 3)
    assert eps_sq_b < 0
    np.testing.assert_allclose(eps_b, -1j * np.sqrt(-eps_sq_b), rtol=1e-14)
    # vectorized call matches scalar calls elementwise
    grid = momentum_grid(64)
    eqv, ev = dispersion(p.replace(n_sites=64), grid)
    for i, phi in enumerate(grid):
        sq, e = dispersion(p.replace(n_sites=64), float(phi))
        assert sq == eqv[i]
        assert e == ev[i]


def test_dispersion_scalar_in_scalar_out():
    p = ChainParams(h=2.0, gamma=0.2, k_ksea=0.5, n_sites=4)
    eps_sq, eps = dispersion(p, np.pi / 2)
    assert np.isscalar(eps_sq) or np.ndim(eps_sq) == 0
    np.testing.assert_allclose(eps_sq, 4.21, rtol=1e-14)
    np.testing.assert_allclose(eps, np.sqrt(4.21), rtol=1e-14)


def test_exceptional_tolerance_scales_with_coefficients():
    # twice the larger of the g part d (2|g| + d) + 2 e g^2, d = e (|g| + 1),
    # and the a part e ((a+^2 + a-^2) / 2 + 6 |a+ a-|), with e = 2^-52
    e = 2.0 ** -52
    assert exceptional_tolerance(0.0, 0.0, 0.0) == 2 * e * e   # no floor of its own
    assert exceptional_tolerance(10.0, 0.0, 0.0) == pytest.approx(
        2 * (11 * e * (20 + 11 * e) + 200 * e), rel=1e-15)
    assert exceptional_tolerance(0.0, 20.0, 30.0) == pytest.approx(
        2 * e * (650 + 3600), rel=1e-15)
    # signs do not matter, and the bound grows with the larger part's elements
    assert exceptional_tolerance(-10.0, -20.0, 30.0) == \
        exceptional_tolerance(10.0, 20.0, -30.0)
    assert exceptional_tolerance(1e3, 2.0, 3.0) > exceptional_tolerance(1e2, 2.0, 3.0)
    assert exceptional_tolerance(1.0, 20.0, 3.0) > exceptional_tolerance(1.0, 2.0, 3.0)
    assert exceptional_tolerance(1.0, 2.0, 30.0) > exceptional_tolerance(1.0, 2.0, 3.0)


def test_critical_and_exceptional_fields():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    np.testing.assert_allclose(exceptional_field(p), 1.1, rtol=1e-15)
    assert exceptional_field(p.replace(gamma=0.2, k_ksea=0.5)) is None
    assert exceptional_field(p.replace(gamma=0.4, k_ksea=0.4)) is None
    # one h_e formula: here gamma**2 - K**2 rounds differently from
    # gamma * gamma - K * K, and classify_phase and zero_crossings still
    # agree with exceptional_field to the last bit
    p = p.replace(gamma=0.7679011619136085, k_ksea=0.7493203327284579)
    he = exceptional_field(p)
    assert he == 1.0139976496165972
    assert classify_phase(p).h_e == he
    assert classify_phase(p.replace(h=he)).region == "ExceptionalPoint"
    assert len(zero_crossings(p.replace(h=he))) == 1


def test_zero_crossings_pair_frozen_and_bracketed():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    pair = zero_crossings(p)
    assert pair is not None and len(pair) == 2
    np.testing.assert_allclose(
        pair, (1.612958497923114, 2.4723578302259632), rtol=1e-13)

    def eps_sq_of(omega):
        return block_elements(p, omega)[3]

    # independent root find on each side of the negative well
    lo = brentq(eps_sq_of, 1e-9, (pair[0] + pair[1]) / 2, xtol=1e-14)
    hi = brentq(eps_sq_of, (pair[0] + pair[1]) / 2, np.pi - 1e-9, xtol=1e-14)
    np.testing.assert_allclose(pair, (lo, hi), atol=1e-10)
    # eps_sq strictly negative inside, positive outside
    mid = 0.5 * (pair[0] + pair[1])
    assert eps_sq_of(mid) < 0
    assert eps_sq_of(pair[0] - 0.05) > 0
    assert eps_sq_of(pair[1] + 0.05) > 0
    # returned angles are zeros to near machine precision
    assert abs(eps_sq_of(pair[0])) < 1e-12
    assert abs(eps_sq_of(pair[1])) < 1e-12


def test_zero_crossings_tangency_at_exceptional_field():
    p = ChainParams(h=1.1, gamma=0.5, k_ksea=0.2, n_sites=6)
    roots = zero_crossings(p)
    assert roots is not None and len(roots) == 1
    np.testing.assert_allclose(roots[0], 2.7118929874383686, rtol=1e-13)

    # the tangency angle is the minimizer of eps_sq, with minimum ~ 0
    def eps_sq_of(omega):
        return block_elements(p, omega)[3]

    res = minimize_scalar(eps_sq_of, bounds=(0.1, np.pi - 0.01), method="bounded",
                          options={"xatol": 1e-12})
    np.testing.assert_allclose(res.x, roots[0], atol=1e-5)
    assert abs(res.fun) < 1e-12


@pytest.mark.parametrize("h,gamma,k", [
    (1.5, 0.5, 0.2),   # |h| > h_e
    (0.5, 0.2, 0.5),   # K >= gamma
    (0.5, 0.4, 0.4),   # gamma = K line
])
def test_zero_crossings_none_cases(h, gamma, k):
    assert zero_crossings(ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=6)) is None


def test_classify_phase_table():
    def region(h, gamma, k):
        return classify_phase(ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=6))

    info = region(0.5, 0.5, 0.2)
    assert info.region == "Broken"
    assert info.omega_pm is not None and len(info.omega_pm) == 2
    np.testing.assert_allclose(info.h_e, 1.1, rtol=1e-15)

    assert region(1.5, 0.5, 0.2).region == "Unbroken"
    assert region(1.1, 0.5, 0.2).region == "ExceptionalPoint"
    assert region(0.5, 0.4, 0.4).region == "ExceptionalLine"
    assert region(1.5, 0.4, 0.4).region == "Unbroken"
    assert region(0.5, 0.2, 0.5).region == "Unbroken"

    crit = region(1.0, 0.2, 0.5)
    assert crit.at_critical is True
    assert region(1.0 + 1e-6, 0.2, 0.5).at_critical is False
    assert crit.h_c == 1.0


def test_classify_phase_symmetric_in_field_sign():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h = rng.uniform(0.0, 2.0)
        gamma = rng.uniform(0.0, 0.9)
        k = rng.uniform(0.0, 0.9)
        a = classify_phase(ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=8))
        b = classify_phase(ChainParams(h=-h, gamma=gamma, k_ksea=k, n_sites=8))
        assert a.region == b.region
        assert a.at_critical == b.at_critical


def test_k_just_off_gamma_is_not_the_exceptional_line():
    # K = gamma + 1e-13: gamma - K is not 0, and every mode is regular
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.5 + 1e-13, n_sites=64)
    assert classify_phase(p).region == "Unbroken"
    assert np.isfinite(ground_qfi(p).total)


def test_field_just_above_h_e_is_unbroken():
    # 5e-13 from h_e = 1.1 the smallest eps_sq (1.9e-13) is some 800 times
    # its rounding bound; exactly on h_e, at either sign, it is the tangency
    p = ChainParams(h=1.1, gamma=0.5, k_ksea=0.2, n_sites=64)
    he = exceptional_field(p)
    above = p.replace(h=he + 5e-13)
    assert classify_phase(above).region == "Unbroken"
    assert zero_crossings(above) is None
    for h in (he, -he):
        assert classify_phase(p.replace(h=h)).region == "ExceptionalPoint"
        assert len(zero_crossings(p.replace(h=h))) == 1


def test_field_just_below_h_e_is_broken():
    p = ChainParams(h=1.1, gamma=0.5, k_ksea=0.2, n_sites=64)
    below = p.replace(h=exceptional_field(p) - 5e-13)
    info = classify_phase(below)
    assert info.region == "Broken"
    assert len(info.omega_pm) == 2 and info.omega_pm == zero_crossings(below)
    assert info.omega_pm[0] < info.omega_pm[1]


def test_critical_field_is_exact():
    p = ChainParams(h=-1.0, gamma=0.2, k_ksea=0.5, n_sites=8)
    assert classify_phase(p).at_critical is True
    assert classify_phase(p.replace(h=1.0 + 1e-13)).at_critical is False


@st.composite
def phase_points(draw):
    """Chains anywhere, on the gamma = K line, and at or near h = +-1 and h_e."""
    gamma = draw(st.floats(0.0, 2.0))
    k = draw(st.one_of(st.floats(0.0, 2.0), st.just(gamma)))
    he = math.sqrt(1.0 + gamma * gamma - k * k) if k < gamma else 1.0
    h = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([1.0, -1.0, he, -he]),
                       st.floats(-1e-9, 1e-9).map(lambda d: he * (1.0 + d)),
                       st.floats(-1e-12, 1e-12).map(lambda d: he * (1.0 + d))))
    return ChainParams(h=h, gamma=gamma, k_ksea=k, n_sites=2 * draw(st.integers(1, 2 ** 11)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(phase_points())
def test_phase_agrees_with_the_grid(p):
    # the spectrum at -h is that at h with phi -> pi - phi; the roots are at |h|
    info = classify_phase(p)
    phi = momentum_grid(p.n_sites)
    g, ap, am, eps_sq = block_elements(p.replace(h=abs(p.h)), phi)
    if info.region == "Unbroken":
        assert (eps_sq >= -exceptional_tolerance(g, ap, am)).all()
    if info.region == "Broken":
        (lo, hi), margin = info.omega_pm, 1e-10
        assert (eps_sq[(phi > lo + margin) & (phi < hi - margin)] < 0).all()
        assert (eps_sq[(phi < lo - margin) | (phi > hi + margin)] > 0).all()
