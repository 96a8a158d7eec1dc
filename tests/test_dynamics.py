"""Block propagators, analytic field derivative, and dynamical QFI."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from iksea.dynamics import (
    block_propagator,
    dynamical_qfi,
    propagator_derivative,
    qfi_time_series,
)
from iksea.errors import EvolutionOverflowError, ParameterError
from iksea.model import (
    EXACT_SUM_CUTOVER,
    ChainParams,
    block_elements,
    block_matrix,
    exact_sum,
    momentum_grid,
)

BROKEN = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=8)
UNBROKEN = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=8)
GAMMA_IS_K = ChainParams(h=0.5, gamma=0.5, k_ksea=0.5, n_sites=64)


def _broken_phi(params):
    for phi in momentum_grid(params.n_sites):
        if block_elements(params, float(phi))[3] < 0:
            return float(phi)
    raise AssertionError("no broken mode on this grid")


def test_propagator_matches_dense_expm():
    rng = np.random.default_rng(2)
    for _ in range(60):
        p = ChainParams(h=rng.uniform(0.2, 2.0), gamma=rng.uniform(0.0, 0.9),
                        k_ksea=rng.uniform(0.0, 0.9), n_sites=8)
        phi = float(rng.uniform(0.1, np.pi - 0.1))
        t = float(rng.uniform(0.1, 8.0))
        _, _, _, eps_sq = block_elements(p, phi)
        if abs(eps_sq) * t * t > 1e4:   # keep expm well-conditioned
            continue
        u = block_propagator(p, phi, t)
        ref = expm(-1j * t * block_matrix(p, phi).astype(complex))
        np.testing.assert_allclose(u, ref, rtol=1e-10, atol=1e-12)


def test_propagator_is_unimodular():
    # the block is traceless, so det U = exp(-i t tr H) = 1 on every branch;
    # round-off in the determinant grows with the matrix magnitude squared
    for p in (BROKEN, UNBROKEN):
        for phi in momentum_grid(p.n_sites):
            for t in (0.5, 3.0, 20.0):
                _, _, _, eps_sq = block_elements(p, float(phi))
                if math.sqrt(abs(eps_sq)) * t > 30:
                    continue
                u = block_propagator(p, float(phi), t)
                scale = max(1.0, float(np.abs(u).max()) ** 2)
                np.testing.assert_allclose(np.linalg.det(u), 1.0, rtol=0,
                                           atol=1e-13 * scale)


def test_propagator_composition():
    for p in (BROKEN, UNBROKEN):
        phi = float(momentum_grid(p.n_sites)[1])
        for t1, t2 in ((0.3, 0.9), (1.5, 2.5), (4.0, 6.0)):
            u1 = block_propagator(p, phi, t1)
            u2 = block_propagator(p, phi, t2)
            u12 = block_propagator(p, phi, t1 + t2)
            scale = max(1.0, float(np.abs(u12).max()))
            np.testing.assert_allclose(u2 @ u1, u12, rtol=1e-9,
                                       atol=1e-9 * scale)


def test_exceptional_block_is_still_evolvable():
    # a defective block (eps_sq = 0) nilpotent in H: U = I - i t H exactly
    h = -float(np.cos(np.pi / 4))
    p = ChainParams(h=h, gamma=0.4, k_ksea=0.4, n_sites=4)
    phi = np.pi / 4
    t = 3.7
    u = block_propagator(p, phi, t)
    hm = block_matrix(p, phi).astype(complex)
    np.testing.assert_allclose(u, np.eye(2) - 1j * t * hm, rtol=0, atol=1e-14)
    ref = expm(-1j * t * hm)
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)


def test_analytic_derivative_matches_fd():
    rng = np.random.default_rng(9)
    for _ in range(60):
        p = ChainParams(h=rng.uniform(0.2, 2.0), gamma=rng.uniform(0.0, 0.9),
                        k_ksea=rng.uniform(0.0, 0.9), n_sites=8)
        phi = float(rng.uniform(0.1, np.pi - 0.1))
        t = float(rng.uniform(0.1, 5.0))
        _, _, _, eps_sq = block_elements(p, phi)
        if math.sqrt(abs(eps_sq)) * t > 20:
            continue
        da = propagator_derivative(p, phi, t, mode="analytic")
        df = propagator_derivative(p, phi, t, mode="fd", fd_step=1e-6)
        scale = max(1.0, float(np.abs(da).max()))
        np.testing.assert_allclose(da, df, rtol=1e-6, atol=1e-7 * scale)


def test_derivative_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        propagator_derivative(UNBROKEN, 0.5, 1.0, mode="complex-step")


def test_series_coefficients_match_exact_forms_near_seams():
    # c0/c1 switch to Taylor at |z| = 1e-8, c2 at |z| = 1e-3; just outside
    # each seam the trig evaluation must match the truncated series, i.e.
    # switching methods never produces a jump
    from iksea.dynamics import _c012
    for z in (1.5e-8, -1.5e-8):
        c0, c1, _ = _c012(z)
        s0 = 1.0 - z / 2.0 + z * z / 24.0 - z ** 3 / 720.0
        s1 = 1.0 - z / 6.0 + z * z / 120.0 - z ** 3 / 5040.0
        np.testing.assert_allclose([c0, c1], [s0, s1], rtol=1e-14)
    for z in (1.5e-3, -1.5e-3):
        _, _, c2 = _c012(z)
        s2 = -1.0 / 3.0 + z / 30.0 - z * z / 840.0 + z ** 3 / 45360.0
        np.testing.assert_allclose(c2, s2, rtol=0, atol=5e-13)


def test_hermitian_limit_preserves_norm():
    p = ChainParams(h=1.2, gamma=0.0, k_ksea=0.6, n_sites=8)
    for phi in momentum_grid(8):
        for t in (0.7, 3.0, 15.0):
            v = block_propagator(p, float(phi), t)[:, 0]
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=0,
                                       atol=1e-10)


def test_norm_factor_inverts_raw_norm_on_broken_branch():
    from iksea.dynamics import _columns
    phi = _broken_phi(BROKEN)
    v = block_propagator(BROKEN, phi, 12.0)[:, 0]
    raw_norm = np.linalg.norm(v)
    assert raw_norm > 1.0   # broken modes amplify the vacuum component
    # the kernel's U|0> = (v0r + i v0i, i v1i) has the same raw norm
    (vr, vi, vi1), _ = _columns(BROKEN, np.array([phi]), 12.0, rescale=False)
    np.testing.assert_allclose(
        np.sqrt(vr[0] ** 2 + vi[0] ** 2 + vi1[0] ** 2), raw_norm, rtol=1e-14)
    norm_factor = 1.0 / raw_norm
    np.testing.assert_allclose(norm_factor * raw_norm, 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(norm_factor * v), 1.0, rtol=1e-12)


def test_long_time_broken_mode_converges_to_dominant_eigenvector():
    phi = _broken_phi(BROKEN)
    v = block_propagator(BROKEN, phi, 50.0)[:, 0]
    vals, vecs = np.linalg.eig(block_matrix(BROKEN, phi))
    target = vecs[:, np.argmax(vals.imag)]     # the growing eigenvector
    overlap = abs(np.vdot(target, v / np.linalg.norm(v)))
    assert overlap >= 1.0 - 1e-8


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf])
def test_fd_step_must_be_finite_and_positive(step):
    with pytest.raises(ParameterError, match="fd_step"):
        propagator_derivative(UNBROKEN, 0.5, 1.0, mode="fd", fd_step=step)
    assert (propagator_derivative(UNBROKEN, 0.5, 1.0, fd_step=step)
            == propagator_derivative(UNBROKEN, 0.5, 1.0)).all()


def test_qfi_zero_at_time_zero():
    assert dynamical_qfi(BROKEN, 0.0) == 0.0
    assert dynamical_qfi(UNBROKEN, 0.0) == 0.0


def test_dynamical_qfi_frozen_value():
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=6)
    np.testing.assert_allclose(dynamical_qfi(p, 2.0), 2.8279624133461745,
                               rtol=1e-12)


def test_analytic_vs_fd_qfi():
    for p in (BROKEN, UNBROKEN, ChainParams(h=1.2, gamma=0.0, k_ksea=0.6,
                                            n_sites=8)):
        for t in (0.5, 2.0, 5.0):
            # the kernel has only the analytic derivative; the finite
            # differences come from the 2x2 matrix route
            a = dynamical_qfi(p, t)
            f = _matrix_route(p, t, "fd")
            np.testing.assert_allclose(a, f, rtol=1e-6, atol=1e-9)


def test_qfi_time_series_shape_and_nonnegativity():
    ts = np.linspace(0.0, 20.0, 41)
    series = qfi_time_series(UNBROKEN, ts)
    assert type(series) is np.ndarray and series.dtype == np.float64
    assert series.shape == (41,)
    assert series[0] == 0.0
    assert np.all(series >= 0.0)


def test_overflow_raises_named_error():
    phi = _broken_phi(BROKEN)
    r = math.sqrt(-block_elements(BROKEN, phi)[3])
    t_bad = 720.0 / r
    with pytest.raises(EvolutionOverflowError):
        block_propagator(BROKEN, phi, t_bad)
    with pytest.raises(EvolutionOverflowError):
        dynamical_qfi(BROKEN, t_bad)


def test_broken_mode_plateau_up_to_cosh_cutoff():
    # N=2 has a single mode; these parameters put it on the broken branch,
    # so the total IS the saturating mode and the rescaled frame keeps the
    # plateau representable for |eps| t anywhere below the cosh cutoff
    p = ChainParams(h=0.1, gamma=0.9, k_ksea=0.1, n_sites=2)
    phi = float(momentum_grid(2)[0])
    eps_sq = block_elements(p, phi)[3]
    assert eps_sq < 0
    r = math.sqrt(-eps_sq)
    ref = dynamical_qfi(p, 80.0 / r)
    for rt in (99.0, 101.0, 300.0, 690.0):
        val = dynamical_qfi(p, rt / r)
        np.testing.assert_allclose(val, ref, rtol=1e-9)


# ------------------------------------------------ array kernel exactness


def test_fma_is_correctly_rounded():
    from fractions import Fraction

    from iksea.dynamics import _fma
    rng = np.random.default_rng(5)
    n = 3000
    # random magnitudes
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    b = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    c = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    # near-cancelling: c within a relative 1e-16 .. 1 of -a*b
    a2 = rng.standard_normal(n)
    b2 = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4, n)
    c2 = -(a2 * b2) * (1.0 + rng.standard_normal(n)
                       * 10.0 ** rng.uniform(-16, 0, n))
    # exact ties and their neighbours: 27-bit integer factors and an integer
    # c put a*b + c on an odd integer in [2^53, 2^54), halfway between two
    # doubles, or +-1/2 off it; everything is then scaled by a power of two
    a3 = rng.integers(3 * 2 ** 25, 2 ** 27, n).astype(float)
    b3 = rng.integers(3 * 2 ** 25, 2 ** 27, n).astype(float)
    c3 = rng.integers(-2 ** 50, 0, n)
    s3 = [int(x) * int(y) + int(z) for x, y, z in zip(a3, b3, c3)]
    c3 = c3 + np.array([1 - s % 2 for s in s3])
    assert all(2 ** 53 <= s + 1 - s % 2 < 2 ** 54 for s in s3)
    c3 = c3.astype(float) + rng.choice([-0.5, 0.0, 0.5], n)
    scale = 2.0 ** rng.integers(-60, 60, n)
    a3 *= scale
    c3 *= scale
    # double-rounding traps: c in [1, 2) with an even mantissa plus a*b, a
    # hair over half an ulp of c, then signed and scaled; rounding the error
    # terms to nearest before the last addition lands on the tie and rounds
    # towards c instead of away from it
    sign = rng.choice([-1.0, 1.0], n)
    scale4 = sign * 2.0 ** rng.integers(-60, 60, n)
    c4 = (1.0 + 2.0 * rng.integers(0, 2 ** 51, n) * 2.0 ** -52) * scale4
    a4 = 2.0 ** -53 * (1.0 + 2.0 ** -52) * scale4
    b4 = np.full(n, 1.0 - 2.0 ** -53)
    got = []
    for x, y, z in ((a, b, c), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4)):
        out = _fma(x, y, z)
        for xi, yi, zi, oi in zip(x.tolist(), y.tolist(), z.tolist(),
                                  out.tolist()):
            ref = float(Fraction(xi) * Fraction(yi) + Fraction(zi))
            got.append(oi == ref)
    assert all(got), f"{got.count(False)} of {len(got)} misrounded"


def _scalar_c012(z, rescale=False):
    """c0, c1, c2 at one z with math.* (reference for the array _c012)."""
    if abs(z) <= 1e-8:
        c0 = 1.0 - z / 2.0 + z * z / 24.0 - z ** 3 / 720.0
        c1 = 1.0 - z / 6.0 + z * z / 120.0 - z ** 3 / 5040.0
    elif z > 0.0:
        r = math.sqrt(z)
        c0, c1 = math.cos(r), math.sin(r) / r
    else:
        r = math.sqrt(-z)
        if rescale and r > 100.0:
            e = math.exp(-2.0 * r)
            c0, c1 = 0.5 * (1.0 + e), 0.5 * (1.0 - e) / r
        else:
            c0, c1 = math.cosh(r), math.sinh(r) / r
    if abs(z) <= 1e-3:
        c2 = -1.0 / 3.0 + z / 30.0 - z * z / 840.0 + z ** 3 / 45360.0
    else:
        c2 = (c0 - c1) / z
    return c0, c1, c2


def test_c012_equals_scalar_formulas():
    from iksea.dynamics import _c012
    rng = np.random.default_rng(3)
    mag = np.concatenate([10.0 ** rng.uniform(-12, -8, 2000),
                          10.0 ** rng.uniform(-8, -3, 2000),
                          10.0 ** rng.uniform(-3, math.log10(700.0 ** 2),
                                              20000)])
    z = np.concatenate([mag, -mag, [0.0, 1e-8, -1e-8, 1e-3, -1e-3, -1e4]])
    for rescale in (False, True):
        got = np.array(_c012(z, rescale)).T.tolist()
        ref = [list(_scalar_c012(x, rescale)) for x in z.tolist()]
        assert got == ref
    c0, c1, c2 = _c012(-2.5)
    assert c0.shape == () and (float(c0), float(c1), float(c2)) == \
        _scalar_c012(-2.5)
    with pytest.raises(EvolutionOverflowError):
        _c012(np.array([1.0, -(700.5 ** 2)]), rescale=True)


def test_pow2_rounds_like_scalar_power():
    from iksea.dynamics import _pow2
    rng = np.random.default_rng(4)
    x = np.concatenate([10.0 ** rng.uniform(-300, 300, 50000),
                        [0.0, 1e150, 1.3e154, 1e200, np.inf, np.nan]])
    with np.errstate(over="ignore"):
        ref = [v ** 2 for v in x]            # float64 scalar power
        got = _pow2(x)
    np.testing.assert_array_equal(got, ref)
    small = x[:50000] < 1e150
    assert np.any(got[:50000][small] != x[:50000][small] ** 2)


def _matrix_route(params, t, derivative="analytic"):
    """Per-mode 2x2 route: propagator columns, np.vdot, fsum."""
    vals = []
    for phi in momentum_grid(params.n_sites):
        v = block_propagator(params, float(phi), t)[:, 0]
        w = propagator_derivative(params, float(phi), t,
                                  mode=derivative)[:, 0]
        n2 = float(np.real(np.vdot(v, v)))
        ww = float(np.real(np.vdot(w, w)))
        vw = np.vdot(v, w)
        vals.append(max(4.0 * (ww / n2 - abs(vw) ** 2 / (n2 * n2)), 0.0))
    return math.fsum(vals)


def test_kernel_matches_matrix_route():
    p_broken = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=64)
    eps_sq = block_elements(p_broken, momentum_grid(64))[3]
    r_max = math.sqrt(-eps_sq.min())
    cases = [
        (UNBROKEN, (0.0, 0.3, 2.0, 17.0)),
        (ChainParams(h=1.2, gamma=0.0, k_ksea=0.6, n_sites=16), (0.0, 5.0)),
        # broken modes below the rescale threshold, then some above it;
        # up to r = 170 the unscaled matrix route stays finite (n^4 ~ e^{4r})
        (p_broken, (0.0, 1.0, 10.0, 120.0 / r_max, 170.0 / r_max)),
    ]
    rescaled = 0
    for p, times in cases:
        for t in times:
            z = block_elements(p, momentum_grid(p.n_sites))[3] * t * t
            rescaled += int(np.sum(z < -100.0 ** 2))
            total = dynamical_qfi(p, t)
            np.testing.assert_allclose(total, _matrix_route(p, t),
                                       rtol=1e-12, atol=0)
            # finite differences of the matrix route, at their own accuracy
            np.testing.assert_allclose(total, _matrix_route(p, t, "fd"),
                                       rtol=1e-6, atol=1e-9)
    assert rescaled > 0


def test_kernel_equals_matrix_route_bit_for_bit():
    # below the rescale threshold both routes do the same arithmetic
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(150):
        p = ChainParams(h=float(rng.uniform(-2.0, 2.0)),
                        gamma=float(rng.uniform(0.0, 1.0)),
                        k_ksea=float(rng.uniform(0.0, 1.0)),
                        n_sites=int(2 * rng.integers(1, 33)))
        r_max = math.sqrt(np.abs(block_elements(
            p, momentum_grid(p.n_sites))[3]).max())
        t = float(rng.uniform(0.0, 100.0 / r_max))
        # the draw keeps the sequence of points; every point is analytic
        rng.choice(["analytic", "fd"])
        assert dynamical_qfi(p, t) == _matrix_route(p, t, "analytic")
        checked += p.n_sites // 2
    assert checked > 2000


@pytest.mark.parametrize("h", [0.5, 1.5])
def test_total_is_fsum_above_the_cutover(monkeypatch, h):
    # 4096 modes take exact_sum's array path, not math.fsum itself
    import iksea.dynamics as dyn
    summed = []

    def keeping(values):
        summed.append(values.copy())
        return exact_sum(values)

    monkeypatch.setattr(dyn, "exact_sum", keeping)
    p = ChainParams(h=h, gamma=0.5, k_ksea=0.2, n_sites=8192)
    total = dynamical_qfi(p, 3.0)
    (vals,) = summed
    assert vals.size == 4096 > EXACT_SUM_CUTOVER and vals.min() > 0.0
    assert total == math.fsum(vals.tolist())


def test_rescaled_frame_values_pinned():
    # N = 1024 in the broken phase: at these times 78, 132 and 138 modes are
    # evaluated in the rescaled frame (sqrt(-eps_sq) t > 100)
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=1024)
    assert dynamical_qfi(p, 300.0) == 104176251.20196481
    assert dynamical_qfi(p, 800.0) == 200271599.1097164
    assert dynamical_qfi(p, 1500.0) == 3176724244.0308056


def test_oracle_suite_points_pinned():
    # dynamics rows of the oracle suite (N = 6, gamma = 0.5, K = 0.2); the
    # suite reports relative errors down to ~1e-12, so these stay exact
    pinned = {
        (1.5, 0.5): 0.027533879296150032,
        (1.5, 2.0): 1.782602041251728,
        (1.5, 5.0): 12.274875370675758,
        (0.5, 0.5): 0.03026673646550848,
        (0.5, 2.0): 2.8279624133461745,
        (0.5, 5.0): 28.23605070344655,
    }
    for (h, t), value in pinned.items():
        p = ChainParams(h=h, gamma=0.5, k_ksea=0.2, n_sites=6)
        assert dynamical_qfi(p, t) == value


def test_kernel_evaluates_block_elements_once(monkeypatch):
    import iksea.dynamics as dyn
    calls = []

    def counting(params, phi):
        calls.append(np.size(phi))
        return block_elements(params, phi)

    monkeypatch.setattr(dyn, "block_elements", counting)
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=1024)
    dynamical_qfi(p, 3.0)
    assert calls == [512]


# ------------------------------------------------ time-series kernel


def _libm_value(fn, *args):
    """fn(*args) from the math module, with its range errors as IEEE values."""
    try:
        return fn(*args)
    except OverflowError:                    # math.pow past the largest double
        return math.copysign(math.inf, args[0]) if args[1] == 3.0 else math.inf
    except ValueError:                       # math.cos(inf), math.sin(inf)
        return math.nan


def test_numpy_transcendentals_equal_libm_bit_for_bit():
    # the kernel takes cos, sin and powers from numpy on the premise that its
    # float64 loops return the C math library's values; this names the
    # premise when a numpy build breaks it, before any data-file digest does
    rng = np.random.default_rng(11)
    mag = np.concatenate([10.0 ** rng.uniform(-300, 300, 60000),
                          rng.uniform(0.0, 4000.0, 60000),
                          10.0 ** rng.uniform(-12, -3, 20000),
                          [0.0, 5e-324, 2.0 ** -1022, 1e-3, 1e150, 1.3e154,
                           1e200, 1.7e308, np.pi, 1e22, np.inf, np.nan]])
    x = np.concatenate([mag, -mag])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        cases = [(np.cos(x), math.cos, ()), (np.sin(x), math.sin, ()),
                 (np.float_power(x, 2.0), math.pow, (2.0,)),
                 (np.float_power(x, 3.0), math.pow, (3.0,))]
    for got, fn, extra in cases:
        ref = np.array([_libm_value(fn, v, *extra) for v in x.tolist()])
        same = (got.view(np.int64) == ref.view(np.int64)) \
            | (np.isnan(got) & np.isnan(ref))
        assert same.all(), (fn.__name__, extra, x[~same][:5])


def _per_time(params, times):
    """The per-time route: one dynamical_qfi call per time."""
    out = []
    for t in times:
        try:
            out.append(dynamical_qfi(params, t))
        except Exception as exc:               # noqa: BLE001 - compared below
            out.append(exc)
    return out


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert not isinstance(g, Exception) and g == w


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_series_rows_at_the_block_edges_equal_the_per_time_route(extra):
    from iksea.dynamics import _BLOCK, _qfi_totals
    # 500 modes do not divide the block: each block holds 16 rows of times
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=1000)
    rows = _BLOCK // 500 + extra
    times = np.geomspace(0.05, 900.0, rows)
    _assert_same_rows(_qfi_totals(p, times), _per_time(p, times))
    assert qfi_time_series(p, times).tolist() == _per_time(p, times)


def test_series_equals_matrix_route_bit_for_bit():
    # below the rescale threshold the matrix route does the same arithmetic
    p = ChainParams(h=0.7, gamma=0.6, k_ksea=0.25, n_sites=24)
    r_max = math.sqrt(np.abs(block_elements(p, momentum_grid(24))[3]).max())
    times = [0.0, -0.4, 1e-5, 0.3, 2.0, 95.0 / r_max]
    assert qfi_time_series(p, times).tolist() == [_matrix_route(p, t) for t in times]


def test_series_edge_rows_equal_the_per_time_route():
    # t = 0, negative t, gamma = K (a_minus = 0) and both branches
    from iksea.dynamics import _qfi_totals
    times = [0.0, -2.5, 0.3, -0.3, 7.0, 0.0, 40.0]
    for p in (BROKEN, UNBROKEN, ChainParams(h=0.5, gamma=0.4, k_ksea=0.4,
                                            n_sites=64),
              ChainParams(h=1.3, gamma=0.4, k_ksea=0.4, n_sites=2048)):
        _assert_same_rows(_qfi_totals(p, times), _per_time(p, times))


def test_failing_time_mid_series_leaves_other_rows_unchanged():
    from iksea.dynamics import _qfi_totals
    phi = _broken_phi(BROKEN)
    t_bad = 720.0 / math.sqrt(-block_elements(BROKEN, phi)[3])
    cases = [
        (BROKEN, [1.0, 2.0, t_bad, 3.0, 4.0]),
        (UNBROKEN, [1.0, 1e200, 2.0, 1e150, 3.0]),
        # gamma = K: every mode is exactly 0 (once round-off below the clamp
        # floor failed t = 400); an overflowing time still fails its row
        (GAMMA_IS_K, [1.0, 400.0, 2.0, 1e200]),
    ]
    for p, times in cases:
        got = _qfi_totals(p, times)
        want = _per_time(p, times)
        _assert_same_rows(got, want)
        if p is GAMMA_IS_K:
            assert got[:3] == [0.0, 0.0, 0.0]
        assert [isinstance(g, Exception) for g in got] == \
            [isinstance(w, Exception) for w in want]
        assert sum(isinstance(g, Exception) for g in got) >= 1
        first = next(g for g in got if isinstance(g, Exception))
        with pytest.raises(type(first), match=re.escape(str(first))):
            qfi_time_series(p, times)


def test_gamma_equal_k_series_is_zero_at_every_time():
    # a_minus = 0 makes |0> an eigenvector of every block: the evolved state
    # does not depend on h, so the QFI is exactly 0, not Gram-form round-off
    times = np.concatenate([[0.0, -3.0, 1e-5], np.geomspace(0.1, 1e6, 60)])
    for p in (GAMMA_IS_K, GAMMA_IS_K.replace(h=1.3, n_sites=4096),
              GAMMA_IS_K.replace(h=-0.8, n_sites=8)):
        assert qfi_time_series(p, times).tolist() == [0.0] * times.size


def test_overflowing_oscillating_time_is_an_overflow_error():
    # eps_sq t^2 overflows on the oscillating branch: the named overflow
    # error, as on the hyperbolic branch, not a bare math domain error
    phi = float(momentum_grid(8)[0])
    for t in (1e200, -1e200, 1.5e154):
        with pytest.raises(EvolutionOverflowError,
                           match="the requested time overflows double precision"):
            dynamical_qfi(UNBROKEN, t)
        with pytest.raises(EvolutionOverflowError):
            block_propagator(UNBROKEN, phi, t)


@pytest.mark.parametrize("t", [1e103, 1e150])
def test_scalar_derivative_t_cubed_overflow_is_an_overflow_error(t):
    # t^3 overflows while eps_sq t^2 stays finite: the scalar route raises
    # the kernel's named error, not a bare OverflowError from float **
    phi = float(momentum_grid(8)[0])
    with pytest.raises(EvolutionOverflowError,
                       match=re.escape(f"t^3 at t={t:g} overflows")):
        propagator_derivative(UNBROKEN, phi, t)
    with pytest.raises(EvolutionOverflowError):
        dynamical_qfi(UNBROKEN, t)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_is_a_parameter_error(t):
    with pytest.raises(ParameterError, match="times must be finite"):
        dynamical_qfi(UNBROKEN, t)
    with pytest.raises(ParameterError, match="times must be finite"):
        qfi_time_series(BROKEN, [1.0, t, 2.0])


def test_series_evaluates_block_elements_once(monkeypatch):
    import iksea.dynamics as dyn
    calls = []

    def counting(params, phi):
        calls.append(np.size(phi))
        return block_elements(params, phi)

    monkeypatch.setattr(dyn, "block_elements", counting)
    p = ChainParams(h=0.5, gamma=0.5, k_ksea=0.2, n_sites=1024)
    times = np.geomspace(0.1, 1500.0, 40)
    assert qfi_time_series(p, times).shape == (40,)
    assert calls == [512]
