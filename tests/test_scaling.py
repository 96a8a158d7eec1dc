"""Power-law fitting and the exponent sweep drivers."""

import numpy as np
import pytest

from iksea.errors import (
    DomainError,
    InsufficientDataError,
    ParameterError,
)
from iksea.dynamics import qfi_time_series
from iksea.model import ChainParams
from iksea.scaling import (
    ScalingFit,
    exponent_vs_offset,
    kappa_sweep,
    power_law_fit,
    size_exponent,
)


def test_fit_recovers_exact_power_law():
    xs = np.geomspace(10, 1e4, 9)
    fit = power_law_fit(xs, 3.5 * xs ** 2.25)
    np.testing.assert_allclose(fit.exponent, 2.25, rtol=1e-12)
    np.testing.assert_allclose(fit.amplitude, 3.5, rtol=1e-10)
    np.testing.assert_allclose(fit.r_squared, 1.0, atol=1e-12)
    assert fit.low_quality is False
    assert fit.n_points == 9
    assert fit.window == (10.0, 1e4)


def test_fit_recovers_quadratic_time_law():
    ts = np.linspace(2.0, 50.0, 12)
    fit = power_law_fit(ts, ts ** 2)
    np.testing.assert_allclose(fit.exponent, 2.0, rtol=1e-12)
    np.testing.assert_allclose(fit.amplitude, 1.0, rtol=1e-10)


def test_fit_tolerates_small_noise():
    rng = np.random.default_rng(19)
    xs = np.geomspace(100, 4000, 8)
    ys = xs ** 6 * (1.0 + rng.uniform(-1e-4, 1e-4, xs.size))
    fit = power_law_fit(xs, ys)
    assert 5.99 <= fit.exponent <= 6.01
    assert fit.r_squared > 0.999999


def test_exponent_invariant_under_amplitude_rescale():
    xs = np.geomspace(10, 1e4, 9)
    ys = 0.7 * xs ** 1.8 * (1 + 1e-5 * np.sin(xs))
    base = power_law_fit(xs, ys)
    for c in (1e-8, 3.0, 1e12):
        fit = power_law_fit(xs, c * ys)
        np.testing.assert_allclose(fit.exponent, base.exponent, rtol=1e-12)
        np.testing.assert_allclose(fit.amplitude, c * base.amplitude, rtol=1e-8)


def test_fit_window_filters_points():
    xs = np.array([1.0, 10.0, 100.0, 1000.0, 1e4, 1e5])
    ys = xs ** 2
    ys[0] = 1e6   # junk outside the window must not matter
    fit = power_law_fit(xs, ys, window=(10.0, 1e5))
    np.testing.assert_allclose(fit.exponent, 2.0, rtol=1e-12)
    assert fit.n_points == 5
    assert fit.window == (10.0, 1e5)
    # window bounds are inclusive
    fit2 = power_law_fit(xs, xs ** 2, window=(10.0, 1000.0))
    assert fit2.n_points == 3


def test_fit_rejects_bad_inputs():
    xs = np.geomspace(1, 100, 5)
    with pytest.raises(DomainError):
        power_law_fit(xs, -xs)
    with pytest.raises(DomainError):
        power_law_fit(xs, 0.0 * xs)
    with pytest.raises(DomainError):
        power_law_fit(xs, np.full(5, np.nan))
    with pytest.raises(ParameterError):
        power_law_fit(xs, np.ones(4))
    with pytest.raises(InsufficientDataError):
        power_law_fit(xs[:2], xs[:2] ** 2)
    with pytest.raises(InsufficientDataError):
        power_law_fit(xs, xs ** 2, window=(90.0, 110.0))


def test_low_quality_flag():
    rng = np.random.default_rng(4)
    xs = np.geomspace(10, 1000, 10)
    ys = xs ** 2 * np.exp(rng.normal(0, 0.8, xs.size))
    fit = power_law_fit(xs, ys)
    assert fit.low_quality is True
    assert isinstance(fit, ScalingFit)


def test_size_exponent_at_critical_point():
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=256)
    res = size_exponent(tpl, [256, 512, 1024, 2048])
    assert 1.95 <= res.fit.exponent <= 2.06
    assert res.fit.r_squared > 0.9999
    np.testing.assert_array_equal(res.xs, [256, 512, 1024, 2048])
    assert res.ys.shape == (4,)
    assert res.metadata["kind"] == "size_exponent"


def test_size_exponent_octave_windows_converge():
    # the fitted slope drifts toward the asymptotic value as the window moves
    # to larger sizes; the drift must be monotone at the critical point
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=64)
    errs = []
    for n0 in (64, 256, 1024, 4096):
        res = size_exponent(tpl, [n0, 2 * n0, 4 * n0])
        errs.append(abs(res.fit.exponent - 2.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_exponent_vs_offset_reports_phases():
    tpl = ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=512)
    res = exponent_vs_offset(tpl, [0.3, -0.3], [512, 1024, 2048, 4096],
                             anchor="h_e")
    assert res.metadata["anchor"] == "h_e"
    np.testing.assert_allclose(res.metadata["anchor_value"], 1.1, rtol=1e-12)
    assert res.metadata["phase"] == ["Unbroken", "Broken"]
    assert res.metadata["phase_change"] is True
    assert len(res.metadata["r_squared"]) == 2
    assert res.ys.shape == (2,)

    same_side = exponent_vs_offset(tpl, [0.2, 0.4], [512, 1024, 2048],
                                   anchor="h_e")
    assert same_side.metadata["phase_change"] is False


def test_exponent_vs_offset_anchor_validation():
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=512)
    with pytest.raises(DomainError):
        exponent_vs_offset(tpl, [0.1], [512, 1024, 2048], anchor="h_e")
    with pytest.raises(ParameterError):
        exponent_vs_offset(tpl, [0.1], [512, 1024, 2048], anchor="h_x")
    with pytest.raises(DomainError):
        exponent_vs_offset(tpl, [], [512, 1024, 2048])


def test_kappa_sweep_window_bookkeeping():
    ns = [512, 1024, 2048]
    res = kappa_sweep(0.5, [1e-5], ns)   # pi/N > 10 kappa holds everywhere
    assert res.metadata["out_of_window"] == []
    assert res.ys.shape == (1,)

    # kappa = 1e-3 violates the guard at every one of these sizes
    res2 = kappa_sweep(0.5, [1e-3], ns)
    assert len(res2.metadata["out_of_window"]) == 3
    assert res2.metadata["out_of_window"][0] == (1e-3, 512)


def test_kappa_sweep_rejects_nonpositive_kappa():
    with pytest.raises(DomainError):
        kappa_sweep(0.5, [0.0], [512, 1024, 2048])
    with pytest.raises(DomainError):
        kappa_sweep(0.5, [1e-4, -1e-4], [512, 1024, 2048])
    with pytest.raises(DomainError):
        kappa_sweep(0.5, [], [512, 1024, 2048])


def test_kappa_sweep_super_heisenberg_inside_window():
    # deep inside the validity window the fitted exponent approaches 6
    ns = [64, 96, 128, 192, 256]
    res = kappa_sweep(0.5, [1e-7], ns)
    assert 5.7 <= res.ys[0] <= 6.2
    assert res.metadata["out_of_window"] == []


def test_time_exponent_unbroken_window():
    tpl = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=32)
    ts = np.geomspace(10.0, 100.0, 10)
    series = qfi_time_series(tpl, ts)
    fit = power_law_fit(series.times, series.values)
    assert 1.8 <= fit.exponent <= 2.2
    # window argument narrows the fit on the same series
    fit_w = power_law_fit(series.times, series.values, window=(20.0, 80.0))
    assert fit_w.n_points < fit.n_points
