"""Power-law fitting and the exponent sweep drivers."""

import math
import os

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iksea.errors import (
    DomainError,
    ExceptionalModeError,
    InsufficientDataError,
    ParameterError,
)
from iksea.dynamics import qfi_time_series
from iksea.config import RunConfig
from iksea.model import ChainParams, classify_phase
from iksea.scaling import (
    ScalingFit,
    exponent_vs_offset,
    kappa_sweep,
    power_law_fit,
    size_exponent,
)

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


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
    # repeated xs leave the slope undetermined
    with pytest.raises(InsufficientDataError, match="fewer than 3 distinct xs"):
        power_law_fit([64.0, 64.0, 64.0, 128.0], [1.0, 2.0, 3.0, 4.0])


def test_fit_counts_distinct_logs_not_distinct_xs():
    # three distinct xs whose logs round to one value leave the slope
    # undetermined: the distinct count is taken on ln x, the values fitted
    xs = [1e10, math.nextafter(1e10, 2e10)]
    xs.append(math.nextafter(xs[1], 2e10))
    assert len(set(xs)) == 3 and len(set(np.log(xs).tolist())) == 1
    with pytest.raises(InsufficientDataError, match=r"got 3 \(fewer than 3 distinct xs\)"):
        power_law_fit(xs, [1.0, 2.0, 3.0])


def test_fit_of_constant_ys_is_flat_and_exact():
    # every ln y equal: slope 0 and r^2 1 exactly, although the float mean
    # of n equal logs need not equal them, and the intercept is that log
    for n in (3, 5, 7, 9, 11):
        xs = np.arange(1.0, n + 1.0) * 1.7
        for y in (5.0, 1e10, 0.3, 77.7, 1e-300):
            fit = power_law_fit(xs, np.full(n, y))
            assert (fit.exponent, fit.r_squared) == (0.0, 1.0)
            assert fit.intercept == float(np.log(y))


def _mp_line(xs, ys):
    """50-digit least-squares line of (ln x, ln y), the logs as numpy rounds
    them, with cond = sum |dx dy| / sum dx^2 for the reference's own error."""
    with mp.workdps(50):
        lx = [mp.mpf(v) for v in np.log(xs).tolist()]
        ly = [mp.mpf(v) for v in np.log(ys).tolist()]
        n = len(lx)
        mx, my = mp.fsum(lx) / n, mp.fsum(ly) / n
        dx, dy = [v - mx for v in lx], [v - my for v in ly]
        sxx = mp.fsum(a * a for a in dx)
        sxy = mp.fsum(a * b for a, b in zip(dx, dy))
        syy = mp.fsum(b * b for b in dy)
        cond = mp.fsum(abs(a * b) for a, b in zip(dx, dy)) / sxx
        slope = sxy / sxx
        r2 = mp.mpf(1) if len(set(ly)) == 1 else sxy * sxy / (sxx * syy)
        return slope, my - slope * mx, r2, cond, mx, my


def _assert_rounded_once(fit, xs, ys):
    # the exact line of the float logs rounded once: within half an ulp of
    # the 50-digit reference (the measured worst case is 0.4999 ulp), plus
    # that reference's own rounding error, at most 1e-45 times the
    # cancellation in sum dx dy, so weakly correlated draws do not flake
    slope, intercept, r2, cond, mx, my = _mp_line(xs, ys)
    with mp.workdps(50):
        eps = mp.mpf(10) ** -45
        for got, want, ref_err in (
                (fit.exponent, slope, eps * (cond + abs(slope))),
                (fit.intercept, intercept,
                 eps * (abs(my) + abs(mx) * (cond + abs(slope)))),
                # the cancellation term of r^2 is at most 1 (Cauchy-Schwarz)
                (fit.r_squared, r2, 3 * eps)):
            assert abs(mp.mpf(got) - want) <= math.ulp(float(want)) / 2 + ref_err, \
                (got, want)


@st.composite
def _fit_data(draw):
    """Distinct ln x in [-20, 20]; ln y a line plus noise from none (an exact
    power law) to ten times the line's own spread (weakly correlated)."""
    n = draw(st.integers(3, 24))
    lx = np.array(draw(st.lists(st.floats(-20, 20), min_size=n, max_size=n,
                                unique=True)))
    noise = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0, 10.0]))
    xs = np.exp(lx)
    ys = np.exp(draw(st.floats(-8, 8)) * lx + draw(st.floats(-40, 40))
                + scale * noise)
    assume(len(set(np.log(xs).tolist())) >= 3)
    return xs, ys


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_fit_data())
def test_fit_is_the_exact_line_rounded_once(data):
    _assert_rounded_once(power_law_fit(*data), *data)


def _shipped_sweep_fits():
    """(fit, sizes, totals) of every size fit that a shipped sweep config makes."""
    for name in sorted(os.listdir(CONFIGS)):
        cfg = RunConfig.from_file(os.path.join(CONFIGS, name))
        if cfg.command != "sweep":
            continue
        ns = cfg.get_ints("sweep", "n_values")
        tpl = ChainParams(h=cfg.get_float("model", "h"),
                          gamma=cfg.get_float("model", "gamma"),
                          k_ksea=cfg.get_float("model", "k_ksea"), n_sites=ns[0])
        variable = cfg.get_str("sweep", "variable")
        if variable == "n_sites":
            res = size_exponent(tpl, ns)
        elif variable == "dh":
            res = exponent_vs_offset(tpl, cfg.get_floats("sweep", "dh_values"), ns,
                                     cfg.get_str("sweep", "anchor"))
        else:
            res = kappa_sweep(tpl.gamma, cfg.get_floats("sweep", "kappa_values"),
                              ns, tpl.h)
        for point, fit in res.fits():
            i = res.points.index(point)
            yield fit, res.n_grid, res.totals[i:i + len(res.n_grid)]


def test_shipped_sweep_fits_are_the_exact_lines_rounded_once():
    fits = list(_shipped_sweep_fits())
    assert len(fits) == 13
    for fit, xs, ys in fits:
        _assert_rounded_once(fit, xs, ys)


def test_low_quality_flag():
    rng = np.random.default_rng(4)
    xs = np.geomspace(10, 1000, 10)
    ys = xs ** 2 * np.exp(rng.normal(0, 0.8, xs.size))
    fit = power_law_fit(xs, ys)
    assert fit.low_quality is True
    assert isinstance(fit, ScalingFit)


def _mus(res):
    """Fitted exponent of each value of a sweep, in value order."""
    return [fit.exponent for _, fit in res.fits()]


def test_size_exponent_at_critical_point():
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=256)
    res = size_exponent(tpl, [256, 512, 1024, 2048])
    [(_, fit)] = res.fits()
    assert 1.95 <= fit.exponent <= 2.06
    assert fit.r_squared > 0.9999
    assert [p.n_sites for _, p in res.points] == [256, 512, 1024, 2048]
    assert len(res.totals) == 4
    assert res.variable == "n_sites"
    with pytest.raises(ParameterError):     # not run at N = 32
        size_exponent(tpl, [32.5, 64, 128])


def test_size_exponent_octave_windows_converge():
    # the fitted slope drifts toward the asymptotic value as the window moves
    # to larger sizes; the drift must be monotone at the critical point
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=64)
    errs = []
    for n0 in (64, 256, 1024, 4096):
        [mu] = _mus(size_exponent(tpl, [n0, 2 * n0, 4 * n0]))
        errs.append(abs(mu - 2.0))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.01


def test_size_exponent_records_a_defective_size_and_fits_the_others():
    # gamma = K and h = -cos(pi/4) put the N = 4 mode pi/4 on an exceptional
    # point; N = 8, 16 and 24 have no mode there
    tpl = ChainParams(h=-float(np.cos(np.pi / 4)), gamma=0.4, k_ksea=0.4, n_sites=8)
    res = size_exponent(tpl, [24, 4, 16, 8])
    assert isinstance(res.totals[0], ExceptionalModeError)
    assert res.totals[0].mode_index is not None
    assert all(isinstance(t, float) for t in res.totals[1:])
    [(_, fit)] = res.fits()
    assert fit.n_points == 3
    assert fit.exponent == power_law_fit([8, 16, 24], res.totals[1:]).exponent


def test_exponent_vs_offset_reports_phases():
    tpl = ChainParams(h=1.0, gamma=0.5, k_ksea=0.2, n_sites=512)
    res = exponent_vs_offset(tpl, [0.3, -0.3], [512, 1024, 2048, 4096],
                             anchor="h_e")
    assert res.metadata["anchor"] == "h_e"
    np.testing.assert_allclose(res.metadata["anchor_value"], 1.1, rtol=1e-12)
    assert [classify_phase(p).region for (_, p), _ in res.fits()] == \
        ["Unbroken", "Broken"]
    assert res.metadata["phase_change"] is True
    assert len(res.fits()) == 2          # one mu and r^2 per offset

    same_side = exponent_vs_offset(tpl, [0.2, 0.4], [512, 1024, 2048],
                                   anchor="h_e")
    assert same_side.metadata["phase_change"] is False


def test_exponent_vs_offset_anchor_validation():
    tpl = ChainParams(h=1.0, gamma=0.2, k_ksea=0.5, n_sites=512)
    with pytest.raises(DomainError):
        exponent_vs_offset(tpl, [0.1], [512, 1024, 2048], anchor="h_e")
    # an anchor is a sweep argument, not a model parameter
    with pytest.raises(DomainError, match="unknown anchor 'h_x'"):
        exponent_vs_offset(tpl, [0.1], [512, 1024, 2048], anchor="h_x")
    with pytest.raises(DomainError):
        exponent_vs_offset(tpl, [], [512, 1024, 2048])


def test_kappa_sweep_window_bookkeeping():
    ns = [512, 1024, 2048]
    res = kappa_sweep(0.5, [1e-5], ns)   # pi/N > 10 kappa holds everywhere
    assert res.metadata["out_of_window"] == []
    assert len(_mus(res)) == 1

    # kappa = 1e-3 violates the guard at every one of these sizes
    res2 = kappa_sweep(0.5, [1e-3], ns)
    assert len(res2.metadata["out_of_window"]) == 3
    assert res2.metadata["out_of_window"][0] == [1e-3, 512]


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
    assert 5.7 <= _mus(res)[0] <= 6.2
    assert res.metadata["out_of_window"] == []


def test_time_exponent_unbroken_window():
    tpl = ChainParams(h=1.5, gamma=0.5, k_ksea=0.2, n_sites=32)
    ts = np.geomspace(10.0, 100.0, 10)
    series = qfi_time_series(tpl, ts)
    fit = power_law_fit(ts, series)
    assert 1.8 <= fit.exponent <= 2.2
    # window argument narrows the fit on the same series
    fit_w = power_law_fit(ts, series, window=(20.0, 80.0))
    assert fit_w.n_points < fit.n_points
