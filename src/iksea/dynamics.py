"""Non-unitary time evolution and dynamical QFI, block by block.

Because each 2x2 block H satisfies H^2 = eps_sq * I, the propagator has the
closed form

    U(t) = exp(-i H t) = c0(z) I - i t c1(z) H,        z = eps_sq t^2,

with c0(z) = cos(sqrt z) and c1(z) = sin(sqrt z)/sqrt z (cosh / sinh-over-r
for z < 0).  Differentiating in the field h (d eps_sq/dh = 2g, dH/dh =
diag(-1, 1)) gives the analytic propagator derivative

    dU/dh = -g t^2 c1 I  -  i g t^3 c2 H  -  i t c1 diag(-1, 1),

with c2(z) = (c0 - c1)/z, evaluated by series near z = 0 to avoid
cancellation.  The per-mode dynamical QFI of the normalised evolved state
|psi_t> = U|0> / ||U|0>|| is

    F_p = 4 [ <w|w>/n^2 - |<v|w>|^2 / n^4 ],   v = U|0>, w = (dU/dh)|0>,
    n^2 = <v|v>.

That quotient is invariant under a common rescaling of (U, dU), so broken
modes with sqrt(-z) large are evaluated in an exponentially rescaled frame;
their saturation plateau stays representable all the way to the cosh cutoff.

The QFI needs only the first columns, which have the closed forms

    v = (c0 + i t c1 g,  -i t c1 a_minus),
    w = (-g t^2 c1 + i (-b g + t c1),  i b a_minus),   b = -g t^3 c2,

so qfi_time_series evaluates a whole grid of times with array operations on
row blocks of (time, mode) pairs; dynamical_qfi is its one-time view.  Each
operation rounds as full 2x2 complex matrices with np.vdot would (the tests
keep that route as their reference), which keeps the totals bit for bit
equal to that route's, except that a mode with a_minus = 0 (gamma = K) is
exactly 0 where that route leaves round-off: cos, sin and powers come from numpy, whose float64
loops give the C math library's values (a test pins this), while cosh and
sinh, which numpy rounds differently, go through math.  Totals are exactly
rounded sums, equal to math.fsum, in ascending mode order (model.exact_sum;
math.fsum below EXACT_SUM_CUTOVER).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EvolutionOverflowError,
    NumericalConsistencyError,
    ParameterError,
)
from .model import ChainParams, block_elements, exact_sum, momentum_grid

__all__ = [
    "dynamical_qfi",
    "qfi_time_series",
]

#: cosh/sinh argument beyond which double precision overflows
_OVERFLOW_ARG = 700.0

#: broken modes with sqrt(-z) beyond this are evaluated in the rescaled frame
_RESCALE_ARG = 100.0

#: negative per-mode contributions beyond this are treated as real errors
_CLAMP_FLOOR = -1e-10

#: (time, mode) pairs per row block of _qfi_totals: 40 times at N = 4096 peak at
#: 0.97 MiB traced (1.86 at 2^13); the four big-jobs dyn-qfi series took 43-65 ms
#: against 51-75 at 2^13 and 48-75 at 2^11 (30 interleaved rounds, twice, 2 CPUs)
_BLOCK = 2 ** 12


def _libm(fn, x) -> np.ndarray:
    """fn(x_i) for each entry of x, through Python's math module."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _pow2(x: np.ndarray) -> np.ndarray:
    """x ** 2 as a float64 scalar rounds it (libm pow, not x * x)."""
    return np.float_power(x, 2.0)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a   # 2^27 + 1 (Veltkamp)
    hi = c - (c - a)
    return hi, a - hi


def _fma(a, b, c, a_split=None, b_split=None):
    """Correctly rounded a*b + c, elementwise.

    np.vdot of complex 2-vectors goes through OpenBLAS zdotc, whose short
    loop accumulates with fused multiply-adds; the totals are only
    reproduced bit for bit with the same single rounding.  Algorithm: exact
    product and sum (Dekker, Knuth), then the error terms added with
    rounding to odd, which makes the final round-to-nearest correct
    (Boldo & Melquiond 2008).  a_split, b_split: _split(a), _split(b).
    """
    ph = a * b
    ah, al = a_split or _split(a)
    bh, bl = b_split or _split(b)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    th, tl = _two_sum(c, ph)
    s, e = _two_sum(tl, pl)
    # to odd: an inexact, even s steps one ulp towards s + e, which is +1 on
    # its int64 view away from zero and -1 towards zero
    bits = s.view(np.int64)
    fix = ((bits & 1) == 0) & (e != 0.0)
    return th + (bits + fix - ((fix & ((bits ^ e.view(np.int64)) < 0)) << 1)
                 ).view(np.float64)


def _overflow(z_min: float, z_max: float):
    """The EvolutionOverflowError of _c012 on z in [z_min, z_max], or None."""
    r = math.sqrt(-z_min) if z_min < -1e-8 else 0.0
    if r > _OVERFLOW_ARG or z_max == math.inf:
        arg = f"cosh argument {r:.6g} exceeds {_OVERFLOW_ARG:g}" \
            if r > _OVERFLOW_ARG else "cos argument eps_sq t^2 is infinite"
        return EvolutionOverflowError(
            f"{arg}; the requested time overflows double precision")
    return None


def _c012(z, rescale: bool = False):
    """Stable evaluation of c0, c1, c2 at real z = eps_sq * t^2, elementwise.

    Returns arrays of the shape of z.  With rescale=True, entries whose
    r = sqrt(-z) exceeds _RESCALE_ARG come multiplied by e^{-r} (the
    rescaled frame of dynamical_qfi).  Raises EvolutionOverflowError when
    any r exceeds _OVERFLOW_ARG or any z > 0 overflows.
    """
    z = np.asarray(z, dtype=float)
    err = _overflow(z.min(), z.max())
    if err is not None:
        raise err
    c0, c1, c2 = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    az = np.abs(z)
    series = az <= 1e-3
    zs = z[series]
    z3 = np.float_power(zs, 3.0)
    # the c0, c1 series stand for |z| <= 1e-8; the closed forms below
    # overwrite the rest
    c0[series] = 1.0 - zs / 2.0 + zs * zs / 24.0 - z3 / 720.0
    c1[series] = 1.0 - zs / 6.0 + zs * zs / 120.0 - z3 / 5040.0
    c2[series] = -1.0 / 3.0 + zs / 30.0 - zs * zs / 840.0 + z3 / 45360.0
    r = np.sqrt(az)
    tiny = az <= 1e-8
    trig = (z > 0.0) & ~tiny
    hyp = ~(trig | tiny)
    scaled = hyp & (r > _RESCALE_ARG) if rescale else np.zeros_like(hyp)
    hyp &= ~scaled
    np.cos(r, out=c0, where=trig)
    np.sin(r, out=c1, where=trig)
    c0[hyp] = _libm(math.cosh, r[hyp])
    c1[hyp] = _libm(math.sinh, r[hyp])
    # e^{-r} cosh r = (1 + e^{-2r})/2 and e^{-r} sinh r = (1 - e^{-2r})/2;
    # for r > 100, e^{-2r} < 2^-288 vanishes against 1 in double precision
    c0[scaled] = 0.5
    c1[scaled] = 0.5
    np.divide(c1, r, out=c1, where=~tiny)
    np.divide(c0 - c1, z, out=c2, where=~series)
    return c0, c1, c2


def _columns(params: ChainParams, phi: np.ndarray, t, rescale: bool,
             elements=None):
    """v = U|0> and w = (dU/dh)|0> at every angle in phi (module docstring).

    t is a time or a column of times.  Returns the nonzero parts (Re v0,
    Im v0, Im v1) and (Re w0, Im w0, Im w1); elements is
    block_elements(params, phi), if already known.
    """
    g, _, am, eps_sq = elements or block_elements(params, phi)
    c0, c1, c2 = _c012(eps_sq * t * t, rescale)
    tc1 = t * c1
    b = (-g * np.float_power(t, 3.0)) * c2
    return (c0, tc1 * g, -(tc1 * am)), (-g * t * t * c1, b * -g + tc1, b * am)


def _mode_values(params: ChainParams, elements, phi, t) -> np.ndarray:
    """Per-mode QFI (the Gram form), one row per time in the column t.

    elements is block_elements(params, phi).  Where a_minus = 0 the value is
    exactly 0: |0> is then an eigenvector of the block, and the Gram form
    would only leave round-off of either sign.
    """
    (vr, vi, vi1), (wr, wi, wi1) = _columns(params, phi, t, True, elements)
    am = elements[2]
    # np.vdot as zdotc sums it, fma(x1, y1, x0 * y0) per component;
    # the terms in Re v1 = Re w1 = 0 are exact and drop out
    sv, sw = _split(vi1), _split(wi1)
    n2 = vr * vr + _fma(vi1, vi1, vi * vi, sv, sv)
    ww = wr * wr + _fma(wi1, wi1, wi * wi, sw, sw)
    vw2 = _pow2(np.hypot(vr * wr + _fma(vi1, wi1, vi * wi, sv, sw),
                         vr * wi - vi * wr))
    return np.where(am == 0.0, 0.0, 4.0 * (ww / n2 - vw2 / (n2 * n2)))


def _qfi_totals(params: ChainParams, times) -> list:
    """Total dynamical QFI at each time, or the IkseaError raised there.

    block_elements runs once, the Gram form on row blocks of about _BLOCK
    (time, mode) pairs and exact_sum once per row.  A time that fails
    leaves the other rows unchanged.
    """
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ParameterError(f"times must be finite, got {times.tolist()!r}")
    phi = momentum_grid(params.n_sites)
    elements = block_elements(params, phi)
    # z = eps_sq t t is monotone in eps_sq
    lo, hi = float(elements[3].min()), float(elements[3].max())
    out = [_overflow(lo * t * t, hi * t * t) for t in times.tolist()]
    todo = [i for i, err in enumerate(out) if err is None]
    step = max(1, _BLOCK // phi.size)
    for k in range(0, len(todo), step):
        rows = todo[k:k + step]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = _mode_values(params, elements, phi, times[rows, None])
        for i, row in zip(rows, vals):
            bad = ~np.isfinite(row) | (row < _CLAMP_FLOOR)
            j, t = int(np.argmax(bad)), times[i]
            if not bad[j]:
                out[i] = exact_sum(np.where(row < 0.0, 0.0, row))
            elif not math.isfinite(row[j]):
                out[i] = EvolutionOverflowError(
                    f"per-mode dynamical QFI overflowed double precision at "
                    f"phi={phi[j]:.12g}, t={t:g}")
            else:
                out[i] = NumericalConsistencyError(
                    f"per-mode dynamical QFI {row[j]:.6e} < {_CLAMP_FLOOR:g} at "
                    f"phi={phi[j]:.12g}, t={t:g}: beyond round-off, indicates a bug")
    return out


def dynamical_qfi(params: ChainParams, t: float) -> float:
    """Total dynamical QFI of the evolved (normalised) state at time t.

    The one-time view of qfi_time_series, equal to the 2x2 matrix route
    (full propagator matrices and np.vdot) to the last bit, but for modes
    with a_minus = 0 (gamma = K), which are exactly 0.
    Per-mode contributions in [-1e-10, 0) are clamped to zero (round-off);
    anything more negative raises NumericalConsistencyError.  A non-finite
    t raises ParameterError.
    """
    return float(qfi_time_series(params, [t])[0])


def qfi_time_series(params: ChainParams, times) -> np.ndarray:
    """Dynamical QFI at each time, as a float64 array, in one kernel call.

    All modes and times are evaluated at once from the closed-form columns
    v = U|0> and w = (dU/dh)|0>.  Each value is dynamical_qfi at that time,
    bit for bit; the first time that fails raises its error.
    """
    vals = _qfi_totals(params, times)
    for v in vals:
        if isinstance(v, Exception):
            raise v
    return np.array(vals, dtype=float)
