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

dynamical_qfi needs only the first columns, which have the closed forms

    v = (c0 + i t c1 g,  -i t c1 a_minus),
    w = (-g t^2 c1 + i (-b g + t c1),  i b a_minus),   b = -g t^3 c2,

so it evaluates every mode at once with array operations.  Each operation
rounds as the 2x2 complex matrix route (block_propagator,
propagator_derivative, np.vdot) does, which keeps the totals bit for bit
equal to that route's.  Totals are exactly rounded sums, equal to math.fsum,
in ascending mode order (model.exact_sum; math.fsum below EXACT_SUM_CUTOVER).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    EvolutionOverflowError,
    NumericalConsistencyError,
    ParameterError,
)
from .model import ChainParams, block_elements, block_matrix, exact_sum, momentum_grid

__all__ = [
    "DynQfiSeries",
    "block_propagator",
    "propagator_derivative",
    "dynamical_qfi",
    "qfi_time_series",
]

#: cosh/sinh argument beyond which double precision overflows
_OVERFLOW_ARG = 700.0

#: broken modes with sqrt(-z) beyond this are evaluated in the rescaled frame
_RESCALE_ARG = 100.0

#: negative per-mode contributions beyond this are treated as real errors
_CLAMP_FLOOR = -1e-10


@dataclass(frozen=True)
class DynQfiSeries:
    times: np.ndarray
    values: np.ndarray
    params: ChainParams
    derivative: str


def _libm(fn, x, *args) -> np.ndarray:
    """fn(x_i, *args) for each entry of x, through Python's math/float ops.

    numpy's exp, cosh, sinh and power round differently from the C math
    library on some arguments; evaluating them this way keeps every value
    equal to the scalar formula.
    """
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, x.size)


def _pow2(x: np.ndarray) -> np.ndarray:
    """x ** 2 as a float64 scalar rounds it (libm pow, not x * x)."""
    out = _libm(math.pow, np.minimum(x, 1e150), 2.0)
    big = x > 1e150       # math.pow raises where the square overflows
    if big.any():
        out[big] = [a ** 2 for a in x[big]]
    return out


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a   # 2^27 + 1 (Veltkamp)
    hi = c - (c - a)
    return hi, a - hi


def _fma(a, b, c):
    """Correctly rounded a*b + c, elementwise.

    np.vdot of complex 2-vectors goes through OpenBLAS zdotc, whose short
    loop accumulates with fused multiply-adds; the totals are only
    reproduced bit for bit with the same single rounding.  Algorithm: exact
    product and sum (Dekker, Knuth), then the error terms added with
    rounding to odd, which makes the final round-to-nearest correct
    (Boldo & Melquiond 2008).
    """
    ph = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    th, tl = _two_sum(c, ph)
    s, e = _two_sum(tl, pl)
    inexact_even = (e != 0.0) & ((s.view(np.int64) & 1) == 0)
    s = np.where(inexact_even, np.nextafter(s, np.copysign(np.inf, e)), s)
    return th + s


def _c012(z, rescale: bool = False):
    """Stable evaluation of c0, c1, c2 at real z = eps_sq * t^2, elementwise.

    Returns arrays of the shape of z.  With rescale=True, entries whose
    r = sqrt(-z) exceeds _RESCALE_ARG come multiplied by e^{-r} (the
    rescaled frame of dynamical_qfi).  Raises EvolutionOverflowError when
    any r exceeds _OVERFLOW_ARG.
    """
    z = np.asarray(z, dtype=float)
    shape, z = z.shape, z.ravel()
    c0, c1, c2 = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    az = np.abs(z)
    series = az <= 1e-3
    zs = z[series]
    z3 = _libm(operator.pow, zs, 3)
    # the c0, c1 series stand for |z| <= 1e-8; the closed forms below
    # overwrite the rest
    c0[series] = 1.0 - zs / 2.0 + zs * zs / 24.0 - z3 / 720.0
    c1[series] = 1.0 - zs / 6.0 + zs * zs / 120.0 - z3 / 5040.0
    c2[series] = -1.0 / 3.0 + zs / 30.0 - zs * zs / 840.0 + z3 / 45360.0
    r = np.sqrt(az)
    tiny = az <= 1e-8
    trig = (z > 0.0) & ~tiny
    hyp = ~(trig | tiny)
    if hyp.any() and r[hyp].max() > _OVERFLOW_ARG:
        raise EvolutionOverflowError(
            f"cosh argument {r[hyp].max():.6g} exceeds {_OVERFLOW_ARG:g}; "
            f"the requested time overflows double precision")
    scaled = hyp & (r > _RESCALE_ARG) if rescale else np.zeros_like(hyp)
    hyp &= ~scaled
    for mask, f0, f1 in ((trig, math.cos, math.sin),
                         (hyp, math.cosh, math.sinh)):
        c0[mask] = _libm(f0, r[mask])
        c1[mask] = _libm(f1, r[mask]) / r[mask]
    # e^{-r} cosh r = (1 + e^{-2r})/2 and e^{-r} sinh r = (1 - e^{-2r})/2;
    # for r > 100, e^{-2r} < 2^-288 vanishes against 1 in double precision
    c0[scaled] = 0.5
    c1[scaled] = 0.5 / r[scaled]
    c2[~series] = (c0[~series] - c1[~series]) / z[~series]
    return c0.reshape(shape), c1.reshape(shape), c2.reshape(shape)


def block_propagator(params: ChainParams, phi: float, t: float) -> np.ndarray:
    """Closed-form 2x2 block propagator U(t) = c0 I - i t c1 H.

    Well defined on every branch, including exactly at exceptional points
    (z = 0).  Raises EvolutionOverflowError when |Im eps| * t would overflow.
    """
    _, _, _, eps_sq = block_elements(params, float(phi))
    c0, c1, _ = map(float, _c012(float(eps_sq) * t * t))
    return c0 * np.eye(2, dtype=complex) - 1j * t * c1 * block_matrix(params, phi)


def propagator_derivative(params: ChainParams, phi: float, t: float,
                          mode: str = "analytic", fd_step: float = 1e-6) -> np.ndarray:
    """dU/dh at fixed (phi, t), analytic by default.

    mode="fd" uses a central difference of block_propagator with step fd_step;
    it is retained as an independent cross-check of the analytic formula.
    fd_step must be finite and > 0, else ParameterError.
    """
    if mode == "fd":
        if not 0.0 < fd_step < math.inf:
            raise ParameterError(f"fd_step must be finite and > 0, got {fd_step!r}")
        up = block_propagator(params.replace(h=params.h + fd_step), phi, t)
        um = block_propagator(params.replace(h=params.h - fd_step), phi, t)
        return (up - um) / (2.0 * fd_step)
    if mode != "analytic":
        raise ParameterError(f"unknown derivative mode {mode!r}")
    g, _, _, eps_sq = block_elements(params, float(phi))
    g, eps_sq = float(g), float(eps_sq)
    z = eps_sq * t * t
    _, c1, c2 = map(float, _c012(z))
    h = block_matrix(params, phi)
    d = np.diag([-1.0, 1.0]).astype(complex)
    return (-g * t * t * c1) * np.eye(2, dtype=complex) \
        + (-1j * g * t ** 3 * c2) * h + (-1j * t * c1) * d


def _columns(params: ChainParams, phi: np.ndarray, t: float, rescale: bool):
    """U|0> = (c0 + i t c1 g, -i t c1 a_minus) at every angle in phi.

    Returns the nonzero parts (Re v0, Im v0, Im v1) and the block elements
    and coefficients dU/dh needs.
    """
    g, _, am, eps_sq = block_elements(params, phi)
    c0, c1, c2 = _c012(eps_sq * t * t, rescale)
    tc1 = t * c1
    return (c0, tc1 * g, -(tc1 * am)), (g, am, c1, c2, tc1)


def dynamical_qfi(params: ChainParams, t: float, derivative: str = "analytic",
                  fd_step: float = 1e-6) -> float:
    """Total dynamical QFI of the evolved (normalised) state at time t.

    All modes are evaluated at once from the closed-form columns v = U|0>
    and w = (dU/dh)|0>, each component rounded as the 2x2 matrix route
    (block_propagator, propagator_derivative, np.vdot) rounds it, so the
    total is the same to the last bit.  Per-mode contributions in
    [-1e-10, 0) are clamped to zero (round-off); anything more negative
    raises NumericalConsistencyError.  With derivative="fd", fd_step must
    be finite and > 0, else ParameterError.
    """
    if derivative not in ("analytic", "fd"):
        raise ParameterError(f"unknown derivative mode {derivative!r}")
    if derivative == "fd" and not 0.0 < fd_step < math.inf:
        raise ParameterError(f"fd_step must be finite and > 0, got {fd_step!r}")
    t = float(t)
    phi = momentum_grid(params.n_sites)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, (g, am, c1, c2, tc1) = _columns(params, phi, t,
                                           rescale=derivative == "analytic")
        if derivative == "analytic":
            b = (-g * t ** 3) * c2
            w = (-g * t * t * c1, b * -g + tc1, b * am)
        else:
            vp, _ = _columns(params.replace(h=params.h + fd_step), phi, t, False)
            vm, _ = _columns(params.replace(h=params.h - fd_step), phi, t, False)
            scale = 1.0 / (2.0 * fd_step)
            w = tuple((p - m) * scale for p, m in zip(vp, vm))
        (vr, vi, vi1), (wr, wi, wi1) = v, w
        # np.vdot as zdotc sums it, fma(x1, y1, x0 * y0) per component;
        # the terms in Re v1 = Re w1 = 0 are exact and drop out
        n2 = vr * vr + _fma(vi1, vi1, vi * vi)
        ww = wr * wr + _fma(wi1, wi1, wi * wi)
        vw2 = _pow2(np.hypot(vr * wr + _fma(vi1, wi1, vi * wi),
                             vr * wi - vi * wr))
        vals = 4.0 * (ww / n2 - vw2 / (n2 * n2))
    bad = ~np.isfinite(vals) | (vals < _CLAMP_FLOOR)
    if bad.any():
        i = int(np.argmax(bad))
        if not math.isfinite(vals[i]):
            raise EvolutionOverflowError(
                f"per-mode dynamical QFI overflowed double precision at "
                f"phi={phi[i]:.12g}, t={t:g} (mode={derivative})")
        raise NumericalConsistencyError(
            f"per-mode dynamical QFI {vals[i]:.6e} < {_CLAMP_FLOOR:g} at "
            f"phi={phi[i]:.12g}, t={t:g}: beyond round-off, indicates a bug")
    vals = np.where(vals < 0.0, 0.0, vals)
    return exact_sum(vals)


def qfi_time_series(params: ChainParams, times, derivative: str = "analytic",
                    fd_step: float = 1e-6) -> DynQfiSeries:
    """Dynamical QFI evaluated on a grid of times (ascending recommended)."""
    times = np.asarray(times, dtype=float)
    vals = np.array([dynamical_qfi(params, float(t), derivative, fd_step)
                     for t in times])
    return DynQfiSeries(times=times, values=vals, params=params,
                        derivative=derivative)
