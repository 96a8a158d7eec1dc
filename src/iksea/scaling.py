"""Log-log scaling fits and parameter sweeps built on the QFI kernels.

All fits are least squares on (ln x, ln y) from exact integer sums, each
result rounded once, with no LAPACK call; the intercept is a natural log.
Fits with r^2 < 0.99 are flagged low-quality rather than rejected — a
drifting local exponent is physics, not an error.

A sweep makes every ChainParams before any point runs (a bad value raises
ParameterError), then runs ground_qfi at every (value, N) point in one
run_grid call, a failed point keeping its IkseaError; SweepResult.fits()
fits afterwards, so a caller can record the points first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, IkseaError, InsufficientDataError, ParameterError
from .ground import ground_qfi
from .model import ChainParams, classify_phase, exceptional_field
from .runner import run_grid

__all__ = [
    "ScalingFit",
    "SweepResult",
    "power_law_fit",
    "size_exponent",
    "exponent_vs_offset",
    "kappa_sweep",
]


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float          # ln-domain: ln y ~ exponent * ln x + intercept
    r_squared: float
    window: Tuple[float, float]
    n_points: int

    @property
    def low_quality(self) -> bool:
        return self.r_squared < 0.99

    @property
    def amplitude(self) -> float:
        """Prefactor exp(intercept) of the fitted power law."""
        return math.exp(self.intercept)


@dataclass(frozen=True)
class SweepResult:
    """ground_qfi totals of a sweep at every (value, N) point.

    points holds (value, ChainParams) pairs, value-major, each value's sizes
    ascending as in n_grid (the value is None in an n_sites sweep); totals[i]
    is points[i]'s total or the IkseaError it raised.  metadata holds the
    sweep's own records (anchor, phase_change, out_of_window, ...).
    """
    variable: str                               # "n_sites", "dh" or "kappa"
    points: list
    totals: list
    n_grid: Tuple[int, ...]
    window: Optional[Tuple[float, float]] = None
    metadata: dict = field(default_factory=dict)

    def fits(self) -> list:
        """(point, ScalingFit) per fitted value, point being its first point.

        An n_sites sweep fits the sizes that succeeded inside its window if
        at least 3 are distinct; a dh or kappa value is fitted only when all
        its sizes succeeded.  A fit's IkseaError (zero totals, say) is raised.
        """
        n, (lo, hi), out = len(self.n_grid), self.window or (0, math.inf), []
        for i in range(0, len(self.points), n):
            pairs = [(p.n_sites, t) for (_, p), t in zip(self.points[i:i + n],
                                                         self.totals[i:i + n])
                     if not isinstance(t, IkseaError) and lo <= p.n_sites <= hi]
            if (len({x for x, _ in pairs}) >= 3 if self.variable == "n_sites"
                    else len(pairs) == n):
                out.append((self.points[i],
                            power_law_fit(*zip(*pairs), window=self.window)))
        return out


def _fixed_point(values: np.ndarray):
    """Integers k and one power of two u with values == k / u exactly."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    u = max(q for _, q in ratios)
    return [p * (u // q) for p, q in ratios], u


def power_law_fit(xs, ys, window: Optional[Tuple[float, float]] = None) -> ScalingFit:
    """OLS fit of ln y against ln x, optionally restricted to xs in [lo, hi].

    Raises DomainError on nonpositive data and InsufficientDataError when
    fewer than 3 distinct ln x survive the window filter.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("xs and ys must be 1-d arrays of equal length")
    if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ys)):
        raise DomainError("xs and ys must be finite")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DomainError("power-law fits need strictly positive xs and ys")
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        keep = (xs >= lo) & (xs <= hi)
        xs, ys = xs[keep], ys[keep]
    else:
        lo, hi = (float(xs.min()), float(xs.max())) if xs.size else (np.nan, np.nan)
    lx, ly = np.log(xs), np.log(ys)
    if len(set(lx.tolist())) < 3:   # distinct ln x: the values fitted
        raise InsufficientDataError(
            f"need at least 3 points inside the fit window, got {xs.size}"
            + (" (fewer than 3 distinct xs)" if xs.size >= 3 else ""))
    # n^2 times the centred sums, exact: kx = lx * ux and ky = ly * uy
    (kx, ux), (ky, uy), n = _fixed_point(lx), _fixed_point(ly), xs.size
    sx, sy = sum(kx), sum(ky)
    sxx = n * sum(a * a for a in kx) - sx * sx
    sxy = n * sum(a * b for a, b in zip(kx, ky)) - sx * sy
    syy = n * sum(b * b for b in ky) - sy * sy
    return ScalingFit(exponent=sxy * ux / (sxx * uy),
                      intercept=(sy * sxx - sxy * sx) / (n * sxx * uy),
                      r_squared=sxy * sxy / (sxx * syy) if syy else 1.0,
                      window=(lo, hi), n_points=n)


def _sweep(variable: str, values: list, n_grid: Sequence[int], make: Callable,
           window=None, record: Callable = lambda points: {}) -> SweepResult:
    """ground_qfi(p).total at each p = make(value, N), in one run_grid call,
    with record(points) as the metadata (see the module docstring)."""
    ns = tuple(sorted(n_grid))
    if not (values and ns):
        raise DomainError(f"a {variable} sweep needs at least one value and one size")
    points = [(x, make(x, n)) for x in values for n in ns]
    totals = run_grid(lambda xp: ground_qfi(xp[1]).total, points)
    return SweepResult(variable, points, totals, ns, window, record(points))


def size_exponent(template: ChainParams, n_grid: Sequence[int],
                  window: Optional[Tuple[float, float]] = None) -> SweepResult:
    """Ground-state QFI totals over a grid of sizes at the template's h,
    gamma and K; fits() fits those inside window (default: all)."""
    return _sweep("n_sites", [None], n_grid,
                  lambda _, n: template.replace(n_sites=n), window)


def exponent_vs_offset(template: ChainParams, dh_grid: Sequence[float],
                       n_grid: Sequence[int], anchor: str = "h_c") -> SweepResult:
    """Size exponent mu as a function of field offset dh from an anchor field.

    For each dh the QFI is computed over n_grid at h = anchor + dh and the
    template's gamma and K.  metadata["phase_change"] marks sweeps whose
    offsets straddle different phase regions.
    """
    if anchor not in ("h_c", "h_e"):
        raise DomainError(f"unknown anchor {anchor!r} (expected 'h_c' or 'h_e')")
    base = 1.0 if anchor == "h_c" else exceptional_field(template)
    if base is None:
        raise DomainError("anchor 'h_e' needs k_ksea < gamma; no exceptional field here")
    return _sweep(
        "dh", [float(dh) for dh in dh_grid], n_grid,
        lambda dh, n: template.replace(h=base + dh, n_sites=n),
        record=lambda points: {"anchor": anchor, "anchor_value": base, "phase_change":
                               len({classify_phase(p).region for _, p in points}) > 1})


def kappa_sweep(gamma: float, kappa_grid: Sequence[float],
                n_grid: Sequence[int], h: float = 1.0) -> SweepResult:
    """Size exponent mu as a function of kappa = K - gamma > 0 at fixed h.

    Each kappa must be strictly positive (kappa = 0 sits on the exceptional
    line where the closed forms degenerate).  (kappa, N) pairs that fail
    pi/N > 10*kappa are flagged in metadata["out_of_window"].  This test is
    necessary but not sufficient for the N^6 leading term: that term needs
    pi/N > 10 theta* with theta* = 2 sqrt(|K^2 - gamma^2|), about
    2 sqrt(kappa) at gamma = 0.5, the window that
    asymptotic_qfi(..., "near_degenerate") enforces.
    """
    kappas = [float(kap) for kap in kappa_grid]
    if any(kap <= 0.0 for kap in kappas):
        raise DomainError(f"kappa values must be > 0 (kappa = 0 is the "
                          f"exceptional line), got {kappas}")
    return _sweep(
        "kappa", kappas, n_grid,
        lambda kap, n: ChainParams(h=h, gamma=gamma, k_ksea=gamma + kap, n_sites=n),
        record=lambda points: {"gamma": gamma, "h": h, "out_of_window": [
            [kap, p.n_sites] for kap, p in points if not math.pi / p.n_sites > 10.0 * kap]})
