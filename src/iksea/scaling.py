"""Log-log scaling fits and parameter sweeps built on the QFI kernels.

All fits are ordinary least squares on (ln x, ln y); the reported intercept
lives in the natural-log domain.  Fits with r^2 < 0.99 are flagged
low-quality rather than rejected — a drifting local exponent is physics,
not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InsufficientDataError, ParameterError
from .ground import ground_qfi
from .model import ChainParams, classify_phase, critical_field, exceptional_field

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
    xs: np.ndarray
    ys: np.ndarray
    fit: Optional[ScalingFit]
    metadata: dict = field(default_factory=dict)


def power_law_fit(xs, ys, window: Optional[Tuple[float, float]] = None) -> ScalingFit:
    """OLS fit of ln y against ln x, optionally restricted to xs in [lo, hi].

    Raises DomainError on nonpositive data and InsufficientDataError when
    fewer than 3 distinct xs survive the window filter.
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
    if np.unique(xs).size < 3:
        raise InsufficientDataError(
            f"need at least 3 points inside the fit window, got {xs.size}"
            + (" (fewer than 3 distinct xs)" if xs.size >= 3 else ""))
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return ScalingFit(exponent=float(slope), intercept=float(intercept),
                      r_squared=float(r2), window=(lo, hi), n_points=int(xs.size))


def size_exponent(template: ChainParams, n_grid: Sequence[int]) -> SweepResult:
    """Ground-state QFI totals over a grid of sizes, with a power-law fit."""
    ns = np.asarray(sorted(int(n) for n in n_grid))
    totals = np.array([ground_qfi(template.replace(n_sites=int(n))).total
                       for n in ns])
    fit = power_law_fit(ns.astype(float), totals)
    return SweepResult(xs=ns.astype(float), ys=totals, fit=fit,
                       metadata={"kind": "size_exponent",
                                 "h": template.h, "gamma": template.gamma,
                                 "k_ksea": template.k_ksea})


def _resolve_anchor(template: ChainParams, anchor: str) -> float:
    if anchor == "h_c":
        return critical_field(template)
    if anchor == "h_e":
        he = exceptional_field(template)
        if he is None:
            raise DomainError(
                "anchor 'h_e' needs k_ksea < gamma; no exceptional field here")
        return he
    raise ParameterError(f"unknown anchor {anchor!r} (expected 'h_c' or 'h_e')")


def exponent_vs_offset(template: ChainParams, dh_grid: Sequence[float],
                       n_grid: Sequence[int], anchor: str = "h_c") -> SweepResult:
    """Size exponent mu as a function of field offset dh from an anchor field.

    For each dh the QFI is computed over n_grid at h = anchor + dh and fitted
    to N^mu.  Per-offset phase labels are recorded; metadata["phase_change"]
    marks sweeps whose offsets straddle different phase regions.
    """
    base = _resolve_anchor(template, anchor)
    dhs = np.asarray(list(dh_grid), dtype=float)
    if dhs.size == 0:
        raise DomainError("dh_grid is empty")
    mus, r2s, phases = [], [], []
    for dh in dhs:
        pt = template.replace(h=base + float(dh))
        res = size_exponent(pt, n_grid)
        mus.append(res.fit.exponent)
        r2s.append(res.fit.r_squared)
        phases.append(classify_phase(pt).region)
    return SweepResult(
        xs=dhs, ys=np.asarray(mus), fit=None,
        metadata={"kind": "exponent_vs_offset", "anchor": anchor,
                  "anchor_value": base, "r_squared": r2s, "phase": phases,
                  "phase_change": len(set(phases)) > 1})


def _kappa_values(kappa_grid: Sequence[float]) -> np.ndarray:
    """kappa_grid as a non-empty array of values > 0, else DomainError."""
    kappas = np.asarray(list(kappa_grid), dtype=float)
    if kappas.size == 0 or np.any(kappas <= 0.0):
        raise DomainError(f"kappa values must be > 0 (kappa = 0 is the "
                          f"exceptional line), got {kappas.tolist()}")
    return kappas


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
    kappas = _kappa_values(kappa_grid)
    ns = sorted(int(n) for n in n_grid)
    offending = [(float(kap), n) for kap in kappas for n in ns
                 if not (np.pi / n > 10.0 * kap)]
    mus, r2s = [], []
    for kap in kappas:
        res = size_exponent(
            ChainParams(h=h, gamma=gamma, k_ksea=gamma + float(kap),
                        n_sites=ns[0]), ns)
        mus.append(res.fit.exponent)
        r2s.append(res.fit.r_squared)
    return SweepResult(
        xs=kappas, ys=np.asarray(mus), fit=None,
        metadata={"kind": "kappa_sweep", "gamma": gamma, "h": h,
                  "r_squared": r2s, "out_of_window": offending})
