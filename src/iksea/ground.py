"""Ground-state quantum Fisher information for field estimation.

Per momentum block the right ground eigenvector (eigenvalue -eps, with the
branch fixed in :mod:`iksea.model`) is

    (u, v) = (a_plus, eps - g),      Dirac norm A = |u|^2 + |v|^2,

and the field-estimation QFI of the Dirac-normalised state splits by branch:

    real branch (eps_sq > 0):
        F = sin^2(phi) (gamma^2 - K^2)^2 / [eps_sq (gamma g + eps K)^2]
          = 4 (u v / (eps A))^2
    imaginary branch (eps_sq < 0):
        F = (gamma^2 - K^2) / (-eps_sq gamma^2)

Fields at one N are evaluated in (fields x modes) blocks of about 2^13 pairs,
with the same bits as one field at a time; a block clear of the scalar
exceptional bound evaluates only its branch.  Totals are exactly rounded sums
in ascending mode order, added up block by block (equal to math.fsum).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ExceptionalModeError, NearSingularWarning, ParameterError,
                     OutOfWindowError)
from .model import (ChainParams, _angles, _couplings, _elements, _exact_add, _exact_round,
                    exact_sum, exceptional_field, exceptional_tolerance, zero_crossings)

__all__ = [
    "QfiRecord",
    "ground_qfi",
    "ground_qfi_values",
    "asymptotic_qfi",
    "NEAR_SINGULAR_CONTRIB",
]

#: per-mode contributions at or above this value flag the record as near-singular
NEAR_SINGULAR_CONTRIB = np.finfo(float).max / 1e6
#: (field, mode) pairs per kernel block (2^12 .. 2^16 measured alike, a whole grid slower)
_BLOCK = 2 ** 13


@dataclass(frozen=True)
class QfiRecord:
    """Total ground QFI, flagged when a per-mode value reaches NEAR_SINGULAR_CONTRIB."""

    total: float
    flag_near_singular: bool


def _mode_qfi(params: ChainParams, phi: np.ndarray, offset: int = 0, h=None):
    """Per-mode ground QFI at the angles phi, one row per field of the column
    h (default params.h): (eps_sq, values).  The one ground kernel.

    A block whose |eps_sq| all exceed exceptional_tolerance(max|h| + 1,
    gamma + K, gamma - K), which bounds every mode's, evaluates only its one
    branch; any other block raises ExceptionalModeError at the first
    defective angle of its first defective row, as mode p = offset + i + 1.
    Where the real-branch closed form is not finite (0/0 on gamma = K with
    g < 0) the eigenvector form, regular there, gives the limit."""
    h = params.h if h is None else h
    s, g, eps_sq = _elements(params, phi, h)
    gam, k = params.gamma, params.k_ksea
    num = gam * gam - k * k

    def real():
        den = gam * g + np.sqrt(eps_sq) * k
        return s * s * num * num / (eps_sq * den * den)

    def imag():
        return num / (-eps_sq * gam * gam)

    bound = exceptional_tolerance(np.abs(h).max() + 1.0, gam + k, gam - k)
    with np.errstate(divide="ignore", invalid="ignore"):
        if eps_sq.min() > bound:
            vals = real()
        elif eps_sq.max() < -bound:
            vals = imag()
        else:
            exc = np.abs(eps_sq) <= exceptional_tolerance(g, *_couplings(params, s))
            if exc.any():
                i = int(np.argmax(exc)) % phi.size
                raise ExceptionalModeError(phi[i], mode_index=offset + i + 1)
            vals = np.where(eps_sq > 0.0, real(), imag())
        if not np.isfinite(vals).all():
            # where the real-branch closed form is 0/0, use 4 (u v / (eps A))^2
            bad = (eps_sq > 0.0) & ~np.isfinite(vals)
            e2, u = eps_sq[bad], _couplings(params, np.broadcast_to(s, g.shape)[bad])[0]
            v = np.sqrt(e2) - g[bad]
            a = u * u + v * v
            vals[bad] = np.where(a > 0, 4.0 * (u * v) ** 2 / (e2 * a * a), 0.0)
    return eps_sq, vals


def _blocks(params: ChainParams, h: np.ndarray):
    """(i, values of modes i + 1 ..) of each kernel block at the fields h in
    turn, each with its own angles: (len(h), width), or (width,) for one h."""
    col = h[:, None] if len(h) > 1 else h[0]    # one field: 1-D arrays
    for i in range(0, params.n_sites // 2, _BLOCK):
        yield i, _mode_qfi(params, _angles(params.n_sites, i, i + _BLOCK), i, col)[1]


def _field_rows(params: ChainParams, hs) -> list:
    """(total, flag_near_singular) of ground_qfi at each field in hs (params'
    N, gamma, K), or its ExceptionalModeError, in input order.  Blocks of about
    _BLOCK (field, mode) pairs, or _BLOCK modes of a wider row, go into their
    rows' sums and near-singular counts while in cache; a block with a
    defective mode runs again row by row."""
    modes = params.n_sites // 2

    def rows(h):
        near, exact = np.zeros(len(h), int), -0.0
        try:
            for _, block in _blocks(params, h):
                near += np.count_nonzero(block >= NEAR_SINGULAR_CONTRIB, axis=-1)
                if modes <= _BLOCK:             # one block of whole rows
                    totals = [exact_sum(v) for v in block.reshape(len(h), -1)]
                else:                           # one row over many blocks
                    exact = _exact_add(exact, block, modes)
        except ExceptionalModeError as exc:
            return [exc] if len(h) == 1 else [_field_rows(params, [x])[0] for x in h]
        if modes > _BLOCK:              # a sum left to math.fsum: the row again
            totals = [_exact_round(exact, lambda: ground_qfi_values(
                params.replace(h=float(h[0]))))]
        for c, x in zip(near[near > 0], h[near > 0]):
            warnings.warn(NearSingularWarning(
                f"{c} mode(s) contribute within 1e6 of float overflow at h={x:.12g}"))
        return [(t, bool(c)) for t, c in zip(totals, near)]

    fields, step = np.asarray(hs, dtype=float), max(1, _BLOCK // modes)
    return [x for r in range(0, len(fields), step) for x in rows(fields[r:r + step])]


def ground_qfi(params: ChainParams) -> QfiRecord:
    """Total ground-state QFI over the positive-momentum grid, one row of
    _field_rows: ground_qfi_values' sum exactly rounded (math.fsum's, modes
    in ascending order); ExceptionalModeError names a defective mode, one
    NearSingularWarning counts the values within 1e6 of float overflow."""
    (row,) = _field_rows(params, [params.h])
    if isinstance(row, ExceptionalModeError):
        raise row
    return QfiRecord(*row)


def ground_qfi_values(params: ChainParams) -> np.ndarray:
    """Per-mode ground QFI (each >= 0) over momentum_grid(n_sites), read-only,
    from ground_qfi's blocks; ExceptionalModeError names a defective mode."""
    values = np.empty(params.n_sites // 2)
    for i, block in _blocks(params, np.array([params.h])):
        values[i:i + block.size] = block
    values.flags.writeable = False
    return values


def asymptotic_qfi(params: ChainParams, regime: str) -> float:
    """Leading-order QFI prediction in one of three analysed regimes.

    regime:
      "critical_unbroken"  K > gamma, h = h_c = 1        ->  (N/pi)^2 / K^2
      "exceptional"        K < gamma, h = h_e            ->  (N/pi)^2 / (gamma^2 x^2)
      "near_degenerate"    h = 1, kappa = |K - gamma|    ->  16 kappa^2 (N/pi)^6

    "critical_unbroken" and "exceptional" give the dominant term, that of the
    grid mode nearest the gap-closing angle; the total over all modes is
    larger by a factor of order one.

    At h = h_e the dispersion is exactly eps_sq = (1 + h_e cos phi)^2, which
    closes at the tangency angle omega_c = arccos(-1/h_e), and the mode at
    distance delta from omega_c contributes 1/(gamma delta)^2.  On the grid
    phi_p = (2p - 1) pi/N the nearest mode lies at x pi/N from omega_c, with
    the offset x in [0, 1] set by N itself (x = 1: omega_c midway between two
    modes), so this regime's prediction is not a pure power of N.  h = h_e is
    zero_crossings' verdict (one root); h = 1 is exact in the other regimes.
    Raises ExceptionalModeError when omega_c lies on a grid mode.

    "near_degenerate" is the term 16 kappa^2 / theta^6 of the mode at
    theta = pi - phi = pi/N.  It holds while theta >> theta* =
    2 sqrt(|K^2 - gamma^2|), where eps_sq = theta^4/4 + (K^2 - gamma^2)
    theta^2 changes form: with y = (theta*/theta)^2 the mode is off by the
    factor 4 / ((1 + y)(1 + sqrt(1 + y))^2).  OutOfWindowError is raised
    unless pi/N > 10 theta* (y < 0.01, so that factor is within 1.5% of 1).
    """
    n = params.n_sites
    gam, k = params.gamma, params.k_ksea
    h = abs(params.h)
    if regime == "critical_unbroken":
        if not k > gam:
            raise DomainError("critical_unbroken regime requires K > gamma")
        if h != 1.0:
            raise DomainError(f"critical_unbroken regime requires h = 1, got {params.h!r}")
        return float((n / np.pi) ** 2 / (k * k))
    if regime == "exceptional":
        if not gam > k:
            raise DomainError("exceptional regime requires gamma > K")
        roots = zero_crossings(params) or ()
        if len(roots) != 1:
            raise DomainError(f"exceptional regime requires h = h_e = "
                              f"{exceptional_field(params)!r}, got {params.h!r}")
        (omega_c,) = roots
        s = omega_c * n / np.pi
        p = min(max(round((s + 1.0) / 2.0), 1), n // 2)   # nearest grid mode
        _mode_qfi(params.replace(h=h), _angles(n, p - 1, p), offset=p - 1)
        x = abs(s - (2 * p - 1))
        return float((n / np.pi) ** 2 / (gam * gam * x * x))
    if regime == "near_degenerate":
        if h != 1.0:
            raise DomainError(f"near_degenerate regime requires h = 1, got {params.h!r}")
        kappa = abs(k - gam)
        theta_star = 2.0 * math.sqrt(abs(k * k - gam * gam))
        if not np.pi / n > 10.0 * theta_star:
            raise OutOfWindowError(
                f"near-degenerate window requires pi/N > 10*theta* with "
                f"theta* = 2 sqrt(|K^2 - gamma^2|): pi/N = {np.pi / n:.6g}, "
                f"10*theta* = {10 * theta_star:.6g}")
        return float(16.0 * kappa ** 2 * (n / np.pi) ** 6)
    raise ParameterError(f"unknown asymptotic regime {regime!r}")
