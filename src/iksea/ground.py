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
in ascending mode order (model.exact_sum, equal to math.fsum).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    ExceptionalModeError,
    NearSingularWarning,
    ParameterError,
    OutOfWindowError,
)
from .model import (
    ChainParams,
    _angles,
    _couplings,
    _elements,
    exact_sum,
    exceptional_field,
    exceptional_tolerance,
    zero_crossings,
)

__all__ = [
    "QfiRecord",
    "ground_qfi",
    "asymptotic_qfi",
    "NEAR_SINGULAR_CONTRIB",
]

#: per-mode contributions at or above this value flag the record as near-singular
NEAR_SINGULAR_CONTRIB = np.finfo(float).max / 1e6
#: (field, mode) pairs per kernel block (2^12 .. 2^16 measured alike, a whole grid slower)
_BLOCK = 2 ** 13


@dataclass(frozen=True)
class QfiRecord:
    """Total ground QFI with its per-mode values (ascending mode order).

    values is a read-only array over momentum_grid(n_sites);
    flag_near_singular is set when any value is within 1e6 of float overflow.
    """

    total: float
    flag_near_singular: bool
    values: np.ndarray = field(repr=False, compare=False)


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


def _field_rows(params: ChainParams, hs) -> list:
    """(total, flag_near_singular, values) of ground_qfi at each field in hs,
    with params' N, gamma and K, or its ExceptionalModeError, in input order.
    The kernel takes blocks of about _BLOCK (field, mode) pairs, or _BLOCK
    modes of a wider row, each with its own angles and near-singular count,
    so only the values outlive a block; a block with a defective mode runs
    again row by row, so only the defective rows fail."""
    modes = params.n_sites // 2

    def rows(h):
        vals, near = np.empty((len(h), modes)), np.zeros(len(h), int)
        col = h[:, None] if len(h) > 1 else h[0]    # one field: 1-D arrays
        try:
            for i in range(0, modes, _BLOCK):
                block, phi = vals[:, i:i + _BLOCK], _angles(params.n_sites, i, i + _BLOCK)
                block[:] = _mode_qfi(params, phi, i, col)[1]
                near += np.count_nonzero(block >= NEAR_SINGULAR_CONTRIB, axis=1)
        except ExceptionalModeError as exc:
            return [exc] if len(h) == 1 else [_field_rows(params, [x])[0] for x in h]
        for c, x in zip(near[near > 0], h[near > 0]):
            warnings.warn(NearSingularWarning(
                f"{c} mode(s) contribute within 1e6 of float overflow at h={x:.12g}"))
        return [(exact_sum(v), bool(c), v) for v, c in zip(vals, near)]

    fields, step = np.asarray(hs, dtype=float), max(1, _BLOCK // modes)
    return [x for r in range(0, len(fields), step) for x in rows(fields[r:r + step])]


def ground_qfi(params: ChainParams) -> QfiRecord:
    """Total ground-state QFI over the positive-momentum grid, the one-row
    view of _field_rows: per-mode values (each >= 0) on the record, their sum
    exactly rounded (math.fsum's, ascending mode order), ExceptionalModeError
    naming a defective mode, one NearSingularWarning with the count of values
    within 1e6 of float overflow."""
    (row,) = _field_rows(params, [params.h])
    if isinstance(row, ExceptionalModeError):
        raise row
    total, near, vals = row
    vals.flags.writeable = False
    return QfiRecord(total, near, vals)


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
