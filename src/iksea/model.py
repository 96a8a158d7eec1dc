"""Model definition: momentum blocks of the non-Hermitian KSEA-XY chain.

The chain of N spins (N even, periodic boundary) with transverse field h,
imaginary anisotropy gamma and symmetric off-diagonal (KSEA) exchange K maps,
in the even fermion-parity sector, onto independent 2x2 blocks labelled by the
antiperiodic momenta

    phi_p = (2p - 1) pi / N,   p = 1 .. N/2.

Each block acts on span{ |0>, c_p^dag c_{-p}^dag |0> } and reads

    [[ -g(phi), -a_plus(phi) ],
     [ a_minus(phi),  g(phi) ]]

with g = h + cos(phi), a_plus = (gamma + K) sin(phi),
a_minus = (gamma - K) sin(phi).  The squared dispersion

    eps_sq = g^2 + (K^2 - gamma^2) sin^2(phi)

is always real; eps_sq < 0 marks modes with a complex-conjugate eigenvalue
pair (PT-broken modes), eps_sq = 0 an exceptional (defective) mode.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "ChainParams",
    "PhaseInfo",
    "momentum_grid",
    "block_elements",
    "dispersion",
    "exceptional_tolerance",
    "exceptional_field",
    "zero_crossings",
    "classify_phase",
]

#: one ulp at 1 (twice the unit roundoff): the error taken for each rounding in eps_sq
EXC_TOL = 2.0 ** -52
#: bound B on |h|, gamma and K.  With B >= 1: |g| <= 2B, eps_sq <= 5B^2, the
#: real-branch denominator gamma g + eps K <= (2 + sqrt 5) B^2 and the
#: eigenvector norm A <= 22B^2, so the ground kernel's largest intermediates,
#: eps_sq den^2 and eps_sq A^2, are below 1e4 B^6.  B = 1e50 is the largest
#: power of ten with 1e4 B^6 (1e304) under the float maximum (1.8e308).
PARAM_MAX = 1e50
#: bound on n_sites: 4x the largest N any config, test or benchmark uses
N_MAX = 2 ** 22
#: array size from which exact_sum beats math.fsum (measured crossover ~1 k)
EXACT_SUM_CUTOVER = 1024
#: values per block of exact_sum's array pass (its temporaries stay in L2)
_SUM_BLOCK = 2 ** 14


@dataclass(frozen=True)
class ChainParams:
    """Physical parameters of one chain.

    h : transverse field, |h| <= PARAM_MAX (spectra depend on |h| up to a
        momentum relabelling phi -> pi - phi)
    gamma : non-Hermitian anisotropy, in [0, PARAM_MAX]
    k_ksea : KSEA exchange strength, in [0, PARAM_MAX]
    n_sites : number of spins, even, 2 <= n_sites <= N_MAX
    """

    h: float
    gamma: float
    k_ksea: float
    n_sites: int

    def __post_init__(self):
        if not np.isfinite(self.h):
            raise ParameterError(f"h must be finite, got {self.h!r}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ParameterError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (np.isfinite(self.k_ksea) and self.k_ksea >= 0.0):
            raise ParameterError(f"k_ksea must be finite and >= 0, got {self.k_ksea!r}")
        for name in ("h", "gamma", "k_ksea"):
            if abs(getattr(self, name)) > PARAM_MAX:
                raise ParameterError(f"|{name}| must be <= {PARAM_MAX:g}, "
                                     f"got {getattr(self, name)!r}")
        _check_n_sites(self.n_sites)

    def replace(self, **kw) -> "ChainParams":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class PhaseInfo:
    """Result of :func:`classify_phase`.

    region : one of "Unbroken", "Broken", "ExceptionalPoint", "ExceptionalLine",
        read from zero_crossings (see classify_phase)
    h_c : critical field (always 1.0 for this model)
    h_e : exceptional field sqrt(1 + gamma^2 - k^2) when k < gamma, else None
    omega_pm : (omega_minus, omega_plus) dispersion zero-crossing angles when
        the point is in the Broken region, else None
    at_critical : True when |h| == h_c exactly
    """

    region: str
    h_c: float
    h_e: Optional[float]
    omega_pm: Optional[Tuple[float, float]]
    at_critical: bool


def _check_n_sites(n) -> None:
    """ParameterError unless n is an even integer in [2, N_MAX]."""
    if not isinstance(n, (int, np.integer)) or n < 2 or n % 2 != 0:
        raise ParameterError(f"n_sites must be an even integer >= 2, got {n!r}")
    if n > N_MAX:
        raise ParameterError(f"n_sites must be <= {N_MAX}, got {n!r}")


def momentum_grid(n_sites: int) -> np.ndarray:
    """Antiperiodic momentum angles phi_p = (2p-1)pi/N for p = 1..N/2."""
    _check_n_sites(n_sites)
    return _angles(n_sites, 0, n_sites // 2)


def _angles(n_sites: int, start: int, stop: int) -> np.ndarray:
    """Modes start + 1 .. min(stop, N/2) of momentum_grid(n_sites), same bits."""
    return np.arange(2 * start + 1, min(2 * stop, n_sites), 2) * np.pi / n_sites


def _elements(params: ChainParams, phi, h=None):
    """(sin phi, g, eps_sq) at angle(s) phi, and at the field(s) h if given."""
    phi = np.asarray(phi, dtype=float)
    s = np.sin(phi)
    g = (params.h if h is None else h) + np.cos(phi)
    eps_sq = g * g + (params.k_ksea**2 - params.gamma**2) * s * s
    return s, g, eps_sq


def _couplings(params: ChainParams, s):
    """(a_plus, a_minus) from s = sin phi."""
    return (params.gamma + params.k_ksea) * s, (params.gamma - params.k_ksea) * s


def block_elements(params: ChainParams, phi):
    """Return (g, a_plus, a_minus, eps_sq) at angle(s) phi.

    eps_sq is computed as g^2 + (K^2 - gamma^2) sin^2(phi), which is exactly
    g^2 - a_plus*a_minus and manifestly real.
    """
    s, g, eps_sq = _elements(params, phi)
    return (g, *_couplings(params, s), eps_sq)


def exceptional_tolerance(g, a_plus, a_minus):
    """Bound on the rounding error of eps_sq computed from the elements g,
    a_plus, a_minus; an |eps_sq| at or below it is treated as exactly zero.

    Each rounding is taken at e = EXC_TOL (sin, cos and pow are within one
    ulp, + - * within half; the spare half covers the O(e^2) terms):
      * g = h + cos phi is off by d = e (|g| + 1), so g^2 by d (2|g| + d);
        g*g and the final sum add e g^2 each;
      * K**2 - gamma**2 is off by e (K^2 + gamma^2 + |K^2 - gamma^2|); times
        sin^2 phi that is e ((a_plus^2 + a_minus^2) / 2 + |a_plus a_minus|);
        two sin factors, two products and the final sum add 5 e |a_plus a_minus|.
    The g part and the a part sum to at most twice the larger.  Each grows
    with |g|, |a_plus| and |a_minus|, so the value at (|h| + 1, gamma + K,
    gamma - K) bounds every mode's, and equals it where one part is the
    larger at both.
    """
    g, ap, am = np.abs(g), np.abs(a_plus), np.abs(a_minus)
    d = EXC_TOL * (g + 1.0)
    return 2.0 * np.maximum(d * (2.0 * g + d) + 2.0 * EXC_TOL * g * g,
                            EXC_TOL * (0.5 * (ap * ap + am * am) + 6.0 * ap * am))


def exact_sum(values: np.ndarray) -> float:
    """math.fsum(values.tolist()) of a 1-D float64 array, bit for bit: the
    _exact_round of the _exact_add of its blocks of _SUM_BLOCK values, and
    math.fsum itself below EXACT_SUM_CUTOVER values."""
    n, exact = values.size, -0.0
    if n < EXACT_SUM_CUTOVER:
        return math.fsum(values.tolist())
    for i in range(0, n, _SUM_BLOCK):
        exact = _exact_add(exact, values[i:i + _SUM_BLOCK], n)
    return _exact_round(exact, lambda: values)


def _exact_add(exact, r: np.ndarray, n: int):
    """exact + sum(r) in units of 2^-1074, exactly, for a non-empty block r
    of a sum of n values; None (also for None) where math.fsum must sum: an
    inf or nan, or some |v| >= 2^top, where the sum could overflow.  A sum
    starts at -0.0, the empty sum, and keeps it while every value is -0.0.

    Error-free extraction: with max|r| < 2^e and sigma = 2^k >= r.size 2^e,
    each q = (r + sigma) - sigma is exact, a multiple of u = ulp(sigma/2) and
    at most 2^e <= 2^53 u / r.size, so q.sum() is exact in any order; each
    level adds it to exact and goes on with r - q until r is zero."""
    top = 1022 - (n - 1).bit_length()       # all |v| < 2^top: |sum| < 2^1022
    m = None if exact is None else max(r.max(), -r.min())
    if m is None or not m < 2.0 ** top:     # also inf and nan
        return None
    if not m and np.signbit(r).all():
        return exact
    exact, spread = int(exact), (r.size - 1).bit_length()      # 2^spread >= r.size
    while m:
        k = math.frexp(m)[1] + spread       # sigma = 2^k <= 2^1022
        q = r + 2.0 ** k
        q -= 2.0 ** k
        r = r - q
        unit = max(k - 53, -1074)
        exact += int(math.ldexp(q.sum(), -unit)) << unit + 1074
        m = max(r.max(), -r.min())
    return exact


def _exact_round(exact, whole: Callable[[], np.ndarray]) -> float:
    """_exact_add's sum rounded once, as math.fsum rounds it (for -0.0 values,
    math.fsum's one -0.0), or for None math.fsum of the array whole() itself."""
    return math.fsum(whole().tolist()) if exact is None else \
        math.fsum([exact]) if isinstance(exact, float) else exact / (1 << 1074)


def dispersion(params: ChainParams, phi):
    """Squared dispersion and the branch-resolved dispersion at angle(s) phi.

    Returns (eps_sq, eps) where eps_sq is real and eps obeys the branch
    convention Re eps >= 0 for eps_sq > 0 and eps = -i sqrt(-eps_sq)
    (Im eps <= 0) for eps_sq < 0, so that the block ground energy -eps has
    the largest imaginary part.  Modes with |eps_sq| below the exceptional
    tolerance get eps = 0 exactly.
    """
    scalar = np.isscalar(phi)
    g, ap, am, eps_sq = block_elements(params, phi)
    tol = exceptional_tolerance(g, ap, am)
    eps = np.where(
        eps_sq > 0.0,
        np.sqrt(np.abs(eps_sq)) + 0j,
        -1j * np.sqrt(np.abs(eps_sq)),
    )
    eps = np.where(np.abs(eps_sq) <= tol, 0.0 + 0j, eps)
    if scalar:
        return float(eps_sq), complex(eps)
    return eps_sq, eps


def exceptional_field(params: ChainParams) -> Optional[float]:
    """Exceptional field h_e = sqrt(1 + gamma^2 - k^2), defined for k < gamma."""
    if params.k_ksea >= params.gamma:
        return None
    return float(np.sqrt(1.0 + params.gamma * params.gamma - params.k_ksea * params.k_ksea))


def zero_crossings(params: ChainParams) -> Optional[tuple]:
    """Angles in [0, pi] where eps_sq changes sign; the one exceptional-point
    verdict, which classify_phase and asymptotic_qfi read.

    For k < gamma, eps_sq is smallest at cos(omega_c) = -|h| / h_e^2, where
    it is (gamma^2 - k^2)(h^2 - h_e^2) / h_e^2, and its value there is judged
    as a mode's is: within exceptional_tolerance of 0 gives the tangency
    (omega_c,); above it (or |h| > h_e^2, no omega_c) None; below it the
    roots (omega_minus, omega_plus) with eps_sq < 0 strictly between them.
    """
    he = exceptional_field(params)
    gam, k, h = params.gamma, params.k_ksea, abs(params.h)
    if he is None or h > he * he:
        return None
    he2 = he * he
    omega_c = float(np.arccos(-h / he2))
    s, g, eps_sq = _elements(params, omega_c, h)
    if abs(eps_sq) <= exceptional_tolerance(g, *_couplings(params, s)):
        return (omega_c,)
    if eps_sq > 0.0:
        return None
    # roots of he^2 c^2 + 2 h c + h^2 - (gamma^2 - k^2) = 0 in c = cos(omega);
    # both lie in [-1, 1] whenever |h| < h_e
    disc = (gam * gam - k * k) * (he2 - h * h)
    root = np.sqrt(disc)
    return tuple(float(np.arccos(min(1.0, max(-1.0, (-h + r) / he2))))
                 for r in (root, -root))


def classify_phase(params: ChainParams) -> PhaseInfo:
    """Classify the point in the (h, gamma, K) phase diagram, symmetric under
    h -> -h.  zero_crossings gives the region (no root "Unbroken", one
    "ExceptionalPoint", two "Broken"); the exceptional line is gamma == K
    exactly (gamma - K is exact near it), defective for |h| < 1, and
    at_critical is |h| == 1 exactly (g = h + cos phi closes at phi = pi).
    """
    h = abs(params.h)
    if params.gamma == params.k_ksea:
        region = "ExceptionalLine" if h < 1.0 else "Unbroken"
        return PhaseInfo(region, 1.0, None, None, h == 1.0)
    roots = zero_crossings(params) or ()
    return PhaseInfo(("Unbroken", "ExceptionalPoint", "Broken")[len(roots)], 1.0,
                     exceptional_field(params), roots if len(roots) == 2 else None,
                     h == 1.0)
