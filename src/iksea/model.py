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
from typing import Optional, Tuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "ChainParams",
    "PhaseInfo",
    "momentum_grid",
    "block_matrix",
    "block_elements",
    "dispersion",
    "exceptional_tolerance",
    "critical_field",
    "exceptional_field",
    "zero_crossings",
    "classify_phase",
]

#: relative floor used when deciding a mode is numerically exceptional
EXC_TOL = 1e-12
#: bound B on |h|, gamma and K.  With B >= 1: |g| <= 2B, eps_sq <= 5B^2, the
#: real-branch denominator gamma g + eps K <= (2 + sqrt 5) B^2 and the
#: eigenvector norm A <= 22B^2, so the ground kernel's largest intermediates,
#: eps_sq den^2 and eps_sq A^2, are below 1e4 B^6.  B = 1e50 is the largest
#: power of ten with 1e4 B^6 (1e304) under the float maximum (1.8e308).
PARAM_MAX = 1e50
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
    n_sites : number of spins, even and >= 2
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
        n = self.n_sites
        if not isinstance(n, (int, np.integer)) or n < 2 or n % 2 != 0:
            raise ParameterError(f"n_sites must be an even integer >= 2, got {n!r}")

    def replace(self, **kw) -> "ChainParams":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class PhaseInfo:
    """Result of :func:`classify_phase`.

    region : one of "Unbroken", "Broken", "ExceptionalPoint", "ExceptionalLine"
    h_c : critical field (always 1.0 for this model)
    h_e : exceptional field sqrt(1 + gamma^2 - k^2) when k < gamma, else None
    omega_pm : (omega_minus, omega_plus) dispersion zero-crossing angles when
        the point is in the Broken region, else None
    at_critical : True when |h| equals h_c within tolerance
    """

    region: str
    h_c: float
    h_e: Optional[float]
    omega_pm: Optional[Tuple[float, float]]
    at_critical: bool


def momentum_grid(n_sites: int) -> np.ndarray:
    """Antiperiodic momentum angles phi_p = (2p-1)pi/N for p = 1..N/2."""
    if n_sites < 2 or n_sites % 2 != 0:
        raise ParameterError(f"n_sites must be an even integer >= 2, got {n_sites!r}")
    return np.arange(1, n_sites, 2) * np.pi / n_sites


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


def block_matrix(params: ChainParams, phi: float) -> np.ndarray:
    """2x2 block Hamiltonian at momentum angle phi (complex ndarray)."""
    g, ap, am, _ = block_elements(params, phi)
    return np.array([[-g, -ap], [am, g]], dtype=complex)


def exceptional_tolerance(g, a_plus, a_minus):
    """Scale-aware threshold below which eps_sq is treated as exactly zero.

    At (|h| + 1, gamma + K, gamma - K) it bounds every mode's threshold with
    no slack: |sin|, |cos| <= 1 and each rounding is monotone.
    """
    return EXC_TOL * np.maximum(1.0, np.maximum(np.asarray(g) ** 2,
                                                np.abs(a_plus * a_minus)))


def exact_sum(values: np.ndarray) -> float:
    """math.fsum(values.tolist()) of a 1-D float64 array, bit for bit.

    Error-free extraction on blocks of n values: with max|r| < 2^e and
    sigma = 2^k >= n 2^e, each q = (r + sigma) - sigma is exact, a multiple
    of u = ulp(sigma/2) and at most 2^e <= 2^53 u / n, so q.sum() is exact in
    any order.  Each level adds it to one Python int and goes on with r - q
    until r is zero; the int is rounded once.  math.fsum
    itself sums fewer than EXACT_SUM_CUTOVER or 2^26 values or more, an inf
    or nan, a sum that could overflow and a zero or subnormal total.
    """
    n, exact = values.size, 0               # exact: units of 2^-1074
    if not EXACT_SUM_CUTOVER <= n < 2 ** 26:
        return math.fsum(values.tolist())
    top = 1022 - (n - 1).bit_length()       # all |v| < 2^top: |sum| < 2^1022
    spread = (min(n, _SUM_BLOCK) - 1).bit_length()   # 2^spread >= n
    for i in range(0, n, _SUM_BLOCK):
        r = values[i:i + _SUM_BLOCK]
        m = max(r.max(), -r.min())
        if not m < 2.0 ** top:              # also inf and nan
            return math.fsum(values.tolist())
        while m:
            k = math.frexp(m)[1] + spread    # sigma = 2^k <= 2^1022
            q = r + 2.0 ** k
            q -= 2.0 ** k
            r = r - q
            unit = max(k - 53, -1074)
            exact += int(math.ldexp(q.sum(), -unit)) << unit + 1074
            m = max(r.max(), -r.min())
    total = exact / (1 << 1074)
    return total if abs(total) >= 2.0 ** -1022 else math.fsum(values.tolist())


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


def critical_field(params: ChainParams) -> float:
    """Critical field h_c; equals 1 independently of gamma, K."""
    return 1.0


def exceptional_field(params: ChainParams) -> Optional[float]:
    """Exceptional field h_e = sqrt(1 + gamma^2 - k^2), defined for k < gamma."""
    if params.k_ksea >= params.gamma:
        return None
    return float(np.sqrt(1.0 + params.gamma * params.gamma - params.k_ksea * params.k_ksea))


def zero_crossings(params: ChainParams) -> Optional[tuple]:
    """Angles in [0, pi] where eps_sq changes sign.

    For k < gamma and |h| < h_e returns (omega_minus, omega_plus) with
    eps_sq < 0 strictly between them; for |h| = h_e (within tolerance)
    returns the single tangency angle (omega_c,); otherwise None.
    eps_sq vanishes at the returned angles to ~1e-12 absolute.
    """
    he = exceptional_field(params)
    if he is None:
        return None
    gam, k = params.gamma, params.k_ksea
    h = abs(params.h)
    he2 = he * he
    tol = 1e-12 * max(1.0, he)
    if h > he + tol:
        return None
    if abs(h - he) <= tol:
        # tangency: cos(omega_c) = -h / h_e^2  (double root of the quadratic)
        return (float(np.arccos(-h / he2)),)
    # roots of he^2 c^2 + 2 h c + h^2 - (gamma^2 - k^2) = 0 in c = cos(omega);
    # both lie in [-1, 1] whenever |h| < h_e
    disc = (gam * gam - k * k) * (he2 - h * h)
    root = np.sqrt(disc)
    c_hi = (-h + root) / he2
    c_lo = (-h - root) / he2
    c_hi = min(1.0, max(-1.0, c_hi))
    c_lo = min(1.0, max(-1.0, c_lo))
    omega_minus = float(np.arccos(c_hi))
    omega_plus = float(np.arccos(c_lo))
    return (omega_minus, omega_plus)


def classify_phase(params: ChainParams) -> PhaseInfo:
    """Classify the point in the (h, gamma, K) phase diagram.

    The spectrum depends on the field only through |h|, so the classification
    is symmetric under h -> -h.
    """
    gam, k = params.gamma, params.k_ksea
    h = abs(params.h)
    h_c = 1.0
    at_critical = abs(h - h_c) <= 1e-12
    if abs(gam - k) <= 1e-12 * max(1.0, gam):
        # gamma = K line: spectrum real for all h, defective continuum for h < 1
        region = "ExceptionalLine" if h < 1.0 - 1e-12 else "Unbroken"
        return PhaseInfo(region, h_c, None, None, at_critical)
    he = exceptional_field(params)
    if he is None:
        return PhaseInfo("Unbroken", h_c, None, None, at_critical)
    tol = 1e-12 * max(1.0, he)
    if abs(h - he) <= tol:
        return PhaseInfo("ExceptionalPoint", h_c, he, None, at_critical)
    if h > he:
        return PhaseInfo("Unbroken", h_c, he, None, at_critical)
    return PhaseInfo("Broken", h_c, he, zero_crossings(params), at_critical)
