"""The 2x2 matrix route: an independent reference for the block kernels.

The library evaluates each quantity from closed-form first columns; the
tests check it against full 2x2 matrices built here.  The analytic
propagator and its field derivative do the library's scalar arithmetic
(t ** 3 and _c012 at one z), so the kernel's totals equal this route's bit
for bit below the rescale threshold.
"""

import numpy as np

from iksea.dynamics import _c012
from iksea.model import ChainParams, block_elements
from iksea.oracle import _central_fd, _select_ground


def block_matrix(params: ChainParams, phi: float) -> np.ndarray:
    """2x2 block Hamiltonian [[-g, -a_plus], [a_minus, g]] at angle phi."""
    g, ap, am, _ = block_elements(params, phi)
    return np.array([[-g, -ap], [am, g]], dtype=complex)


def block_propagator(params: ChainParams, phi: float, t: float) -> np.ndarray:
    """U(t) = c0 I - i t c1 H; raises the kernel's EvolutionOverflowError."""
    _, _, _, eps_sq = block_elements(params, float(phi))
    c0, c1, _ = map(float, _c012(float(eps_sq) * t * t))
    return c0 * np.eye(2, dtype=complex) - 1j * t * c1 * block_matrix(params, phi)


def propagator_derivative(params: ChainParams, phi: float, t: float) -> np.ndarray:
    """Analytic dU/dh = -g t^2 c1 I - i g t^3 c2 H - i t c1 diag(-1, 1)."""
    g, _, _, eps_sq = block_elements(params, float(phi))
    g, eps_sq = float(g), float(eps_sq)
    _, c1, c2 = map(float, _c012(eps_sq * t * t))
    d = np.diag([-1.0, 1.0]).astype(complex)
    return (-g * t * t * c1) * np.eye(2, dtype=complex) \
        + (-1j * g * t ** 3 * c2) * block_matrix(params, phi) + (-1j * t * c1) * d


def fd_propagator_derivative(params: ChainParams, phi: float, t: float,
                             step: float = 1e-6) -> np.ndarray:
    """dU/dh by central differences of block_propagator in h."""
    up = block_propagator(params.replace(h=params.h + step), phi, t)
    um = block_propagator(params.replace(h=params.h - step), phi, t)
    return (up - um) / (2.0 * step)


def block_fd_qfi(params: ChainParams, phi: float) -> float:
    """Single-mode ground QFI by central differences, step 1e-6 in h, of the
    block ground vector from np.linalg.eig (picked by _select_ground)."""
    def unit(p):
        vals, vecs = np.linalg.eig(block_matrix(p, phi))
        return vecs[:, _select_ground(vals)]

    return _central_fd(unit, [params], 1e-6)[0]
