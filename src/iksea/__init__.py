"""Quantum Fisher information for field estimation in a non-Hermitian KSEA-XY chain.

The chain maps onto independent 2x2 momentum blocks; :mod:`iksea.model`
holds the block structure and phase diagram, :mod:`iksea.ground` the
ground-state QFI closed forms, :mod:`iksea.dynamics` the non-unitary
evolution, :mod:`iksea.oracle` an independent dense-spin-space cross-check,
:mod:`iksea.scaling` the log-log fits and sweeps, and :mod:`iksea.cli` the
command-line front end.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    IkseaError,
    ParameterError,
    DomainError,
    ExceptionalModeError,
    EvolutionOverflowError,
    CapacityError,
    LevelCrossingError,
    OutOfWindowError,
    InsufficientDataError,
    NumericalConsistencyError,
    CalibrationError,
    ConfigError,
    NearSingularWarning,
)
from .model import (
    ChainParams,
    PhaseInfo,
    momentum_grid,
    block_matrix,
    block_elements,
    dispersion,
    critical_field,
    exceptional_field,
    zero_crossings,
    classify_phase,
)
from .ground import (
    QfiRecord,
    ground_qfi,
    asymptotic_qfi,
)
from .dynamics import (
    block_propagator,
    propagator_derivative,
    dynamical_qfi,
    qfi_time_series,
)
from .scaling import (
    ScalingFit,
    SweepResult,
    power_law_fit,
    size_exponent,
    exponent_vs_offset,
    kappa_sweep,
)
from .config import RunConfig

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
