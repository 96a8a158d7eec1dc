"""Exception hierarchy and warnings shared across the package.

Everything raised on purpose derives from :class:`IkseaError`, so callers
(including the CLI) can distinguish contracted failures from genuine bugs.
"""


class IkseaError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParameterError(IkseaError, ValueError):
    """Model parameters outside their admissible domain (N odd, gamma < 0, ...)."""


class DomainError(IkseaError, ValueError):
    """An operation was requested outside its mathematical domain."""


class ExceptionalModeError(IkseaError):
    """A momentum mode sits at (or numerically on top of) an exceptional point.

    The 2x2 block is defective there: no eigenvector basis, no meaningful
    single-mode QFI.  Carries the offending angle so callers can report it.
    """

    def __init__(self, phi=None, mode_index=None, detail=""):
        self.phi = None if phi is None else float(phi)
        self.mode_index = mode_index
        if self.phi is not None:
            which = f"mode p={mode_index}, " if mode_index is not None else ""
            msg = (f"defective block at {which}phi={self.phi:.12g}: eps^2 = 0 within "
                   f"tolerance, the block has no eigenbasis. "
                   f"Offset h by ~1e-6 (or change N) to move off the exceptional point.")
        else:
            msg = "spectrum is defective (no complete eigenbasis)"
        if detail:
            msg += " " + detail
        super().__init__(msg)


class EvolutionOverflowError(IkseaError, OverflowError):
    """Requested evolution time would overflow double precision (cosh/sinh blowup)."""


class CapacityError(IkseaError, ValueError):
    """Dense-oracle request beyond the supported system size."""


class LevelCrossingError(IkseaError):
    """Finite-difference stencil straddles a level crossing; derivative meaningless."""


class OutOfWindowError(IkseaError, ValueError):
    """An asymptotic prediction was requested outside its validity window."""


class InsufficientDataError(IkseaError, ValueError):
    """Too few points inside the fit window."""


class NumericalConsistencyError(IkseaError):
    """A quantity violated an internal consistency bound (e.g. QFI < 0 beyond noise)."""


class CalibrationError(IkseaError):
    """Oracle energy-scale calibration failed or is inconsistent."""


class ConfigError(IkseaError, ValueError):
    """Malformed or incomplete run configuration."""


class NearSingularWarning(UserWarning):
    """A closed-form denominator is small; the returned value is dominated by it."""
