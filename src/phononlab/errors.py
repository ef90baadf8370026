"""Exception types shared across the package."""


class PhononLabError(Exception):
    """Base class for all errors raised by phononlab."""


class DomainError(PhononLabError):
    """An argument lies outside the admissible domain of a closed-form map."""


class ConvergenceError(PhononLabError):
    """An iterative solve (bisection, inversion) failed to converge."""


class NonFiniteError(PhononLabError):
    """An integrand or field produced a non-finite value."""


class PositivityError(PhononLabError):
    """A spectrum violated the strict positivity required for 1/f terms."""


class ResolutionError(PhononLabError):
    """A grid is too coarse to resolve the requested structure."""


class SpectralError(PhononLabError):
    """The assembled operator violates its expected spectral structure."""


class FitError(PhononLabError):
    """A power-law fit window is unusable (too few points, bad values)."""


class BlowupError(PhononLabError):
    """A time integration left the trust region (sup-norm or positivity)."""


class ConfigError(PhononLabError, ValueError):
    """An invalid run or evolution configuration (exit 2 in the CLI); a
    ValueError too, so callers that catch ValueError still catch it."""
