"""Exception types shared across the library."""


class ExitgridError(Exception):
    """Base class for all library-specific errors."""


class InvalidDomainError(ExitgridError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergenceError(ExitgridError):
    """A truncated series would need more than ``MAX_TERMS`` terms to meet its tail bound."""


class ToleranceNotMetError(ExitgridError):
    """A quadrature or root-finding routine could not reach the requested tolerance."""


class DegenerateSampleError(ExitgridError, ValueError):
    """A sample has zero spread and cannot be smoothed."""


class UnboundedIntegralError(ExitgridError):
    """A distance integral has non-integrable tails for the given arguments."""


class ConfigError(ExitgridError, ValueError):
    """A CLI/experiment configuration is malformed."""
