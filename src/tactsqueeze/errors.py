"""Exception types shared across the package."""


class TactError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(TactError):
    """Spin count outside the dense oracle's cap (`exact.check_cap`)."""


class IntegrationError(TactError):
    """Integrator could not satisfy the channel invariants, or a pass
    overflowed.

    Carries the worst residual observed after the final refinement (None
    after an overflow).
    """

    def __init__(self, message, worst_residual=None):
        super().__init__(message)
        self.worst_residual = worst_residual


class NumericalConsistencyError(TactError):
    """A quantity that must be real (or otherwise constrained) is not."""


class UndefinedDirectionError(TactError):
    """Mean spin length too small to define a squeezing direction."""


class DegenerateShiftError(TactError):
    """Field-displaced mode is undefined at J = 0; use the free-precession limit."""


class DomainError(TactError, ValueError):
    """Closed-form expression evaluated outside its domain of validity."""


class NonFiniteObjectiveError(TactError):
    """Objective returned a non-finite value during optimization."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class ConfigError(TactError):
    """Malformed or inconsistent run configuration."""
