"""Error taxonomy shared across the package.

Configuration-style errors (bad arguments, out-of-regime parameters, grids too
coarse) derive from ConfigError; failures of a numerical procedure (blow-up,
failed boundary-value solve, non-contracting iteration) derive from
NumericalError.  The command line maps these onto exit codes 2 and 3
respectively.
"""


class ConfigError(ValueError):
    """Invalid configuration or argument."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of an operation."""


class DivergentMassError(DomainError):
    """Closed-form defect mass requested where the integral diverges."""


class ConventionError(ConfigError):
    """Sign convention mix-up between theorem-style and simulation-style inputs."""


class OutOfRegimeError(ConfigError):
    """Parameters outside the regime where target patterns form."""


class ResolutionError(ConfigError):
    """Grid too coarse for the requested operation."""


class StatisticsError(ConfigError):
    """Too few samples for a meaningful statistic."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a usable result."""


class BlowUpError(NumericalError):
    """Time stepper produced NaN/Inf.

    step_index and t say where; residual is the last steady residual taken
    before the blow-up, None if none was.
    """

    def __init__(self, message: str, step_index: int, t: float | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t
        self.residual = residual


class NonContractionError(NumericalError):
    """Fixed-point iteration diverged."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class RangeError(NumericalError):
    """Quantity left the range where the evaluation is meaningful."""
