"""Exception hierarchy for the nansde package.

Construction-time invariant violations (bad grid widths, invalid Hurst
indices, ...) raise plain ``ValueError``; the classes below mark failures of
operations that were given structurally valid inputs.
"""


class NansdeError(Exception):
    """Base class for all package-specific runtime failures."""


class KernelError(NansdeError):
    """Closed-form noise kernel could not be evaluated."""


class GenerationError(NansdeError):
    """A noise generator failed (e.g. no valid fBm circulant embedding)."""


class DataError(NansdeError):
    """Observed data violates an operation's preconditions."""


class TrainingError(NansdeError):
    """The training loop cannot proceed (e.g. too few usable sample paths)."""


class MetricError(NansdeError):
    """A metric is undefined for the given inputs."""


class IngestError(NansdeError):
    """A data file could not be parsed.  ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
