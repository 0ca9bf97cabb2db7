"""Exception hierarchy shared across the toolkit.

Data errors (file/format problems) and numerical errors (estimator
breakdown) are kept on separate branches so the CLI can map them to
distinct exit codes.
"""


class ToaFusionError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ToaFusionError):
    """Invalid or inconsistent experiment configuration."""


class DataError(ToaFusionError):
    """Problem with input data or files."""


class NumericalError(ToaFusionError):
    """Estimator or solver failure."""


class IoFailure(DataError):
    """File could not be read or written."""


class MalformedLine(DataError):
    """A data line failed to parse."""

    def __init__(self, line_no: int, message: str = ""):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if message else f"line {line_no}")


class NonMonotonicTimestamp(DataError):
    """Timestamps in a sequence are not strictly increasing."""

    def __init__(self, line_no: int, where: str = "line"):
        self.line_no = line_no
        super().__init__(f"timestamp not strictly increasing at {where} {line_no}")


class UnknownBsId(DataError):
    """Base-station id outside the configured set."""


class EmptyTrajectory(DataError):
    """A trajectory input was empty where data is required."""


class EmptyInput(DataError):
    """An input sequence was empty where data is required."""


class EmptyPairs(DataError):
    """No matched pose pairs available for metric computation."""


class InsufficientPairs(DataError):
    """Too few matched pairs for the requested relative-pose step."""


class EmptySamples(DataError):
    """No timing samples to aggregate."""


class InvalidDt(NumericalError):
    """Integration step outside the supported range."""


class DegenerateGeometry(NumericalError):
    """Position coincides with a base station; range direction undefined."""


class SingularInnovation(NumericalError):
    """Innovation covariance not invertible in a filter update."""


class NonFiniteCost(NumericalError):
    """Optimization cost evaluated to NaN or infinity."""


class SingularNormalEquations(NumericalError):
    """Normal equations stayed singular after damping escalation."""


class IndefiniteCovariance(NumericalError):
    """A covariance matrix is not positive definite."""
