"""Exception types shared across the package."""


class LpAdaptError(Exception):
    """Base class for all package-specific errors."""


class SingularJointCovarianceError(LpAdaptError):
    """Stacked covariance matrix cannot be factorized."""


class NotBoxcarError(LpAdaptError, ValueError):
    """Weights do not satisfy the nested 0/1 product identity."""


class NoFeasibleScaleError(LpAdaptError):
    """Even the smallest scale violates the requested budget."""


class CalibrationFailedError(LpAdaptError):
    """Monte-Carlo threshold search could not satisfy the moment conditions."""


class ParameterDomainError(LpAdaptError, ValueError):
    """A tuning parameter (mu, u, alpha, r, delta, ...) is outside its domain."""


class ParseError(LpAdaptError):
    """A data file row could not be parsed; carries row/column context."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class MissingColumnError(LpAdaptError):
    """A required column is absent from the input file."""
