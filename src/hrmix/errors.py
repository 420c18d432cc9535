"""Exception hierarchy shared by all hrmix modules."""


class HrmixError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergenceError(HrmixError):
    """An iterative routine exhausted its budget short of tolerance."""


class DomainError(HrmixError):
    """A user-supplied function returned non-finite values."""


class BadBracketError(HrmixError):
    """Root bracket endpoints do not straddle a sign change."""


class SingularMatrixError(HrmixError):
    """A linear system is singular or too ill-conditioned to solve."""


class SingularJacobianError(SingularMatrixError):
    """A Newton iteration met a singular Jacobian."""


class DimensionMismatchError(HrmixError):
    """Inputs disagree on covariate dimension or trial count."""


class ParseError(HrmixError):
    """A data file contains an invalid value.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(HrmixError):
    """A data file header does not match the expected schema."""

    def __init__(self, message, missing=()):
        if missing:
            message = f"{message} (missing columns: {', '.join(missing)})"
        super().__init__(message)
        self.missing = tuple(missing)


class DegenerateDataError(HrmixError):
    """A dataset cannot identify the regression parameter.

    Raised when there are no events, no covariate contrast, or a covariate
    separates events perfectly (monotone partial likelihood).
    """


class SingularVarianceError(HrmixError):
    """Inverse-variance weighting received a zero-variance component."""


class MissingVarianceError(HrmixError):
    """A combined effect lacks the covariance needed for inference."""
