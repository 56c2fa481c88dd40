"""Exception hierarchy shared by every basscast module."""


class BasscastError(Exception):
    """Base class for all library errors.

    row is the 1-based physical line of the input file that raised the error,
    or None when no single line did; a row is named in the message as a
    "row N: " prefix. exit_code is the command line's exit status for the
    error: 2 for an input or format problem (the default), 3 for a
    NumericError.
    """

    exit_code = 2

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class EmptyInputError(BasscastError):
    """A series or file contained no data rows."""


class ValidationError(BasscastError):
    """Input data violated a structural invariant (lengths, ordering, signs)."""


class FormatError(BasscastError):
    """A file or cell could not be parsed."""


class ParameterError(BasscastError):
    """A function argument was outside its documented range."""


class NumericError(BasscastError):
    """Base class for a numeric or fit problem; the command line exits 3."""

    exit_code = 3


class InsufficientDataError(NumericError):
    """Too few observations to fit the model."""


class SingularFitError(NumericError):
    """The regression has no unique finite solution.

    Raised when the design matrix is rank deficient, or when float64
    overflow on very large demands leaves no finite fit.
    """

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        self.columns = columns
        super().__init__(message)


class NonDiffusionShapeError(NumericError):
    """Fitted coefficients do not describe a diffusion curve (c >= 0 or a <= 0)."""


class NoRealMarketSizeError(NumericError):
    """The market-size quadratic has no real positive root, or none float64 holds with p and q."""


class DivergenceError(NumericError):
    """A predicted curve, its running total or its SSE left float64, first at ``period``."""

    def __init__(self, message: str, period: int | None = None):
        self.period = period
        super().__init__(message)


class ShapeError(BasscastError):
    """Two sequences that must align have different lengths."""


class UndefinedBaselineError(NumericError):
    """Improvement percentage is undefined for this baseline or modified SSE.

    The baseline must be positive and finite, the modified SSE non-negative and finite.
    """


class DegeneratePlotError(BasscastError):
    """Too few points to draw a comparison chart."""
