"""Exception hierarchy shared by every basscast module."""


class BasscastError(Exception):
    """Base class for all library errors.

    exit_code is the command line's exit status for the error: 2 for an
    input or format problem (the default), 3 for a numeric or fit problem.
    """

    exit_code = 2


class EmptyInputError(BasscastError):
    """A series or file contained no data rows."""


class ValidationError(BasscastError):
    """Input data violated a structural invariant (lengths, ordering, signs)."""


class FormatError(BasscastError):
    """A file or cell could not be parsed; carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ParameterError(BasscastError):
    """A function argument was outside its documented range."""


class InsufficientDataError(BasscastError):
    """Too few observations to fit the model."""

    exit_code = 3


class SingularFitError(BasscastError):
    """The regression design matrix is rank deficient."""

    exit_code = 3

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        self.columns = columns
        super().__init__(message)


class NonDiffusionShapeError(BasscastError):
    """Fitted coefficients do not describe a diffusion curve (c >= 0 or a <= 0)."""

    exit_code = 3


class NoRealMarketSizeError(BasscastError):
    """The market-size quadratic has no real positive root."""

    exit_code = 3


class DivergenceError(BasscastError):
    """Simulated cumulative demand blew past the overflow guard."""

    exit_code = 3

    def __init__(self, message: str, period: int | None = None):
        self.period = period
        super().__init__(message)


class ShapeError(BasscastError):
    """Two sequences that must align have different lengths."""


class UndefinedBaselineError(BasscastError):
    """Improvement percentage is undefined for a non-positive baseline SSE."""

    exit_code = 3


class DegeneratePlotError(BasscastError):
    """Too few points to draw a comparison chart."""
