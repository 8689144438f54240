"""Exception types shared across the package."""


class PhasemaxError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the ``phasemax`` exit status for the error; the
    codes are listed in ``phasemax.cli``.
    """

    exit_code = 4


class InvalidSpecError(PhasemaxError, ValueError):
    """A generator or run configuration failed validation."""

    exit_code = 2


class DimensionMismatchError(PhasemaxError, ValueError):
    """Operands have incompatible shapes or channel counts."""

    exit_code = 2


class NonFiniteError(PhasemaxError, ValueError):
    """An input contains NaN or infinite values."""


class NotSymmetricError(PhasemaxError, ValueError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class DegenerateInputError(PhasemaxError, ValueError):
    """Input is rank deficient where full rank is required."""


class ZeroSignalError(PhasemaxError, ValueError):
    """A signal is identically zero where a nonzero one is required."""


class ZeroSeriesError(PhasemaxError, ValueError):
    """A series is identically zero and cannot be normalized."""


class ZeroVarianceError(PhasemaxError, ValueError):
    """A series has zero variance and no correlation is defined."""


class ParseError(PhasemaxError, ValueError):
    """A text table contains a token that is not a number.

    ``line`` and ``column`` are 1-based positions in the input file.
    """

    exit_code = 3

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class RaggedRowsError(ParseError):
    """Rows of a text table do not all have the same number of columns."""


class MalformedHeaderError(PhasemaxError, ValueError):
    """A binary file header field is missing or unparseable."""

    exit_code = 3

    def __init__(self, field, message=None):
        super().__init__(message or f"malformed header field: {field}")
        self.field = field


class UnsupportedFeatureError(PhasemaxError, ValueError):
    """The file uses a format feature this reader does not support."""

    exit_code = 5


class TruncatedDataError(PhasemaxError, ValueError):
    """The file ends before the data promised by its header."""

    exit_code = 3


class OutOfBoundsError(PhasemaxError, IndexError):
    """A channel index or sample range is outside the recording."""

    exit_code = 2
