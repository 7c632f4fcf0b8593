"""Exception types shared across the package.

The CLI maps these onto exit codes: file/format problems exit 3,
validation and numeric failures exit 4 (usage errors exit 2 via argparse).
"""


class AgendaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AgendaError):
    """Arguments or data violate a documented precondition or invariant."""


class DimensionError(ValidationError):
    """Shape or dimension mismatch."""


class NumericError(AgendaError):
    """Non-finite values or a numerical routine that failed to converge."""


class StateError(AgendaError):
    """API called out of order, e.g. a backward pass without its forward."""


class DataFormatError(AgendaError):
    """A file could not be parsed. ``code`` identifies the failure kind.

    Codes: ``bad_magic``, ``version``, ``truncated``, ``nonfinite``,
    ``bad_attribute``, ``bad_flag``, ``too_large``, ``bad_key``, ``bad_value``.
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
