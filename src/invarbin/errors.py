"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from
:class:`InvarbinError`, so callers can catch one base class at a pipeline
boundary.  Subclasses also inherit the matching builtin (``ValueError``,
``KeyError``) where a builtin is the idiomatic thing to catch.
"""


class InvarbinError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(InvarbinError, ValueError):
    """An input violates a documented precondition (shape, domain, finiteness)."""


class CsvParseError(InvarbinError):
    """A CSV file is structurally malformed.

    Carries the line of the offending row when known: its 1-based number,
    or the label a caller gave it, such as ``3 of b.csv``.
    """

    def __init__(self, message: str, line: int | str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(InvarbinError):
    """A value cannot be encoded under the active encoding schema."""


class UnknownEnvironmentError(InvarbinError, KeyError):
    """A requested environment label is not registered in the dataset."""


class InsufficientDataError(InvarbinError):
    """Too few samples for the requested fit or test."""


class DegenerateResponseError(InvarbinError):
    """The response takes a single value where both classes are required."""


class DegeneratePairError(InvarbinError):
    """Every target row falls in the vanishing-denominator region of a pair."""


class SupportSizeError(InvarbinError):
    """Exact enumeration would exceed the configured atom budget."""
