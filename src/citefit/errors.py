"""Exception taxonomy and process exit codes.

Every error raised by this package derives from :class:`CitefitError` so
callers (notably the CLI) can map failures onto a stable exit-code scheme:

====  =========================================
code  meaning
====  =========================================
0     success
1     usage error (bad arguments, mismatched inputs)
2     I/O error (unreadable, unparseable, or empty input)
3     degenerate data (too few or constant-valued observations)
4     internal consistency failure (signals an upstream optimizer bug)
====  =========================================
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


class CitefitError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_USAGE


class UsageError(CitefitError):
    """Caller supplied inconsistent arguments (e.g. fits on different tails)."""

    exit_code = EXIT_USAGE


class ParameterError(UsageError):
    """A distribution parameter violates its domain."""


class NonNormalizableError(ParameterError):
    """Tail sum diverges (power-law exponent at or below 1)."""


class SupportError(UsageError):
    """Evaluation point lies below the distribution's truncation point."""


class ParseError(CitefitError):
    """Input file could not be parsed; carries the offending line number."""

    exit_code = EXIT_IO

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyDatasetError(CitefitError):
    """No positive counts remained after ingestion."""

    exit_code = EXIT_IO


class EmptyTailError(CitefitError):
    """Truncation removed every observation."""

    exit_code = EXIT_DEGENERATE


class DegenerateDataError(CitefitError):
    """Data cannot identify the parameters (constant or too few values)."""

    exit_code = EXIT_DEGENERATE


class ScanError(CitefitError):
    """No truncation candidate left a usable tail."""

    exit_code = EXIT_DEGENERATE


class OutOfModelError(CitefitError):
    """Parameters fall outside the attachment-process model's domain."""

    exit_code = EXIT_USAGE


class InternalConsistencyError(CitefitError):
    """An invariant that only an optimizer failure can break was violated."""

    exit_code = EXIT_INTERNAL
