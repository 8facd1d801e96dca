"""Exception hierarchy shared across the package.

The CLI maps these onto distinct process exit codes, so raising the right
class matters for scripted callers.
"""


class DoubleTreeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DoubleTreeError):
    """Invalid or conflicting run configuration (CLI exit code 2)."""


class ParseError(DoubleTreeError):
    """Malformed input file (CLI exit code 3).

    ``line`` is the 1-based line number the problem was detected on, or
    None when the error is not tied to a specific line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GuardError(DoubleTreeError):
    """A resource guard tripped, e.g. predicted table size or oracle size (exit code 4)."""


class InternalInvariantError(DoubleTreeError):
    """An internal consistency check failed; indicates a bug (exit code 5)."""
