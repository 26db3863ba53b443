"""Shared exception types.

The CLI maps these onto exit codes: bad input (including parse failures and
domain violations) exits 2 and refused oversized enumerations exit 3.  Exit 1
is kept for a verification run that fails, which raises nothing.
"""


class InvalidInputError(ValueError):
    """Malformed or inconsistent caller input."""


class ParseError(InvalidInputError):
    """Text input that could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(InvalidInputError):
    """Structurally valid input outside an operation's domain."""


class CapacityError(RuntimeError):
    """Enumeration refused because it exceeds a configured cap."""
