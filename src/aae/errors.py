"""Exception types shared across the package.

Exit-code mapping for the CLI lives in cli.py; keep the hierarchy flat so
callers can catch the base class.
"""


class AAEError(Exception):
    """Base class for all package errors."""


class ValidationError(AAEError):
    """An argument violates a documented precondition."""


class ConfigurationError(ValidationError):
    """An unknown profile, architecture, or other named configuration."""


class CapacityError(ValidationError):
    """A feature vector does not fit the configured maximum length."""

    def __init__(self, required: int, available: int):
        super().__init__(
            f"feature vector needs length {required} but max_len is {available}"
        )
        self.required = required
        self.available = available


class ShapeError(AAEError):
    """Tensor shapes are inconsistent with the layer chain."""


class DivergenceError(AAEError):
    """Training produced a non-finite loss."""


class ParseError(AAEError):
    """A corpus, trace, or params file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
