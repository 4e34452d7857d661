"""Exception types shared across the package, and the checks that raise them.

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
    """An epoch's mean training loss exceeded the divergence bound."""


class ParseError(AAEError):
    """A corpus or params file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def is_size(value) -> bool:
    """An int >= 1 that is not a bool: a length, a count of units, a step."""
    return type(value) is int and value >= 1


def check_header(header, fields: dict, line: int) -> None:
    """A ParseError at `line` unless each field in `fields` passes its rule."""
    if type(header) is not dict:
        raise ParseError("header is not a JSON object", line=line)
    for name, (rule, accepts) in fields.items():
        if name not in header or not accepts(header[name]):
            got = repr(header[name]) if name in header else "missing"
            raise ParseError(f"header {name} must be {rule}, got {got}",
                             line=line)
