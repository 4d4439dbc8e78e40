"""Exception types shared by every layer and by the command-line front end,
and the integer check every constructor applies to its input.

Kept free of any math import so the CLI can name them in its `except`
clauses without loading a computation module.
"""

from operator import index

__all__ = [
    "DiagramError",
    "PreconditionError",
    "OrientationError",
    "CapExceededError",
    "InternalError",
]


class DiagramError(ValueError):
    """Malformed, disconnected, or non-planar diagram input."""


class PreconditionError(DiagramError):
    """Valid input that a requested method does not apply to."""


class OrientationError(PreconditionError):
    """Crossing signs are required but cannot be inferred."""


class CapExceededError(RuntimeError):
    """An exponential scan would exceed the configured cap."""


class InternalError(RuntimeError):
    """A consistency check inside a computation failed: a bug, not bad input."""


def _integers(values, what: str) -> tuple:
    """`values` as a tuple of ints by `operator.index`: ints and bools pass,
    and anything else, a float or a string, raises `DiagramError` rather
    than being truncated or parsed."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise DiagramError(f"{what} must be integers, got {values!r}") from None
