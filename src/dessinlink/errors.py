"""Exception types shared by every layer and by the command-line front end.

Kept free of any math import so the CLI can name them in its `except`
clauses without loading a computation module.
"""

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
