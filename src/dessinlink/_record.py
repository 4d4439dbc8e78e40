"""The base of the package's immutable value types.

A subclass names its fields in `__slots__` and stores them, in slot order,
with `_set` from its `__init__`.  Equality, hash and repr are by field,
exactly as for a frozen dataclass; slots whose names start with an
underscore are caches and take no part.  The hash is one such cache, kept
by the first `hash` call, since values are `lru_cache` keys and a hit
would otherwise hash every nested field again; a copied or unpickled
value is built anew and hashes afresh.  Defining a subclass imports and
compiles nothing, which keeps a command-line run from loading the
dataclass machinery and `inspect`.
"""

from operator import attrgetter
from typing import Callable, Tuple

__all__ = ["Record"]


class Record:
    __slots__ = ("_hash",)
    _fields: Tuple[str, ...]
    _values: Callable[["Record"], tuple]  # the field values, in slot order

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields)  # returns a bare value for a single name
        cls._fields = fields
        cls._values = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash(self._values())
        object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
