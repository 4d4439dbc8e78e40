"""Exact link invariants via ribbon-graph (dessin) state expansions.

The package follows one pipeline: a planar diagram code (`PDCode`) is
smoothed into a state, the state's circles become the vertices of a
dessin (`Dessin`), and spanning sub-dessins drive the Kauffman bracket,
the Jones polynomial, determinant computations, and coefficient
formulas.  A chord-diagram layer handles one-vertex dessins and their
intersection matrices.

A module's `__all__` is its public API, and the package re-exports it.
Importing the package loads no computation module: on first access
(PEP 562) a public name is imported from the first module of `_MODULES`
that lists it, so the command-line front end starts without the math it
does not use.
"""

import importlib

__version__ = "0.1.0"

# dependency order: a name `diagram` re-exports resolves to `errors` or `table`
_MODULES = ("poly", "errors", "table", "diagram", "dessin", "chord", "invariants")


def _module(name: str):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        names = (n for m in _MODULES for n in _module(m).__all__)
        globals()[name] = value = [*dict.fromkeys(names), "__version__"]
        return value
    if not name.startswith("_"):
        for module in map(_module, _MODULES):
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
