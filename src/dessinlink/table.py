"""The bundled knot table: `name: X[...] ...` lines mapping names to PD text.

Pointing `DESSINLINK_TABLE` at another file of the same format replaces
the bundled table.  Lookups return PD text only, so the CLI can resolve a
name without loading any computation module.
"""

import os
from typing import Dict

from .errors import DiagramError

__all__ = ["knot_table"]

_TABLE_ENV = "DESSINLINK_TABLE"


def _table_text() -> str:
    path = os.environ.get(_TABLE_ENV)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as exc:
                raise DiagramError(f"table {path} is not UTF-8 text: {exc}") from None
    from importlib import resources

    return resources.files("dessinlink").joinpath("tables/knots.txt").read_text("utf-8")


def knot_table() -> Dict[str, str]:
    """Bundled name -> PD string mapping (override path via DESSINLINK_TABLE)."""
    table: Dict[str, str] = {}
    for line in _table_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, pd_text = line.partition(":")
        name, pd_text = name.strip(), pd_text.strip()
        if not name or not pd_text:
            raise DiagramError(f"bad table line {line!r}")
        if name in table:
            raise DiagramError(f"table entry {name!r} is repeated")
        table[name] = pd_text
    return table

