"""Exact link invariants via ribbon-graph (dessin) state expansions.

The package follows one pipeline: a planar diagram code (`PDCode`) is
smoothed into a state, the state's circles become the vertices of a
dessin (`Dessin`), and spanning sub-dessins drive the Kauffman bracket,
the Jones polynomial, determinant computations, and coefficient
formulas.  A chord-diagram layer handles one-vertex dessins and their
intersection matrices.

Importing the package loads no computation module: each public name is
imported from its defining module on first access (PEP 562), so the
command-line front end starts without the math it does not use.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports at package level
_EXPORTS = {
    "poly": (
        "DELTA",
        "LaurentPoly",
        "PolyError",
    ),
    "errors": (
        "CapExceededError",
        "DiagramError",
        "PreconditionError",
        "OrientationError",
        "InternalError",
    ),
    "diagram": (
        "PDCode",
        "mirror",
        "parse_pd",
        "pd_to_text",
        "pretzel_pd",
        "reduce_to_one_vertex",
        "smooth_state",
        "state_circle_count",
        "state_sum_bracket",
        "strand_components",
        "table_pd",
        "twist_pd",
        "writhe",
    ),
    "table": ("knot_table",),
    "dessin": (
        "Counts",
        "Dessin",
        "WeightedDessin",
        "build_dessin",
        "contract_parallel",
        "dessin_counts",
        "dessin_to_text",
        "dual",
        "faces",
        "mixed_state_face_count",
        "quasi_tree_counts",
        "scan_subdessins",
    ),
    "chord": (
        "ChordDiagram",
        "bareiss_det",
        "char_poly",
        "chords_to_text",
        "interlacement_determinant",
        "intersection_matrix",
        "parse_chords",
        "quasi_counts_and_det",
        "rotate",
        "to_chord_diagram",
        "to_dessin",
        "unit_principal_minors",
    ),
    "invariants": (
        "DET_METHODS",
        "CoefficientTable",
        "DeterminantReport",
        "JonesResult",
        "a1_adequate",
        "bracket_via_dessin",
        "coefficient_restricted",
        "coefficient_table",
        "determinant",
        "jones_at_minus_two",
        "jones_polynomial",
        "one_vertex_coefficients",
        "pretzel_determinant",
        "spanning_tree_count",
        "top_coefficient_closed_form",
        "weighted_bracket",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
