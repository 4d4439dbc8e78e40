"""The benchmark's view of the package: every name it uses must exist.

`bench/*.py` reaches into dessinlink through module attributes
(`diagram.state_sum_bracket`, `invariants._det_quasitree`, ...).  A rename
there would fail every benchmark op at run time; here it fails a test.
The per-layer metrics also read spans by name as strings
("diagram.smooth_state"); a rename there would silently zero a metric, so
those strings are checked too.  The bench sources are only parsed, never
imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import dessinlink
from dessinlink import diagram
from dessinlink.poly import LaurentPoly

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("diagram", "dessin", "invariants", "chord", "poly")
TREFOIL = "X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]"


def chain(node):
    """['diagram', 'PDCode'] for `diagram.PDCode`; None unless the chain
    starts at one of the package's module names or `dessinlink` itself."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in MODULES + ("dessinlink",) and names:
        return [node.id] + names[::-1]
    return None


def resolve(names):
    obj = dessinlink if names[0] == "dessinlink" else importlib.import_module(
        "dessinlink." + names[0]
    )
    for i, attr in enumerate(names[1:], 1):
        if not hasattr(obj, attr):
            # `import dessinlink.cli` makes a submodule an attribute
            obj = importlib.import_module(".".join(["dessinlink", *names[1:i + 1]]))
        else:
            obj = getattr(obj, attr)
    return obj


def bench_uses():
    """(file:line, name chain, call keywords or None) for every use."""
    uses = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = {
            id(node.func): node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module == "dessinlink":
                uses += [(where, ["dessinlink", alias.name], None) for alias in node.names]
            names = chain(node) if isinstance(node, ast.Attribute) else None
            if names is not None:
                call = calls.get(id(node))
                keywords = None if call is None else [kw.arg for kw in call.keywords]
                uses.append((where, names, keywords))
    return uses


def test_bench_names_resolve_in_dessinlink():
    uses = bench_uses()
    assert any(names == ["diagram", "state_sum_bracket"] for _, names, _ in uses)
    missing = []
    for where, names, _ in uses:
        try:
            resolve(names)
        except (AttributeError, ImportError):
            missing.append(f"{where} {'.'.join(names)}")
    assert missing == []


def test_bench_call_keywords_are_accepted():
    rejected = []
    for where, names, keywords in bench_uses():
        if not keywords or None in keywords:  # no keywords, or a **mapping
            continue
        params = inspect.signature(resolve(names)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        rejected += [f"{where} {'.'.join(names)}({kw}=)" for kw in keywords if kw not in params]
    assert rejected == []


def span_names():
    """Span names the benchmark reads as strings: the string arguments of
    `ms`, `count` and `_time_per_input` in run.py, `DIRECT_SCAN[0]`, and
    the keys of the tracer's COUNTERS."""
    names = []
    for node in ast.walk(ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
            "ms", "count", "_time_per_input"
        ):
            names += [a.value for a in node.args if isinstance(a, ast.Constant)]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DIRECT_SCAN" for t in node.targets
        ):
            names.append(node.value.elts[0].value)
    for node in ast.walk(ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "COUNTERS"
        ):
            names += [key.value for key in node.value.keys]
    return names


def test_bench_span_names_are_public_functions():
    names = span_names()
    assert {"diagram.smooth_state", "diagram.reduce_to_one_vertex"} <= set(names)
    unknown = []
    for name in names:
        layer, _, func = name.partition(".")
        if layer not in MODULES:
            unknown.append(name)
            continue
        if not func:  # "chord." is a layer prefix
            continue
        module = importlib.import_module("dessinlink." + layer)
        obj = LaurentPoly.to_string if name == "poly.to_string" else getattr(module, func, None)
        if (
            func.startswith("_")
            or not inspect.isfunction(obj)
            or obj.__module__ != module.__name__
            or obj.__name__ != func
        ):
            unknown.append(name)
    assert unknown == []


def test_state_sum_bracket_takes_workers():
    pd = diagram.parse_pd(TREFOIL)
    assert diagram.state_sum_bracket(pd, workers=2) == diagram.state_sum_bracket(pd)
