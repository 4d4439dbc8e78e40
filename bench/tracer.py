"""Spans around the public functions at dessinlink's module boundaries.

`Tracer.install()` replaces every public function that one dessinlink
module takes from another with a wrapper recording a span, in the
namespace of the module that calls it (for example
`dessinlink.invariants.build_dessin`), and does the same for each
module's own public functions and for `LaurentPoly.to_string`.
Private helpers (`_scan`, `_subset_profile`, `_planar_map`) are not
wrapped, so their time is part of their caller's self time.

A span is (name, start, end, parent index, op id, count); `count` is a
size computed from the arguments for the few calls listed in COUNTERS.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LAYERS = ("diagram", "dessin", "chord", "invariants", "poly", "cli")

# span name -> work size computed from the call's positional arguments
COUNTERS: Dict[str, Callable[[tuple], int]] = {
    "diagram.state_sum_bracket": lambda a: 1 << len(a[0].crossings),
    "dessin.quasi_tree_counts": lambda a: 1 << a[0].n_edges,
    "chord.char_poly": lambda a: a[0].m if hasattr(a[0], "m") else len(a[0]),
    "poly.to_string": lambda a: len(a[0]),
}


def boundary_functions() -> Iterable[Tuple[object, str, Callable, str]]:
    """(namespace, attribute, function, span name) for every wrapped call."""
    for layer in LAYERS:
        module = importlib.import_module("dessinlink." + layer)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("dessinlink.") and home in LAYERS:
                yield module, attr, obj, f"{home}.{obj.__name__}"
    poly = importlib.import_module("dessinlink.poly")
    yield poly.LaurentPoly, "to_string", poly.LaurentPoly.to_string, "poly.to_string"


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            count = counter(args) if counter else 0
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, count])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for namespace, attr, fn, name in boundary_functions():
            self._saved.append((namespace, attr, fn))
            setattr(namespace, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            namespace, attr, fn = self._saved.pop()
            setattr(namespace, attr, fn)


def dump_spans(spans: Sequence[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> List[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Profile:
    """Per-name totals over one or more span lists: self time, inclusive
    time, calls, summed and largest count."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.count_sum: Dict[str, int] = {}
        self.count_max: Dict[str, int] = {}
        # inclusive time and summed count of spans, keyed by (name, parent name)
        self.incl_under: Dict[Tuple[str, str], float] = {}
        self.count_under: Dict[Tuple[str, str], int] = {}

    def add(self, spans: Sequence[list]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _count in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _op, count) in enumerate(spans):
            dur = end - start
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count_sum[name] = self.count_sum.get(name, 0) + count
            self.count_max[name] = max(self.count_max.get(name, 0), count)
            key = (name, spans[parent][0] if parent >= 0 else "")
            self.incl_under[key] = self.incl_under.get(key, 0.0) + dur
            self.count_under[key] = self.count_under.get(key, 0) + count

    def self_of(self, prefix_or_names: Iterable[str]) -> float:
        """Summed self seconds of the named spans; a name ending in '.'
        matches every span of that layer."""
        total = 0.0
        for want in prefix_or_names:
            for name, val in self.self_s.items():
                if name == want or (want.endswith(".") and name.startswith(want)):
                    total += val
        return total
