"""The library workloads, `corpus` and `large`: one caller runs a fixed
sequence of ops per diagram through dessinlink's public functions.

Ops per diagram, in this order (the order decides which results the
program's own memo caches can share between ops):

  bracket             parse_pd + bracket_via_dessin + render in A
  jones               jones_polynomial + render (knots only: links need S[...] signs)
  determinant         determinant, every applicable route
  coefficient_table   coefficient_table
  quasi_tree_counts   build_dessin + quasi_tree_counts
  state_sum_bracket   state-sum oracle with one worker per core (large only)

Every output is checked after the timed loop; see `check_diagram`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from dessinlink import dessin, diagram, invariants, poly

import inputs
from speed import SpeedProbe
from tracer import Tracer

ORACLE_MAX_CROSSINGS = 16
# ops that run on every core; the speed probe pauses around them
POOL_OPS = ("state_sum_bracket",)


@dataclass
class OpRecord:
    input: int
    op: str
    start: float
    seconds: float  # wall time
    traced: bool
    error: Optional[str] = None
    scaled: float = 0.0  # wall time at the reference speed (see speed.py)
    failed_checks: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks)


def diagram_ops(text: str, knot: bool, oracle_workers: int) -> Tuple[Dict[str, object], List[Tuple[str, Callable[[], None]]]]:
    """The op sequence for one diagram; results land in the returned dict."""
    out: Dict[str, object] = {}

    def bracket():
        out["pd"] = pd = diagram.parse_pd(text)
        out["bracket"] = br = invariants.bracket_via_dessin(pd)
        out["bracket_text"] = br.to_string("A")

    def jones():
        out["jones"] = jr = invariants.jones_polynomial(out["pd"])
        out["jones_text"] = jr.to_string()

    def determinant():
        out["det"] = invariants.determinant(out["pd"]).value

    def coefficient_table():
        out["coeffs"] = invariants.coefficient_table(out["pd"])

    def quasi_tree_counts():
        out["s"] = dessin.quasi_tree_counts(dessin.build_dessin(out["pd"], 0))

    def state_sum_bracket():
        out["state_sum"] = diagram.state_sum_bracket(out["pd"], workers=oracle_workers)

    ops = [("bracket", bracket)]
    if knot:
        ops.append(("jones", jones))
    ops += [
        ("determinant", determinant),
        ("coefficient_table", coefficient_table),
        ("quasi_tree_counts", quasi_tree_counts),
    ]
    if oracle_workers:
        ops.append(("state_sum_bracket", state_sum_bracket))
    return out, ops


def run_ops(index: int, ops, traced: bool, tracer: Optional[Tracer], probe: SpeedProbe) -> List[OpRecord]:
    records = []
    for name, fn in ops:
        if tracer is not None:
            tracer.op = f"{index}:{name}"
            fn = tracer.wrap("op." + name, fn)
        error = None
        with probe.paused() if name in POOL_OPS else nullcontext():
            start = perf_counter()
            try:
                fn()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter()
        records.append(OpRecord(index, name, start, end - start, traced, error))
    return records


# ============================================================
# Output checks (untimed)
# ============================================================


def value_at_a4_minus_one(p: poly.LaurentPoly) -> Optional[int]:
    """|p| at A = exp(i pi/4), where A^4 = -1; None if exponents differ mod 4."""
    terms = p.terms()
    if not terms:
        return 0
    e0 = terms[0][0]
    if any((e - e0) % 4 for e, _ in terms):
        return None
    return abs(sum(c * (-1) ** ((e - e0) // 4) for e, c in terms))


def check_diagram(item: inputs.Item, out: Dict[str, object], oracle) -> Dict[str, List[str]]:
    """Failed check names per op.

    bracket = state-sum bracket (n <= 16); |<P>(A=1)| = 2^(c-1), i.e.
    V(1) = (-2)^(c-1) up to the writhe sign; for knots V(1) = 1 exactly;
    det = |V(-1)| = |<P> at A^4 = -1|; det = |sum (-1)^j s(j)|; the
    coefficient table sums to the bracket; rendered polynomials parse back.
    """
    fails: Dict[str, List[str]] = {}

    def fail(name: str, *ops: str) -> None:
        for op in ops:
            fails.setdefault(op, []).append(name)

    br = out.get("bracket")
    if br is not None:
        if oracle is not None and oracle != br:
            fail("bracket=state_sum", "bracket", *(["state_sum_bracket"] if "state_sum" in out else []))
        if abs(sum(c for _, c in br.terms())) != 2 ** (item.c - 1):
            fail("|<P>(1)|=2^(c-1)", "bracket")
        if poly.LaurentPoly.parse(out["bracket_text"], "A") != br:
            fail("render_roundtrip", "bracket")
    det = out.get("det")
    if det is not None and br is not None and det != value_at_a4_minus_one(br):
        fail("det=|<P>(A^4=-1)|", "determinant")
    jr = out.get("jones")
    if jr is not None:
        coeffs = [(e, c) for e, c in jr.poly.terms()]
        if sum(c for _, c in coeffs) != 1:
            fail("V(1)=1", "jones")
        if det is not None and abs(sum(c * (-1) ** e for e, c in coeffs)) != det:
            fail("det=|V(-1)|", "jones", "determinant")
        if poly.LaurentPoly.parse(out["jones_text"], jr.variable) != jr.poly:
            fail("render_roundtrip", "jones")
    s = out.get("s")
    if s is not None and det is not None and abs(sum((-1) ** j * sj for j, sj in enumerate(s))) != det:
        fail("det=|sum(-1)^j s(j)|", "quasi_tree_counts", "determinant")
    tab = out.get("coeffs")
    if tab is not None and br is not None and tab.as_poly() != br:
        fail("coefficients=bracket", "coefficient_table")
    return fails


# ============================================================
# The session loop
# ============================================================


@dataclass
class LibraryRun:
    items: List[inputs.Item] = field(default_factory=list)
    ops: List[OpRecord] = field(default_factory=list)
    outputs: List[Dict[str, object]] = field(default_factory=list)
    twin_outputs: List[Dict[str, object]] = field(default_factory=list)


def run_library(workload: str, seed: int, seconds: float, tracer: Optional[Tracer], nproc: int,
                probe: SpeedProbe) -> LibraryRun:
    """Process whole rounds of inputs until `seconds` have passed.

    With a tracer, each diagram is run twice: untraced, then traced with
    its crossings listed in reverse order (same work, cold memo caches),
    so the two passes give the tracing overhead.  `probe` samples the
    machine's speed throughout; each op's `scaled` time uses it.
    """
    rounds = inputs.corpus_rounds(seed) if workload == "corpus" else inputs.large_rounds(seed)
    oracle_workers = nproc if workload == "large" else 0
    run = LibraryRun()
    probe.sample()
    with probe.sampling():
        _run_rounds(run, rounds, seconds, tracer, oracle_workers, probe)
    probe.sample()
    for rec in run.ops:
        rec.scaled = probe.scaled(rec.start, rec.start + rec.seconds)
    return run


def _run_rounds(run: LibraryRun, rounds, seconds: float, tracer: Optional[Tracer],
                oracle_workers: int, probe: SpeedProbe) -> None:
    begin = perf_counter()
    while True:
        for item in next(rounds):
            index = len(run.items)
            run.items.append(item)
            out, ops = diagram_ops(item.text, item.knot, oracle_workers)
            run.ops += run_ops(index, ops, False, None, probe)
            run.outputs.append(out)
            if tracer is not None:
                twin, ops = diagram_ops(inputs.reversed_crossings(item.text), item.knot, oracle_workers)
                tracer.install()
                try:
                    run.ops += run_ops(index, ops, True, tracer, probe)
                finally:
                    tracer.uninstall()
                run.twin_outputs.append(twin)
        if perf_counter() - begin >= seconds:
            return


def _oracle(pd, index: int, tracer: Optional[Tracer]):
    if tracer is None:
        return diagram.state_sum_bracket(pd)
    tracer.op = f"{index}:check"
    tracer.install()
    try:
        return diagram.state_sum_bracket(pd)
    finally:
        tracer.uninstall()


def check_library(run: LibraryRun, tracer: Optional[Tracer]) -> None:
    """Mark failed ops.  Where no state-sum op ran (corpus), the state-sum
    oracle runs here, once per input and traced when a tracer is given,
    so its cost shows as a layer."""
    by_input: Dict[Tuple[int, bool], Dict[str, OpRecord]] = {}
    for rec in run.ops:
        by_input.setdefault((rec.input, rec.traced), {})[rec.op] = rec
    for index, item in enumerate(run.items):
        passes = [(False, run.outputs[index])]
        if tracer is not None:
            passes.append((True, run.twin_outputs[index]))
        last = passes[-1][1]
        shared = None
        if item.n <= ORACLE_MAX_CROSSINGS and "state_sum" not in last and "pd" in last:
            shared = _oracle(last["pd"], index, tracer)
        for traced, out in passes:
            records = by_input[(index, traced)]
            for op, names in check_diagram(item, out, out.get("state_sum", shared)).items():
                records[op].failed_checks += names
            if traced and run.outputs[index].get("bracket") != out.get("bracket"):
                records["bracket"].failed_checks.append("reordered crossings change the bracket")
