"""The `cli` workload: seeded `python -m dessinlink` commands, one at a
time, sharing one `--cache` file, plus the CLI measurements that every
traced run makes (`--version` start-up and a cache miss/hit replay).

Each request's wall time runs from spawning the interpreter to its exit.
A request whose cache file did not grow was answered from the cache.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from dessinlink import chord, dessin, diagram, invariants

import inputs
from speed import SpeedProbe
from tracer import Tracer, load_spans

REQUEST_TIMEOUT_S = 120
STARTUP_PROBES = 5


@dataclass
class CliRecord:
    index: int
    request: inputs.Request
    start: float
    seconds: float  # wall time
    traced: bool
    returncode: int
    stdout: str
    stderr: str
    hit: bool
    failed_checks: List[str] = field(default_factory=list)
    scaled: float = 0.0  # wall time at the reference speed (see speed.py)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.failed_checks)


class CliRunner:
    """Runs CLI commands against the checkout's `src/` tree."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env.pop("DESSINLINK_TABLE", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.traced_entry = str(Path(__file__).resolve().parent / "traced_cli.py")
        self.probe = SpeedProbe.processes(self.env)

    def fresh_cache(self, name: str) -> Path:
        path = self.run_dir / name
        if path.exists():
            path.unlink()
        return path

    def run(self, argv: Sequence[str]) -> Tuple[float, float, subprocess.CompletedProcess]:
        """(start, wall seconds, process) of one command, speed samples around it."""
        self.probe.maybe_sample()
        start = perf_counter()
        proc = subprocess.run(
            list(argv), cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=REQUEST_TIMEOUT_S,
        )
        seconds = perf_counter() - start
        self.probe.maybe_sample()
        return start, seconds, proc

    def request(self, index: int, req: inputs.Request, cache: Path,
                spans: Optional[Path] = None) -> CliRecord:
        """One request; with `spans`, under the tracer, spans written there."""
        if spans is None:
            argv = [sys.executable, "-m", "dessinlink"]
        else:
            argv = [sys.executable, self.traced_entry, str(spans)]
        before = cache.stat().st_size if cache.exists() else 0
        start, seconds, proc = self.run(argv + list(req.args) + ["--cache", str(cache)])
        after = cache.stat().st_size if cache.exists() else 0
        return CliRecord(index, req, start, seconds, spans is not None, proc.returncode,
                         proc.stdout, proc.stderr, hit=proc.returncode == 0 and after == before,
                         scaled=self.probe.scaled(start, start + seconds))

    def startup_ms(self) -> float:
        """Median time of `python -m dessinlink --version`, at reference speed."""
        times = []
        for _ in range(STARTUP_PROBES):
            start, seconds, proc = self.run([sys.executable, "-m", "dessinlink", "--version"])
            if proc.returncode != 0:
                raise RuntimeError(f"dessinlink --version failed: {proc.stderr.strip()}")
            times.append(self.probe.scaled(start, start + seconds))
        return 1000 * statistics.median(times)


@dataclass
class CliRun:
    records: List[CliRecord] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)
    cache_bytes: int = 0


def run_cli_workload(runner: CliRunner, seed: int, seconds: float, traced: bool) -> CliRun:
    """Whole rounds of requests until `seconds` have passed.

    Traced, every request also runs a second time under the tracer,
    against a cache of its own that sees the same hits and misses.
    """
    cache = runner.fresh_cache(f"cli-cache-{seed}.jsonl")
    traced_cache = runner.fresh_cache(f"cli-cache-{seed}-traced.jsonl")
    spans_file = runner.run_dir / f"cli-spans-{seed}.jsonl"
    run = CliRun()
    rounds = inputs.cli_rounds(seed)
    begin = perf_counter()
    while True:
        for req in next(rounds):
            index = len(run.records) // (2 if traced else 1)
            run.records.append(runner.request(index, req, cache))
            if traced:
                rec = runner.request(index, req, traced_cache, spans_file)
                run.records.append(rec)
                if spans_file.exists():
                    spans = load_spans(str(spans_file))
                    spans_file.unlink()
                    base = len(run.spans)
                    for span in spans:
                        span[3] = span[3] + base if span[3] >= 0 else -1
                        span[4] = f"{index}:{req.command}"
                    run.spans += spans
        if perf_counter() - begin >= seconds:
            run.cache_bytes = cache.stat().st_size if cache.exists() else 0
            return run


def direct_scans(run: CliRun) -> List[list]:
    """Spans of an untimed in-process `quasi_tree_counts` scan, wrapped as
    the library's `op.quasi_tree_counts`, of the all-A dessin of every
    traced request that computed a determinant.  A CLI command makes no
    direct scan of its own; these give the scan metrics and the
    denominator of the determinant/scan ratio on `cli`."""
    with_det = {span[4].partition(":")[0] for span in run.spans if span[0] == "invariants.determinant"}
    tracer = Tracer()
    for rec in run.records:
        item = rec.request.item
        if not rec.traced or str(rec.index) not in with_det or item is None or item.kind == "chords":
            continue
        pd = diagram.parse_pd(item.text)
        tracer.op = f"{rec.index}:quasi_tree_counts"
        tracer.install()
        try:
            tracer.wrap("op.quasi_tree_counts", lambda: dessin.quasi_tree_counts(dessin.build_dessin(pd, 0)))()
        finally:
            tracer.uninstall()
    return tracer.spans


def replay(runner: CliRunner, name: str, items: Sequence[inputs.Item],
           expected: Sequence[object]) -> Tuple[List[CliRecord], Path]:
    """`bracket --pd` on each item twice against a fresh cache: a miss,
    then a hit.  Payloads are checked against the library's brackets.
    Returns the records and the cache file."""
    cache = runner.fresh_cache(f"replay-cache-{name}.jsonl")
    records = []
    for index, (item, want) in enumerate(zip(items, expected)):
        req = inputs.Request("bracket", ("bracket", "--pd", item.text), item)
        for _ in range(2):
            rec = runner.request(index, req, cache)
            payload = _payload(rec)
            if payload is not None and (want is None or payload["bracket"]["terms"] != _terms(want)):
                rec.failed_checks.append("payload=library bracket")
            records.append(rec)
    return records, cache


# ============================================================
# Output checks (untimed): each payload equals the library result
# ============================================================


def _terms(p) -> Dict[str, int]:
    return {str(e): c for e, c in p.terms()}


def _payload(rec: CliRecord) -> Optional[dict]:
    if rec.returncode != 0:
        return None
    try:
        payload = json.loads(rec.stdout)
    except ValueError:
        rec.failed_checks.append("stdout is not one JSON object")
        return None
    if payload.get("schema") != "dessinlink/1" or payload.get("command") != rec.request.command:
        rec.failed_checks.append("schema/command header")
    return payload


def expected_fields(req: inputs.Request) -> Dict[str, object]:
    """The payload fields the library says this request must print."""
    cmd = req.command
    if cmd == "verify":
        return {"all_pass": True}
    if cmd == "charpoly":
        cd = chord.parse_chords(req.item.text)
        s, det = chord.quasi_counts_and_det(cd)
        return {"char_poly.terms": _terms(chord.char_poly(cd)), "s": list(s), "determinant": det}
    if cmd == "twist":
        p, q = int(req.args[1]), int(req.args[2])
        pd = diagram.twist_pd(p, q)
        want = {
            "pd": diagram.pd_to_text(pd),
            "bracket.terms": _terms(invariants.bracket_via_dessin(pd)),
            "determinant": invariants.determinant(pd).value,
        }
        if len(diagram.strand_components(pd)) == 1:
            jr = invariants.jones_polynomial(pd)
            want["jones.terms"] = _terms(jr.poly)
            want["variable"] = jr.variable
        return want
    if cmd == "pretzel":
        params = [int(x) for x in req.args[1:-1]]
        pd = diagram.pretzel_pd(params)
        pos = [x for x in params if x > 0]
        neg = [-x for x in params if x < 0]
        det = invariants.determinant(pd).value
        return {"pd": diagram.pd_to_text(pd), "determinant": det,
                "closed_form": invariants.pretzel_determinant(pos, neg), "agree": True}
    pd = diagram.parse_pd(req.item.text)
    if cmd == "det":
        rep = invariants.determinant(pd)
        return {"pd": diagram.pd_to_text(pd), "value": rep.value, "methods": dict(sorted(rep.methods.items()))}
    if cmd == "jones":
        jr = invariants.jones_polynomial(pd)
        return {"pd": diagram.pd_to_text(pd), "jones.terms": _terms(jr.poly),
                "variable": jr.variable, "writhe": jr.writhe}
    if cmd == "coeffs":
        tab = invariants.coefficient_table(pd, check=False)
        return {"pd": diagram.pd_to_text(pd), "top_exponent": tab.top_exponent,
                "coeffs": list(tab.coeffs),
                "checks": {"top_closed_form": True, "matches_bracket": True}}
    raise ValueError(f"no expectation for command {cmd!r}")


def _field(payload: dict, dotted: str):
    value = payload
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return KeyError
        value = value[key]
    return value


def check_cli(records: Sequence[CliRecord]) -> None:
    """Mark each record whose payload differs from the library's result."""
    cache: Dict[Tuple[str, ...], Dict[str, object]] = {}
    for rec in records:
        payload = _payload(rec)
        if payload is None:
            continue
        key = rec.request.args
        if key not in cache:
            cache[key] = expected_fields(rec.request)
        for dotted, want in cache[key].items():
            if _field(payload, dotted) != want:
                rec.failed_checks.append(f"{dotted} != library")
        if rec.request.command == "verify" and not all(c.get("pass") for c in payload.get("checks", [])):
            rec.failed_checks.append("verify check failed")
