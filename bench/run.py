"""dessinlink benchmark: three workloads, one closed-loop caller.

    python3 bench/run.py --workload {corpus,large,cli} --seed N --seconds S --trace {0,1}

Run from the root of a dessinlink checkout; the program is imported from
its `src/` tree, nothing is installed.  Inputs come from the seed.  The
run processes whole rounds of inputs until S seconds have passed, checks
every output, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md).  Per-run records (inputs with their n, v, e, g and
component counts, every op, provenance) and the spans of a traced run
are written under .bench_run/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("corpus", "large", "cli")
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it
REPLAY_INPUTS = 3  # inputs of a library workload replayed through the CLI when traced


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import dessinlink and make the first round of inputs")
    return ap.parse_args(argv)


# ============================================================
# Provenance and process facts
# ============================================================


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int, nproc: int) -> Dict[str, object]:
    import dessinlink

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "dessinlink": dessinlink.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "platform": platform.platform(),
    }


def peak_rss_mb(include_self: bool) -> float:
    """Largest resident set so far, of this process and/or its waited children."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024


def setup_seconds(root: Path, workload: str, seed: int, probe) -> List[float]:
    """Times, at reference speed, of fresh interpreters that import
    dessinlink, load the bundled table and make the workload's first
    round of inputs."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        probe.sample()
        start = perf_counter()
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=120)
        seconds = perf_counter() - start
        probe.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(probe.scaled(start, start + seconds))
    return times


def setup_probe(workload: str, seed: int) -> int:
    from dessinlink import diagram

    import inputs

    diagram.knot_table()
    rounds = {"corpus": inputs.corpus_rounds, "large": inputs.large_rounds, "cli": inputs.cli_rounds}
    next(rounds[workload](seed))
    return 0


# ============================================================
# Metrics
# ============================================================


def tail(values: Sequence[float]) -> Tuple[int, float, int]:
    """(p, nearest-rank p-th percentile, samples beyond it) for the highest
    whole p with at least TAIL_BEYOND samples beyond; the maximum if
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1], n - rank


def end_to_end(durations: Sequence[float], setup: Sequence[float], rss_mb: float,
               notes: List[str]) -> Dict[str, Tuple[float, str]]:
    p, tail_s, beyond = tail(durations)
    notes.append(f"op_tail_ms is p{p} of {len(durations)} op samples ({beyond} beyond it)")
    notes.append("setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setup) + " s")
    return {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_ms": (1000 * statistics.median(durations), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# a direct scan: the quasi_tree_counts call an op makes itself, not one
# made inside another public function such as determinant
DIRECT_SCAN = ("dessin.quasi_tree_counts", "op.quasi_tree_counts")


def _time_per_input(spans: Sequence[list], name: str, parent: Optional[str] = None) -> Dict[str, float]:
    """Summed time of the spans called `name` (under a span called
    `parent`, if given) per input; op ids read "<input>:<op>"."""
    out: Dict[str, float] = {}
    for span_name, start, end, up, op, _count in spans:
        if span_name == name and (parent is None or (up >= 0 and spans[up][0] == parent)):
            key = op.partition(":")[0]
            out[key] = out.get(key, 0.0) + end - start
    return out


def det_scan_ratio(spans: Sequence[list], scan_spans: Sequence[list]) -> float:
    """Median over inputs of determinant time / direct scan time of the
    same input's all-A dessin."""
    det = _time_per_input(spans, "invariants.determinant")
    scan = _time_per_input(scan_spans, *DIRECT_SCAN)
    ratios = [det[key] / scan[key] for key in det if scan.get(key)]
    if not ratios:
        raise RuntimeError("no input has both a determinant and a direct quasi_tree_counts scan")
    return statistics.median(ratios)


def per_layer(profile, scans, det_scan: float, inputs_seen: int, scale: float, overhead: float,
              cli: Dict[str, Tuple[float, str]]) -> Dict[str, Tuple[float, str]]:
    """Self time per layer, in ms per input at reference speed (the run's
    median speed factor `scale`), plus counts per input.  The dessin.*
    scan metrics come from the direct scans in `scans`."""

    def ms(*names: str) -> Tuple[float, str]:
        return (1000 * scale * profile.self_of(names) / inputs_seen, "ms")

    def count(name: str) -> float:
        return profile.count_sum.get(name, 0) / inputs_seen

    scan_s = scans.incl_under[DIRECT_SCAN]
    subsets = scans.count_under[DIRECT_SCAN]
    metrics = {
        "diagram.parse_ms": ms("diagram.parse_pd"),
        "diagram.smooth_ms": ms("diagram.smooth_state", "diagram.state_circle_count"),
        "diagram.reduce_ms": ms("diagram.reduce_to_one_vertex"),
        "diagram.state_sum_ms": ms("diagram.state_sum_bracket"),
        "diagram.states": (count("diagram.state_sum_bracket"), "count"),
        "dessin.build_ms": ms("dessin.build_dessin"),
        "dessin.scan_ms": (1000 * scale * scan_s / inputs_seen, "ms"),
        "dessin.subsets": (subsets / inputs_seen, "count"),
        "dessin.us_per_subset": (1e6 * scale * scan_s / subsets, "us"),
        "chord.charpoly_ms": ms("chord."),
        "chord.matrix_order_max": (float(profile.count_max.get("chord.char_poly", 0)), "count"),
        "invariants.bracket_ms": ms("invariants.bracket_via_dessin"),
        "invariants.jones_ms": ms("invariants.jones_polynomial"),
        "invariants.det_ms": ms("invariants.determinant"),
        "invariants.coeffs_ms": ms("invariants.coefficient_table"),
        "invariants.det_scan_ratio": (det_scan, "ratio"),
        "poly.render_ms": ms("poly.to_string"),
        "poly.terms": (count("poly.to_string"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    metrics.update(cli)
    return metrics


def cli_layer(runner, records) -> Dict[str, Tuple[float, str]]:
    """cli.* metrics from untraced CLI records and a --version probe."""
    hits = [r.scaled for r in records if not r.traced and r.returncode == 0 and r.hit]
    misses = [r.scaled for r in records if not r.traced and r.returncode == 0 and not r.hit]
    return {
        "cli.startup_ms": (runner.startup_ms(), "ms"),
        "cli.hit_ms": (1000 * statistics.median(hits) if hits else 0.0, "ms"),
        "cli.miss_ms": (1000 * statistics.median(misses) if misses else 0.0, "ms"),
        "cli.hit_ratio": (_ratio(len(hits), len(hits) + len(misses)), "ratio"),
    }


def layer_shares(profile) -> List[str]:
    total = sum(profile.self_s.values())
    rows = sorted(profile.self_s.items(), key=lambda kv: -kv[1])
    return [f"  {name:40s} {100 * _ratio(s, total):6.2f}%  {1000 * s:12.3f} ms  {profile.calls[name]} calls"
            for name, s in rows]


# ============================================================
# Workloads
# ============================================================


def run_library_workload(root: Path, run_dir: Path, args, nproc: int, notes: List[str], record: dict):
    import cliload
    import library
    from speed import SpeedProbe
    from tracer import Profile, Tracer, dump_spans

    probe = SpeedProbe.in_process()
    tracer = Tracer() if args.trace else None
    run = library.run_library(args.workload, args.seed, args.seconds, tracer, nproc, probe)
    rss_mb = peak_rss_mb(include_self=True)
    library.check_library(run, tracer)
    outcomes = [rec.failed for rec in run.ops]
    record["inputs"] = [item.record() for item in run.items]
    record["ops"] = [vars(rec) for rec in run.ops]
    notes.append(f"inputs: {len(run.items)} diagrams, " + describe_inputs(run.items))
    plain = [rec.scaled for rec in run.ops if not rec.traced]
    notes.append(speed_note(probe, sum(rec.seconds for rec in run.ops if not rec.traced), sum(plain)))
    if not args.trace:
        setup = setup_seconds(root, args.workload, args.seed, SpeedProbe.processes())
        return outcomes, end_to_end(plain, setup, rss_mb, notes)
    runner = cliload.CliRunner(root, run_dir)
    replay, cache = cliload.replay(runner, args.workload, run.items[:REPLAY_INPUTS],
                                   [out.get("bracket") for out in run.outputs[:REPLAY_INPUTS]])
    outcomes += [rec.failed for rec in replay]
    cli = cli_layer(runner, replay)
    cli["cli.cache_bytes"] = (float(cache.stat().st_size), "bytes")
    traced = sum(rec.scaled for rec in run.ops if rec.traced)
    overhead = _ratio(traced, sum(plain))
    notes.append(f"tracing overhead: traced ops {traced:.3f} s vs untraced {sum(plain):.3f} s "
                 f"on the same diagrams (x{overhead:.4f})")
    profile = Profile()
    profile.add(tracer.spans)
    dump_spans(tracer.spans, str(run_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
    notes.append("self time by span:")
    notes += layer_shares(profile)
    return outcomes, per_layer(profile, profile, det_scan_ratio(tracer.spans, tracer.spans), len(run.items),
                               probe.median_factor(), overhead, cli)


def run_cli_workload(root: Path, run_dir: Path, args, nproc: int, notes: List[str], record: dict):
    import cliload
    from tracer import Profile, dump_spans

    runner = cliload.CliRunner(root, run_dir)
    probe = runner.probe
    run = cliload.run_cli_workload(runner, args.seed, args.seconds, bool(args.trace))
    rss_mb = peak_rss_mb(include_self=False)
    cliload.check_cli(run.records)
    outcomes = [rec.failed for rec in run.records]
    plain = [rec for rec in run.records if not rec.traced]
    items = [rec.request.item for rec in plain if rec.request.item is not None]
    record["inputs"] = [dict(rec.request.item.record() if rec.request.item else {}, argv=list(rec.request.args))
                        for rec in plain]
    record["ops"] = [{"index": r.index, "command": r.request.command, "seconds": r.seconds,
                      "scaled": r.scaled, "traced": r.traced,
                      "returncode": r.returncode, "hit": r.hit, "failed_checks": r.failed_checks}
                     for r in run.records]
    notes.append(f"inputs: {len(plain)} requests, " + describe_inputs(items))
    notes.append(f"cache: {sum(r.hit for r in plain)} hits of {len(plain)} requests, {run.cache_bytes} bytes")
    durations = [rec.scaled for rec in plain]
    notes.append(speed_note(probe, sum(rec.seconds for rec in plain), sum(durations)))
    if not args.trace:
        return outcomes, end_to_end(durations, setup_seconds(root, "cli", args.seed, probe), rss_mb, notes)
    traced = sum(rec.scaled for rec in run.records if rec.traced)
    overhead = _ratio(traced, sum(durations))
    notes.append(f"tracing overhead: traced requests {traced:.3f} s vs untraced {sum(durations):.3f} s (x{overhead:.4f})")
    cli = cli_layer(runner, run.records)
    cli["cli.cache_bytes"] = (float(run.cache_bytes), "bytes")
    profile = Profile()
    profile.add(run.spans)
    dump_spans(run.spans, str(run_dir / f"spans-cli-{args.seed}.jsonl"))
    notes.append("self time by span (inside the traced CLI processes):")
    notes += layer_shares(profile)
    scan_spans = cliload.direct_scans(run)
    scans = Profile()
    scans.add(scan_spans)
    notes.append(f"direct scans: untimed in-process quasi_tree_counts of the {scans.calls['op.quasi_tree_counts']} "
                 "traced requests that computed a determinant")
    return outcomes, per_layer(profile, scans, det_scan_ratio(run.spans, scan_spans), len(plain),
                               probe.median_factor(), overhead, cli)


def speed_note(probe, raw: float, scaled: float) -> str:
    return (f"speed: {len(probe.seconds)} probe samples, median factor {probe.median_factor():.4f}; "
            f"untraced ops {raw:.3f} s wall = {scaled:.3f} s at reference speed")


def describe_inputs(items) -> str:
    def span(attr):
        vals = [getattr(i, attr) for i in items if getattr(i, attr) is not None]
        return f"{attr} {min(vals)}-{max(vals)}" if vals else f"{attr} -"

    kinds: Dict[str, int] = {}
    for item in items:
        kinds[item.kind] = kinds.get(item.kind, 0) + 1
    return ", ".join([span("n"), span("v"), span("e"), span("g"), span("c")]) + f"; kinds {kinds}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dessinlink" / "__init__.py").is_file():
        print(f"error: no src/dessinlink under {root}; run from the root of a dessinlink checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("DESSINLINK_TABLE", None)  # always the bundled knot table
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    run_dir = root / ".bench_run"
    run_dir.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    notes: List[str] = [f"dessinlink benchmark: workload={args.workload} seed={args.seed} "
                        f"seconds={args.seconds:g} trace={args.trace}"]
    record: dict = {"provenance": provenance(root, args.seed, nproc), "args": vars(args)}
    notes.append("provenance " + json.dumps(record["provenance"], sort_keys=True))
    run_workload = run_cli_workload if args.workload == "cli" else run_library_workload
    outcomes, metrics = run_workload(root, run_dir, args, nproc, notes, record)

    failed = sum(outcomes)
    notes.append(f"fail_ratio = {failed}/{len(outcomes)} = {_ratio(failed, len(outcomes)):.6g}")
    result = {
        "correct": failed == 0 and bool(outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    out_path = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, default=str) + "\n")
    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"# {name:28s} {value:16.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
