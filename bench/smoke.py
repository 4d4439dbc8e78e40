"""Smoke run of the benchmark, about 30 seconds on two cores.

    python3 bench/smoke.py

Run from the root of the checkout.  It asserts that

- every workload in BENCHMARK.json prints, untraced, exactly the
  end-to-end metrics and, traced, exactly the per-layer metrics listed
  there, with their units, every value a positive number, and no failed op;
- the scan metrics do not depend on `determinant` calling
  `quasi_tree_counts`: with its quasitree route taken off the scan, a
  traced run still reports a positive `dessin.scan_ms` and
  `invariants.det_scan_ratio`;
- a planted wrong answer is caught: a determinant off by one in the
  library, and a CLI payload altered after the process printed it, each
  make the run report failed ops and correct=false;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Runs are one second long; the `large` round is shrunk to 9-10 crossing
diagrams so that it takes seconds too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import cliload  # noqa: E402  (needs src/ on the path)
import inputs  # noqa: E402
import run  # noqa: E402
from dessinlink import invariants  # noqa: E402

SMALL_LARGE_ROUND = (("braid", 9, 3), ("twist", 9, 1), ("pretzel", 10, 4))


def bench_main(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench_main(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(want)}"
            for name, m in result["metrics"].items():
                value = m["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0, (
                    f"{workload} trace={trace}: {name} = {value!r}")
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, (
                f"{workload} trace={trace}: {result['failed']} of {result['attempted']} ops failed")
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, {result['attempted']} ops")


def check_scan_metrics_without_inner_scan() -> None:
    real = invariants._det_quasitree
    invariants._det_quasitree = invariants._det_jones_eval  # determinant makes no quasi_tree_counts call
    try:
        result = bench_main("corpus", 1)
    finally:
        invariants._det_quasitree = real
    for name in ("dessin.scan_ms", "invariants.det_scan_ratio"):
        assert result["metrics"][name]["value"] > 0, f"{name} without an inner scan: {result['metrics'][name]}"
    print("ok   scan metrics stand without a quasi_tree_counts call inside determinant: det_scan_ratio "
          f"{result['metrics']['invariants.det_scan_ratio']['value']:.3f}")


def check_planted_library_fault() -> None:
    real = invariants.determinant
    calls = []

    def off_by_one(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(1)
        return dataclasses.replace(report, value=report.value + 1) if len(calls) == 1 else report

    invariants.determinant = off_by_one
    try:
        result = bench_main("corpus", 0)
    finally:
        invariants.determinant = real
    assert not result["correct"] and result["failed"] >= 1, f"wrong determinant not caught: {result}"
    print(f"ok   planted wrong determinant caught: {result['failed']} of {result['attempted']} ops failed")


def check_planted_cli_fault() -> None:
    real = cliload.CliRunner.request
    planted = []

    def altered(self, index, req, cache, spans=None):
        rec = real(self, index, req, cache, spans)
        if req.command == "det" and not planted and rec.returncode == 0:
            payload = json.loads(rec.stdout)
            payload["value"] += 1
            rec.stdout = json.dumps(payload)
            planted.append(rec)
        return rec

    cliload.CliRunner.request = altered
    try:
        result = bench_main("cli", 0)
    finally:
        cliload.CliRunner.request = real
    assert planted and not result["correct"] and result["failed"] >= 1, f"wrong CLI payload not caught: {result}"
    print(f"ok   planted wrong CLI payload caught: {result['failed']} of {result['attempted']} ops failed")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        argv = list(spec["command"]) + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                        "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program"
    assert '"correct"' not in proc.stdout, f"benchmark printed a result without the program: {proc.stdout}"
    print(f"ok   without src/ the benchmark exits {proc.returncode}: {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs.LARGE_ROUND = SMALL_LARGE_ROUND
    check_emitted(spec)
    check_scan_metrics_without_inner_scan()
    check_planted_library_fault()
    check_planted_cli_fault()
    check_bare_directory(spec)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
