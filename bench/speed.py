"""Machine-speed probes for the benchmark's time metrics.

On a shared machine the speed of a core drifts by tens of percent over
seconds, and CPU time drifts with wall time, so a slow stretch makes the
same work read slower.  While it runs ops the benchmark times a fixed
reference task every 0.1 s, and scales each op's wall time by

    reference time / (mean time of the samples during and next to the op)

so that times read as at one reference speed.  A program change moves the
op times and not the reference task, so it still shows in full; drift of
the machine moves both and cancels.  Raw wall times are kept beside the
scaled ones in the run records.

Two reference tasks, each shaped like the work it scales:

- `kernel`, in process: the union-find, bit and list work of a subset scan
  on a small fixed ribbon graph, in the benchmark's own code.  It scales
  library ops; a timer signal samples it inside long ops too.
- `python -c pass` in a fresh interpreter.  It scales whole processes:
  CLI requests, `--version` and the set-up probes.

The reference times are the tasks' typical times on the 2-core machine
the benchmark was defined on.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

KERNEL_REFERENCE_S = 0.0005
STARTUP_REFERENCE_S = 0.05


# A fixed 10-edge ribbon graph with 3 vertices: rotations of half-edges 0..19.
_ROTATIONS = ((7, 17, 2, 12, 5, 0, 15), (9, 3, 18, 11, 4, 14), (1, 19, 8, 6, 16, 10, 13))
_VERTEX_OF = [0] * 20
for _v, _rot in enumerate(_ROTATIONS):
    for _h in _rot:
        _VERTEX_OF[_h] = _v


def kernel() -> int:
    """Components and faces of every 14th edge subset of the fixed graph:
    the union-find, bit and list work of a subset scan, in the
    benchmark's own code so that no program change alters it."""
    nxt = [0] * 20
    stamp = [0] * 20
    total = 0
    for mask in range(0, 1 << 10, 14):
        parent = [0, 1, 2]
        m = mask
        while m:
            low = m & -m
            m ^= low
            half = 2 * (low.bit_length() - 1)
            a, b = _VERTEX_OF[half], _VERTEX_OF[half + 1]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
        faces = 0
        for rot in _ROTATIONS:
            first = prev = -1
            for h in rot:
                if (mask >> (h >> 1)) & 1:
                    if prev < 0:
                        first = h
                    else:
                        nxt[prev] = h
                    prev = h
            if prev >= 0:
                nxt[prev] = first
            else:
                faces += 1
        for rot in _ROTATIONS:
            for h0 in rot:
                if not (mask >> (h0 >> 1)) & 1 or stamp[h0] == mask + 1:
                    continue
                faces += 1
                h = h0
                while stamp[h] != mask + 1:
                    stamp[h] = mask + 1
                    h = nxt[h ^ 1]
        total += faces + sum(1 for i in range(3) if parent[i] == i)
    return total


def interpreter_start(env: Optional[Dict[str, str]] = None) -> Callable[[], None]:
    def start() -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)

    return start


class SpeedProbe:
    """Timed samples of one reference task."""

    def __init__(self, task: Callable[[], object], reference_s: float,
                 every_s: float, repeats: int):
        self.task = task
        self.reference_s = reference_s
        self.every_s = every_s  # sampling interval
        self.repeats = repeats  # a sample is the fastest of this many runs
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.seconds: List[float] = []

    @classmethod
    def in_process(cls) -> "SpeedProbe":
        return cls(kernel, KERNEL_REFERENCE_S, every_s=0.1, repeats=2)

    @classmethod
    def processes(cls, env: Optional[Dict[str, str]] = None) -> "SpeedProbe":
        return cls(interpreter_start(env), STARTUP_REFERENCE_S, every_s=0.1, repeats=1)

    def sample(self) -> None:
        begin = perf_counter()
        best = float("inf")
        for _ in range(self.repeats):
            start = perf_counter()
            self.task()
            best = min(best, perf_counter() - start)
        self.starts.append(begin)
        self.ends.append(perf_counter())
        self.seconds.append(best)

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended less than every_s ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= self.every_s:
            self.sample()

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every every_s seconds of wall time, also inside long ops.

        A SIGALRM timer runs `sample` in the main thread between bytecodes;
        `scaled` leaves the samples' own time out of the ops they
        interrupt.  Forked workers do not inherit the timer.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """No samples inside: for work that loads every core (the oracle's
        worker pool), whose load would slow the samples and not the work.
        A sample just before and just after stands for its speed."""
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()
        try:
            yield
        finally:
            self.sample()
            if interval:
                signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed of the work between start and end.

        Uses the samples taken inside the interval and the nearest one on
        each side; the time spent in samples inside is not work.
        """
        if not self.seconds:
            return end - start
        lo = max(bisect.bisect_right(self.ends, start) - 1, 0)
        hi = min(bisect.bisect_left(self.starts, end), len(self.seconds) - 1)
        inside = range(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end))
        busy = sum(self.ends[i] - self.starts[i] for i in inside)
        speed = sum(self.seconds[lo:hi + 1]) / (hi + 1 - lo)
        return (end - start - busy) * self.reference_s / speed

    def median_factor(self) -> float:
        if not self.seconds:
            return 1.0
        ordered = sorted(self.seconds)
        return self.reference_s / ordered[len(ordered) // 2]
