"""The fork pool shared by the package's two 2^n enumerations.

`diagram.state_sum_bracket` walks 2^n states and `dessin._profile_scan`
2^e edge subsets, and each imports this module when it runs, so a process
that never enumerates never loads it.  Each tallies a kernel over
contiguous index ranges, and `pooled_tally` alone decides whether those
ranges run in forked workers or in one call in this process, and how
many workers it forks.  A worker is a bare `os.fork` child: it runs its
range on the memory it inherited, so nothing is pickled on the way in,
sends its pickled tally back over a pipe and leaves with `os._exit`.
The parent does no work of its own while the workers run; it only waits
for them.
"""

import os
from typing import Callable, Dict, Hashable, List, NoReturn, Optional, Sequence

from .errors import InternalError

Tally = Dict[Hashable, int]

# Fewest states (or subsets) for which `pooled_tally` forks.  An empty
# 2-worker call takes 2.3-3.4 ms (medians of 20 calls, 2-core x86-64).
# Serial against 2 workers, medians on that machine: the subset scan at 12
# edges 14-18 vs 11-13 ms, 13 edges 25-26 vs 21-25 ms, 14 edges 52-79 vs
# 42-48 ms, 16 edges 234-258 vs 141-180 ms; the state sum at 12 crossings
# 2.2-2.6 vs 4.8-5.1 ms, 14 crossings 11-14 vs 11-18 ms, 16 crossings
# 34-40 vs 24-35 ms.  So the scan breaks even near 2^12 and the state sum
# near 2^15, yet both stay in-process below 2^16: such a call takes under
# about 0.2 s, and a lower threshold would fork inside the 6-13-crossing
# scans of a tabulation session (the benchmark's `corpus`), add the
# copy-on-write faults on the work that follows, and put those ops under
# the benchmark's speed probe, which pauses only around the ops it lists
# in `bench/library.py` `POOL_OPS`.
_POOL_MIN_STATES = 1 << 16


def pooled_tally(
    kernel: Callable[..., Tally], head: tuple, total: int, workers: Optional[int] = None,
) -> Tally:
    """The tally kernel(*head, 0, total), summed over contiguous ranges.

    From total >= _POOL_MIN_STATES on, [0, total) is split into one range
    per CPU this process may run on (its affinity set where the platform
    has one), at most `workers` when given, each run by a child forked for
    this call, and their tallies are added up.  No child outlives the
    call.  A kernel exception raised in a child is raised here; a child
    that dies without sending its tally is an `InternalError`.  With one
    CPU, or where the platform has no `os.fork`, the kernel runs in one
    call in this process instead.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    if total < _POOL_MIN_STATES or workers < 2 or not hasattr(os, "fork"):
        return kernel(*head, 0, total)
    tally: Tally = {}
    for part in _forked_tallies(kernel, head, [total * i // workers for i in range(workers + 1)]):
        for key, mult in part.items():
            tally[key] = tally.get(key, 0) + mult
    return tally


def _forked_tallies(kernel: Callable[..., Tally], head: tuple, bounds: Sequence[int]) -> List[Tally]:
    """kernel(*head, lo, hi) for each range [lo, hi) between consecutive
    bounds, in range order, each run in a child forked for it.  Every pipe
    is read to EOF before any child is reaped, and every child is reaped
    before this returns or raises: one still running when the parent
    leaves early is killed first."""
    import pickle  # here, not at the top: most processes never fork
    import signal

    ranges = list(zip(bounds, bounds[1:]))
    pids: List[int] = []
    reads: List[int] = []
    statuses: List[int] = []
    try:
        for lo, hi in ranges:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write, kernel, (*head, lo, hi))
            finally:
                os.close(write)
            pids.append(pid)
        replies = [_read_reply(read) for read in reads]
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        for read in reads:
            os.close(read)
        for pid in pids[len(statuses):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    tallies = []
    for (lo, hi), reply, status in zip(ranges, replies, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code or not reply:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise InternalError(f"the pool worker for [{lo}, {hi}) {how} without sending its tally")
        sent, value = pickle.loads(reply)
        if not sent:
            raise value
        tallies.append(value)
    return tallies


def _work(write: int, kernel: Callable[..., Tally], args: tuple) -> NoReturn:
    """A forked child's whole life: write (True, tally) or (False, the
    exception the kernel raised) to the pipe, pickled, and exit 0; exit 1
    if that fails.  `os._exit` keeps the child out of the parent's stack,
    its buffered output and its exit handlers."""
    import pickle

    status = 1
    try:
        try:
            reply = (True, kernel(*args))
        except Exception as exc:
            reply = (False, exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _read_reply(read: int) -> bytes:
    """All that a worker wrote to its pipe, up to EOF."""
    with open(read, "rb", closefd=False) as pipe:
        return pipe.read()
