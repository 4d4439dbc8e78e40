"""The fork pool shared by the package's two 2^n enumerations.

`diagram.state_sum_bracket` walks 2^n states and `dessin._profile_scan`
2^e edge subsets; each tallies a kernel over contiguous index ranges, and
`pooled_tally` alone decides whether those ranges run in forked workers
or in one call in this process, and how many workers it forks.
"""

import os
from typing import Callable, Dict, Hashable, Optional

# Fewest states (or subsets) for which `pooled_tally` forks.  The subset
# scan breaks even lower, near 2^13 (serial against 2 workers: 12 edges
# 36 vs 40 ms, 13 edges 84 vs 58 ms, 16 edges 627-811 vs 346-413 ms), and
# the state sum near 2^16.  But a call below 2^16 takes under about 0.5 s,
# and keeping it in-process spares it the fork, the `multiprocessing`
# import (+1.1 MB peak RSS in a process that never forked) and the
# copy-on-write faults on the work that follows.
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
