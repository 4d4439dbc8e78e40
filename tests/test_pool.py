"""The fork pool shared by the state sum and the (e, f) profile scan."""

import json
import multiprocessing
import os
import random
import signal
import time
from contextlib import contextmanager

import pytest

from dessinlink import _pool, dessin
from dessinlink.chord import ChordDiagram, to_dessin
from dessinlink.cli import EXIT_INTERNAL, run_cli
from dessinlink.dessin import build_dessin, dual
from dessinlink.diagram import pd_to_text, pretzel_pd, state_sum_bracket, twist_pd
from dessinlink.errors import InternalError

from helpers import braid_pd, scan_profile


def chord_dessin(rng, m):
    word = list(range(m)) * 2
    rng.shuffle(word)
    return to_dessin(ChordDiagram(word))


def test_pooled_profile_is_the_scan_tally(pools):
    dessins = [
        build_dessin(pd, 0)
        for pd in (braid_pd([1, -2] * 8, 3), twist_pd(12, 4), pretzel_pd([5, -7, 6]))
    ]
    dessins += [dual(dessins[0]), chord_dessin(random.Random(16), 16)]
    assert [d.n_edges for d in dessins] == [16, 16, 18, 16, 16]
    for d in dessins:
        assert dessin._profile_scan(d) == scan_profile(d)
    assert pools == [2] * len(dessins)


def test_profile_forks_from_2_to_the_16_subsets(pools):
    assert _pool._POOL_MIN_STATES == 1 << 16
    rng = random.Random(15)
    dessin._profile_scan(chord_dessin(rng, 15))
    assert pools == []
    dessin._profile_scan(chord_dessin(rng, 16))
    assert pools == [2]


def test_state_sum_forks_one_worker_per_cpu_unless_bounded(pools):
    pd = twist_pd(12, 4)
    assert pd.n == 16
    bracket = state_sum_bracket(pd)
    assert pools == [2]
    assert state_sum_bracket(pd, workers=1) == bracket
    assert pools == [2]


def test_one_cpu_affinity_forks_neither_enumeration(pools, monkeypatch):
    # the pool counts the CPUs this process may run on, not the machine's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pd = twist_pd(12, 4)
    state_sum_bracket(pd)
    state_sum_bracket(pd, workers=2)
    dessin._profile_scan(build_dessin(pd, 0))
    assert pools == []


def test_without_fork_both_enumerations_run_in_process(pools, monkeypatch):
    pd = twist_pd(12, 4)
    d = build_dessin(pd, 0)
    bracket, profile = state_sum_bracket(pd), dessin._profile_scan(d)
    assert pools == [2, 2]
    dessin._profile_scan.cache_clear()
    monkeypatch.delattr(os, "fork")
    assert state_sum_bracket(pd) == bracket
    assert dessin._profile_scan(d) == profile
    assert pools == [2, 2]


def test_a_daemonic_process_forks_its_own_workers(pools):
    # only multiprocessing forbade a daemon to have children; os.fork does not
    pd = twist_pd(12, 4)
    d = build_dessin(pd, 0)
    bracket, profile = state_sum_bracket(pd), dessin._profile_scan(d)
    assert pools == [2, 2]
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def daemon():
        dessin._profile_scan.cache_clear()
        send.send((state_sum_bracket(pd), dessin._profile_scan(d), pools))

    process = context.Process(target=daemon, daemon=True)
    process.start()
    try:
        assert receive.poll(60)
        assert receive.recv() == (bracket, profile, [2, 2, 2, 2])
    finally:
        process.join(60)
    assert process.exitcode == 0


# Test kernels: each tallies its range [lo, hi) under the key 0, after
# whatever head the caller passes.
def count_range(*args):
    lo, hi = args[-2:]
    return {0: hi - lo}


def exit_in_second_range(*args):
    if args[-2]:
        os._exit(3)
    return count_range(*args)


def raise_in_second_range(*args):
    lo, hi = args[-2:]
    if lo:
        raise InternalError(f"no tally for [{lo}, {hi})")
    return count_range(*args)


def sleep_then_count(*args):
    time.sleep(30)
    return count_range(*args)


SUBSETS = 1 << 16
DIED = "the pool worker for [32768, 65536) exited with status 3 without sending its tally"
RAISED = "no tally for [32768, 65536)"
FAILURES = [(exit_in_second_range, DIED), (raise_in_second_range, RAISED)]


@contextmanager
def deadline(seconds):
    """Raise TimeoutError here if the block is still running after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_call_reaps_its_workers(pools):
    with deadline(20):
        assert _pool.pooled_tally(count_range, (), SUBSETS) == {0: SUBSETS}
    assert pools == [2]
    assert_no_child_left()


@pytest.mark.parametrize("kernel, message", FAILURES, ids=["exit", "raise"])
def test_a_failed_worker_fails_the_call(pools, kernel, message):
    with deadline(20), pytest.raises(InternalError) as failure:
        _pool.pooled_tally(kernel, ("head",), SUBSETS)
    assert type(failure.value) is InternalError
    assert str(failure.value) == message
    assert pools == [2]
    assert_no_child_left()


def test_parent_interrupted_while_waiting_kills_and_reaps_its_workers(pools, monkeypatch):
    def interrupted(read):
        raise KeyboardInterrupt

    monkeypatch.setattr(_pool, "_read_reply", interrupted)
    with deadline(20), pytest.raises(KeyboardInterrupt):
        _pool.pooled_tally(sleep_then_count, (), SUBSETS)
    assert pools == [2]
    assert_no_child_left()


@pytest.mark.parametrize("kernel, message", FAILURES, ids=["exit", "raise"])
def test_cli_exits_1_when_a_scan_worker_fails(pools, monkeypatch, capsys, kernel, message):
    monkeypatch.setattr(dessin, "_profile_range", kernel)
    pd = pd_to_text(braid_pd([1, -2] * 8, 3))
    with deadline(20):
        assert run_cli(["det", "--pd", pd]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"kind": "internal", "message": message}
    assert pools == [2]
    assert_no_child_left()
