"""The fork pool shared by the state sum and the (e, f) profile scan."""

import multiprocessing
import os
import random

import pytest

from dessinlink import _pool, dessin
from dessinlink.chord import ChordDiagram, to_dessin
from dessinlink.dessin import build_dessin, dual
from dessinlink.diagram import pretzel_pd, state_sum_bracket, twist_pd

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


@pytest.mark.parametrize("blocked", ["no fork start method", "daemonic process"])
def test_without_fork_both_enumerations_run_in_process(pools, monkeypatch, blocked):
    pd = twist_pd(12, 4)
    d = build_dessin(pd, 0)
    bracket, profile = state_sum_bracket(pd), dessin._profile_scan(d)
    assert pools == [2, 2]
    dessin._profile_scan.cache_clear()
    if blocked == "no fork start method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:  # a pool worker, which may not have children
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert state_sum_bracket(pd) == bracket
    assert dessin._profile_scan(d) == profile
    assert pools == [2, 2]
