"""Session fixtures shared across test modules."""

import multiprocessing.pool
import os

import pytest

import helpers
from dessinlink import dessin, invariants
from helpers import corpus


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the program's memo caches, the bracket's contraction among
    them, before each test, so a test that patches a smoothing or a route
    never reads another test's entry."""
    dessin._dessin_of.cache_clear()
    dessin._profile_scan.cache_clear()
    invariants._contraction_order.cache_clear()
    invariants._contract.cache_clear()


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool run from now on.  The pool's CPU
    count reads two, so a large enough scan forks on any machine."""
    real = multiprocessing.pool.Pool.starmap
    sizes = []

    def counting(self, func, iterable, chunksize=None):
        args = list(iterable)
        sizes.append(len(args))
        return real(self, func, args, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "starmap", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return sizes


@pytest.fixture(scope="session")
def corpus200():
    """200 distinct connected diagrams with at most 10 crossings, fixed seed."""
    return corpus(seed=2026, count=200, max_crossings=10)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
