"""Session fixtures shared across test modules."""

import os

import pytest

import helpers
from dessinlink import _pool, dessin, invariants
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
    """The worker count of each forking pool call run from now on.  The
    pool's CPU count reads two, so a large enough scan forks on any
    machine."""
    real = _pool._forked_tallies
    sizes = []

    def counting(kernel, head, bounds):
        sizes.append(len(bounds) - 1)
        return real(kernel, head, bounds)

    monkeypatch.setattr(_pool, "_forked_tallies", counting)
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
