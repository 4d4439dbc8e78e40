"""Session fixtures shared across test modules."""

import pytest

import helpers
from dessinlink import dessin, diagram
from helpers import corpus


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the program's memo caches before each test, so a test that
    patches a smoothing or a route never reads another test's entry."""
    diagram._planar_map.cache_clear()
    dessin._dessin_of.cache_clear()
    dessin._profile_scan.cache_clear()


@pytest.fixture(scope="session")
def corpus200():
    """200 distinct connected diagrams with at most 10 crossings, fixed seed."""
    return corpus(seed=2026, count=200, max_crossings=10)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if helpers.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
