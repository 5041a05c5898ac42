"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the reproduced rows (compare them against the published values
collected in ``repro.experiments.base.PAPER_ANCHORS`` and the
discussion in EXPERIMENTS.md).

Run with::

    pytest benchmarks/ --benchmark-only

Pass ``--paper-size`` to regenerate the kernel tables at the paper's
full problem sizes (slower), and ``--jobs N`` to fan independent sweep
points across worker processes (the reproduced numbers are identical;
only the wall time changes).  The on-disk result cache is *disabled*
here by default — a benchmark served from ``.ksr-cache/`` would time
the cache, not the simulator — pass ``--use-cache`` to opt in when you
only care about the printed tables.
"""

from __future__ import annotations

import pytest

from repro.experiments.sweep import SweepRunner
from repro.service.cache2 import ShardedResultCache


def pytest_addoption(parser):
    parser.addoption(
        "--paper-size",
        action="store_true",
        default=False,
        help="run kernel benchmarks at the paper's full problem sizes",
    )
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep-style benchmarks (same numbers, less wall time)",
    )
    parser.addoption(
        "--use-cache",
        action="store_true",
        default=False,
        help="serve sweep points from .ksr-cache/ (times the cache, not the simulator)",
    )


@pytest.fixture(scope="session")
def paper_size(request) -> bool:
    """Whether to use full problem sizes."""
    return request.config.getoption("--paper-size")


@pytest.fixture(scope="session")
def sweep_runner(request) -> SweepRunner:
    """Sweep runner honouring ``--jobs`` / ``--use-cache``."""
    cache = ShardedResultCache.default() if request.config.getoption("--use-cache") else None
    return SweepRunner(jobs=request.config.getoption("--jobs"), cache=cache)


@pytest.fixture
def show(capsys):
    """Print a rendered experiment table outside captured output."""

    def _show(result):
        with capsys.disabled():
            print()
            print(result.render())

    return _show
