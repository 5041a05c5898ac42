"""Host reference loop, host fingerprint and interpreter start-up probe.

The reference loop is a fixed amount of work that no change to the
program can move: it imports nothing from ``repro``.  Running it
between the timed units of a workload, in the same process, measures
how fast the host is *right now*; dividing a unit's wall time by it
cancels most of the drift a shared virtual machine shows over tens of
seconds.  Its mix follows the program's hot paths: heap, dict and
generator work in pure Python (the event engine and cell models) plus
a NumPy stable ``argsort`` (the analytic cache model).

A *reference-speed* time is a wall time rescaled to a host on which
one loop takes ``NOMINAL_LOOP_S``, by the run's median loop time.
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

__all__ = ["HostReference", "fingerprint", "import_seconds"]

#: Pure-Python operations per loop; sized so one loop takes ~0.1 s on
#: a 2-core Xeon KVM guest.
_PY_OPS = 22_000
#: Length of the integer array sorted by the NumPy part of the loop.
_SORT_LEN = 250_000
#: Loops per bracket.
BRACKET_LOOPS = 3
#: Reference-speed times are wall times rescaled to a host on which one
#: reference loop takes this long.
NOMINAL_LOOP_S = 0.1


def _pairs(n: int):
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield x, i


class HostReference:
    """The reference loop, with every timing it has taken."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(7).integers(0, 4096, size=_SORT_LEN)
        self.samples: list[float] = []
        self.brackets: list[float] = []
        # The first loop of a process runs slow (bytecode not yet
        # specialised, fresh memory): keep it out of the samples.
        self._loop()

    def run(self) -> float:
        """Run the loop once; record and return its wall seconds."""
        elapsed = self._loop()
        self.samples.append(elapsed)
        return elapsed

    def _loop(self) -> float:
        start = time.perf_counter()
        heap: list[tuple[int, int]] = []
        table: dict[int, int] = {}
        for key, i in _pairs(_PY_OPS):
            heapq.heappush(heap, (key, i))
            table[key & 0xFFF] = table.get(key & 0xFFF, 0) + i
        acc = sum(heapq.heappop(heap)[1] for _ in range(len(heap)))
        order = np.argsort(self._keys, kind="stable")
        elapsed = time.perf_counter() - start
        if acc + len(table) + int(order[0]) < 0:  # consume every result
            raise AssertionError("unreachable")
        return elapsed

    def bracket(self) -> None:
        """Run the loop ``BRACKET_LOOPS`` times back to back; record the total.

        Brackets go between the timed units: several short loops sample
        the host's speed over a longer window than one would.
        """
        self.brackets.append(sum(self.run() for _ in range(BRACKET_LOOPS)))

    def reference_speed(self, wall_s: float) -> float:
        """``wall_s`` rescaled to a host whose loop takes ``NOMINAL_LOOP_S``."""
        return wall_s * NOMINAL_LOOP_S / statistics.median(self.samples)

    def median_ms(self) -> float:
        """Median loop time so far, milliseconds."""
        return statistics.median(self.samples) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict[str, object]:
    """CPU model, core count, Python and NumPy versions."""
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def import_seconds(modules: list[str], pythonpath: str, repeats: int = 3) -> float:
    """Median wall seconds for a fresh interpreter to import ``modules``.

    Covers interpreter start-up and imports: the part of a run's set-up
    that can be repeated cheaply, so it is measured ``repeats`` times.
    """
    env = dict(os.environ, PYTHONPATH=pythonpath)
    code = "import " + ", ".join(modules)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)
