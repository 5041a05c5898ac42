#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json``: pinned outputs and work counters.

Run from the repository root, only when a change is *meant* to alter
simulated outputs (the byte-identity contracts say it almost never is)::

    python3 perfbench/pin_digests.py

For every in-process workload and every seed in ``PINNED_SEEDS`` it
runs the traced pass and records each unit's value digest and the
deterministic work counters.  Benchmark runs at a pinned seed count
any difference as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Seeds whose outputs are pinned; 1 is the benchmark's default seed.
PINNED_SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, SRC)
    import inproc

    pins: dict[str, dict[str, dict]] = {}
    for workload in inproc.WORKLOADS:
        for seed in PINNED_SEEDS:
            trace = inproc.trace_run(workload, seed, SRC)["trace"]
            pins.setdefault(workload, {})[str(seed)] = {
                "values": trace["digests"], "counters": trace["counters"],
            }
            print(f"{workload} seed {seed}: {trace['digests']}")
    with open(inproc.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
