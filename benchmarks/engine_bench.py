"""Engine throughput meter: events/sec on the pinned acceptance workloads.

Two workloads, each run on the default path (macro-event batching core
wired, as on every machine) and on the per-event fallback (the same
machine with ``protocol.batch_advancer = None``):

* **fig3** — 32 processors fighting over one hardware exclusive lock
  (the paper's Figure 3 point with the most ring traffic; >90 % of
  events are hardware ``get_subpage`` retries, the chain shape the
  batching core coalesces).
* **fig4** — 16 processors in a counter barrier (Figure 4's most
  contended algorithm: lock traffic plus spin-wait phases).

Measured by the engine's own ``Engine.stats`` counter.  Usable as::

    python benchmarks/engine_bench.py                  # print the numbers
    python benchmarks/engine_bench.py --out bench.json # also write JSON
    python benchmarks/engine_bench.py --check          # exit 1 if the default
                                                       # path does not pay on fig3

The JSON entry shape matches the committed ``BENCH_engine.json`` history
file at the repository root, so a new measurement can be appended
verbatim.  Both paths must fire the same number of events (byte-identity
is the batching contract); ``--check`` also enforces that.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.machine.api import SharedMemory
from repro.machine.config import MachineConfig, TimerConfig
from repro.machine.ksr import KsrMachine
from repro.sim.process import LocalOps
from repro.sync.barriers import make_barrier
from repro.sync.locks import HardwareExclusiveLock, LockWorkloadParams, run_lock_workload

#: The measured workloads, stated once so the history stays comparable.
WORKLOAD = "fig3 hardware-lock workload: 32 procs, 30 ops/proc, seed 303"
WORKLOAD_FIG4 = "fig4 counter-barrier workload: 16 procs, 40 reps, seed 404"

#: Matches the inter-episode compute of ``experiments.barriers``.
_INTER_EPISODE_OPS = 20


def _machine(config: MachineConfig, per_event: bool) -> KsrMachine:
    """A machine on the default path, or detached onto the fallback."""
    machine = KsrMachine(config)
    if per_event:
        machine.protocol.batch_advancer = None
    return machine


def _record(machine: KsrMachine, workload: str, per_event: bool) -> dict:
    stats = machine.engine.stats
    return {
        "workload": workload,
        "path": "per-event" if per_event else "default",
        "events": stats.events_fired,
        "batched_events": stats.batched_events,
        "wall_seconds": round(stats.wall_seconds, 4),
        "events_per_sec": round(stats.events_per_sec),
    }


def measure(
    n_procs: int = 32, ops: int = 30, seed: int = 303, *, per_event: bool = False
) -> dict:
    """Run the fig3 lock workload once; return engine throughput stats."""
    machine = _machine(MachineConfig.ksr1(n_cells=n_procs, seed=seed), per_event)
    mem = SharedMemory(machine)
    lock = HardwareExclusiveLock(mem)
    params = LockWorkloadParams(ops_per_processor=ops, read_fraction=0.0, seed=seed)
    run_lock_workload(machine, lock, params, n_threads=n_procs)
    return _record(machine, WORKLOAD, per_event)


def measure_fig4(
    n_procs: int = 16, reps: int = 40, seed: int = 404, *, per_event: bool = False
) -> dict:
    """Run the fig4 counter-barrier workload once; return engine stats.

    Mirrors ``experiments.barriers.measure_barrier`` (timer off, same
    inter-episode compute) so the event population is the one the
    figure-4 sweep generates.
    """
    machine = _machine(
        MachineConfig.ksr1(n_cells=n_procs, seed=seed, timer=TimerConfig(enabled=False)),
        per_event,
    )
    mem = SharedMemory(machine)
    barrier = make_barrier("counter", mem, n_procs)

    def body(pid: int):
        for episode in range(reps):
            yield LocalOps(_INTER_EPISODE_OPS)
            yield from barrier.wait(pid, episode)

    for i in range(n_procs):
        machine.spawn(f"bar-{i}", body(i), i)
    machine.run()
    return _record(machine, WORKLOAD_FIG4, per_event)


def run_all() -> list[dict]:
    """All four pinned measurements: both workloads on both paths."""
    return [
        measure(),
        measure(per_event=True),
        measure_fig4(),
        measure_fig4(per_event=True),
    ]


def check(entries: list[dict]) -> list[str]:
    """Regression guards: the default path must fire exactly the
    fallback's events, and must be faster than it on fig3."""
    problems: list[str] = []
    by_key = {(e["workload"], e["path"]): e for e in entries}
    for workload in (WORKLOAD, WORKLOAD_FIG4):
        ref, fast = by_key.get((workload, "per-event")), by_key.get((workload, "default"))
        if ref is None or fast is None:
            continue
        if fast["events"] != ref["events"]:
            problems.append(
                f"{workload}: the default path changed the event count "
                f"({ref['events']} -> {fast['events']}) — identity broken"
            )
    ref, fast = by_key.get((WORKLOAD, "per-event")), by_key.get((WORKLOAD, "default"))
    if ref and fast and fast["events_per_sec"] <= ref["events_per_sec"]:
        problems.append(
            f"fig3: the default path is not faster than the per-event fallback "
            f"({fast['events_per_sec']} <= {ref['events_per_sec']} ev/s)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="FILE", help="write the measurements as JSON")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if the default path loses events or fig3 throughput",
    )
    args = parser.parse_args(argv)
    entries = run_all()
    for record in entries:
        print(
            f"[{record['path']:>9}] {record['events']} events "
            f"({record['batched_events']} batched) in {record['wall_seconds']:.2f}s "
            f"= {record['events_per_sec']} events/sec  ({record['workload']})"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"entries": entries}, fh, indent=2)
            fh.write("\n")
        print(f"written to {args.out}")
    if args.check:
        problems = check(entries)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("checks passed: identical event counts, fig3 default path pays")
    return 0


if __name__ == "__main__":
    sys.exit(main())
