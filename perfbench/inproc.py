"""The in-process workloads: ``sim-local``, ``sim-ring``, ``kernel-model``.

Each workload is a list of *units*; a unit is one or more calls into a
public experiment measurer of ``repro.experiments``, with the default
machine configuration and no result cache.  A run alternates *cold*
passes, over a fresh round of units at new seeds, and *warm* passes,
which repeat the round before in the same process and must return
bit-identical values.  A host reference bracket runs before every unit
and once after the last one.

Why these workloads (self-time shares measured on a 2-core Xeon guest):

* ``sim-local`` — fig2's cell-local latency points at P=8.  Nearly all
  time is on the cell-local path (machine, memory, sim, coherence) and
  under 1% in the ring: a local-run fusion must show here, ring work
  must not.
* ``sim-ring`` — fig3's contended locks at P=32: the hardware exclusive
  lock and the read-write lock at 40% readers.  Ring, sim and coherence
  dominate: always-on batching must show here, and a cell-local fast
  path must not tax it.
* ``kernel-model`` — the NAS phase-model tables at ``--quick`` scale.
  The analytic cache model's reuse distances and their NumPy sort
  dominate and the event engine is not used: a tier-2 cache-model
  change must show here, engine changes must not.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import inspect
import json
import os
import pstats
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import hostref
import profattr

__all__ = ["WORKLOADS", "run", "trace_run", "DIGESTS_PATH"]

#: Pinned value digests and counters, per workload and seed.
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Unit:
    """One timed unit: calls into public experiment measurers."""

    label: str
    calls: tuple[tuple[Callable[..., Any], dict[str, Any]], ...]

    def execute(self, obs: Any = None) -> tuple[tuple[Any, ...], list[Any]]:
        """Run every call; with ``obs``, also return their captures.

        Ends with a full garbage collection, so a unit pays for the
        cyclic garbage it leaves and the next reference loop does not.
        """
        values, captures = [], []
        for func, kwargs in self.calls:
            if obs is not None and "obs" in inspect.signature(func).parameters:
                value, capture = func(**kwargs, obs=obs)
                captures.append(capture)
            else:
                value = func(**kwargs)
            values.append(value)
        gc.collect()
        return tuple(values), captures


def unit_seed(workload: str, seed: int, index: int) -> int:
    """The simulator seed of the ``index``-th unit a run makes."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31)


def digest(values: tuple[Any, ...]) -> str:
    """Digest of a unit's simulated outputs (``repr`` is exact for floats)."""
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()[:16]


def _sim_local(seed: int, rnd: int) -> list[Unit]:
    from repro.experiments.latency import measure_latencies

    return [
        Unit(f"local-{op}", ((measure_latencies, dict(
            n_procs=8, level="local", op=op, samples=400,
            seed=unit_seed("sim-local", seed, 2 * rnd + i),
        )),))
        for i, op in enumerate(("read", "write"))
    ]


def _sim_ring(seed: int, rnd: int) -> list[Unit]:
    from repro.experiments.locks import measure_lock

    points = (("hardware", 0.0), ("rw", 0.4))
    return [
        Unit(f"{kind}-{int(share * 100)}", ((measure_lock, dict(
            kind=kind, n_procs=32, read_fraction=share, ops=30,
            seed=unit_seed("sim-ring", seed, 2 * rnd + i),
        )),))
        for i, (kind, share) in enumerate(points)
    ]


def _kernel_model(seed: int, rnd: int) -> list[Unit]:
    from repro.experiments.cg_scaling import run_cg_poststore, run_table1
    from repro.experiments.is_scaling import run_table2
    from repro.experiments.sp_scaling import run_table3, run_table4

    tables = (run_table1, run_cg_poststore, run_table2, run_table3, run_table4)
    return [Unit("nas-tables", tuple(
        (func, {"seed": unit_seed("kernel-model", seed, len(tables) * rnd + i)})
        for i, func in enumerate(tables)
    ))]


@dataclass(frozen=True)
class Workload:
    """Unit lists plus the nominal seconds one pass over one takes.

    ``units(seed, rnd)`` is the unit list of cold round ``rnd`` of a run
    at ``seed``: every round draws fresh simulator seeds.
    """

    units: Callable[[int, int], list[Unit]]
    pass_s: float

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed by ``seconds``, never by the host's speed."""
        return max(2, round(seconds / self.pass_s))


WORKLOADS: dict[str, Workload] = {
    "sim-local": Workload(_sim_local, 7.0),
    "sim-ring": Workload(_sim_ring, 3.2),
    "kernel-model": Workload(_kernel_model, 1.6),
}

#: Modules a fresh interpreter imports before the first unit.
_IMPORTS = [
    "numpy", "repro.experiments.latency", "repro.experiments.locks",
    "repro.experiments.cg_scaling", "repro.experiments.is_scaling",
    "repro.experiments.sp_scaling", "repro.obs",
]
#: Seed of the untimed warm-up unit (never a run seed's unit).
_WARMUP_SEED = -1


def load_pins(workload: str, seed: int) -> dict[str, Any]:
    """Pinned digests and counters of ``workload`` at ``seed`` ({} if none)."""
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        return {}
    return pins.get(workload, {}).get(str(seed), {})


def _setup(workload: str, src: str) -> tuple[float, hostref.HostReference]:
    """Imports, the reference loop's data and one untimed warm-up unit
    (the last, and on ``sim-ring`` the cheapest, unit of a spare round)."""
    imports_s = hostref.import_seconds(_IMPORTS, src)
    start = time.perf_counter()
    ref = hostref.HostReference()
    WORKLOADS[workload].units(_WARMUP_SEED, 0)[-1].execute()
    return imports_s + time.perf_counter() - start, ref


def run(workload: str, seed: int, seconds: float, src: str) -> dict[str, Any]:
    """Untraced run: end-to-end metrics and correctness.

    Passes alternate: a cold pass runs a fresh round of units, and the
    warm pass after it repeats them, which must give the same values.
    A job is one pass, in reference-speed milliseconds.
    """
    setup_s, ref = _setup(workload, src)
    pins = load_pins(workload, seed).get("values", {})
    walls: list[float] = []
    pass_starts: list[int] = []
    failed = 0
    for n in range(WORKLOADS[workload].passes(seconds)):
        if n % 2 == 0:
            units = WORKLOADS[workload].units(seed, n // 2)
            cold_digests: dict[str, str] = {}
        pass_starts.append(len(walls))
        for unit in units:
            ref.bracket()
            start = time.perf_counter()
            values, _ = unit.execute()
            walls.append(time.perf_counter() - start)
            got = digest(values)
            expect = pins.get(unit.label, got) if n == 0 else got
            if cold_digests.setdefault(unit.label, got) != got or got != expect:
                failed += 1
    ref.bracket()
    jobs = [ref.reference_speed(sum(walls[i:i + len(units)])) * 1e3 for i in pass_starts]
    cold, warm = jobs[0::2], jobs[1::2]
    return {
        "metrics": {
            "setup_s": setup_s,
            "wall_norm": sum(walls) / sum(ref.brackets),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_job_p50_ms": statistics.median(cold),
            "cold_job_p90_ms": statistics.median(cold),
            "warm_job_p50_ms": statistics.median(warm),
            "warm_job_p95_ms": statistics.median(warm),
            "warm_jobs_per_s": len(warm) / (sum(warm) / 1e3),
        },
        "attempted": len(walls),
        "failed": failed,
        "samples": {"cold_jobs": len(cold), "warm_jobs": len(warm), "ref_loops": len(ref.samples)},
        "host_ref_ms": ref.median_ms(),
        "wall_s": sum(walls),
        "unit_walls_s": walls,
        "bracket_s": ref.brackets,
    }


#: Per-layer metric -> repro subpackage whose self time it reports.
_SELF_TIME = {
    "sim.self_s": "repro.sim",
    "machine.self_s": "repro.machine",
    "memory.self_s": "repro.memory",
    "ring.self_s": "repro.ring",
    "coherence.self_s": "repro.coherence",
    "kernels.self_s": "repro.kernels",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counters(captures: list[Any]) -> dict[str, float]:
    """Deterministic work counters summed over the obs captures."""
    def total(name: str) -> float:
        return sum(c.totals.get(name, 0.0) for c in captures)

    def channel(name: str) -> float:
        return sum(c.view.total(name) for c in captures)

    return {
        "sim.events": channel("events"),
        "cell.ops": channel("ops"),
        "cell.remote_ops": channel("remote_ops"),
        "subcache_hits": total("subcache_hits"),
        "subcache_misses": total("subcache_misses"),
        "local_cache_hits": total("local_cache_hits"),
        "local_cache_misses": total("local_cache_misses"),
        "ring.transactions": total("ring_transactions"),
        "ring_cycles": total("ring_cycles"),
        "ring_wait_cycles": total("ring_wait_cycles"),
        "coherence.gsp_attempts": total("get_subpage_attempts"),
        "gsp_retries": total("get_subpage_retries"),
        "coherence.invalidations": total("invalidations_sent"),
    }


def trace_run(workload: str, seed: int, src: str) -> dict[str, Any]:
    """Traced run: each cold unit untraced, then under the profiler and obs.

    Values must match bit for bit; at a pinned seed they must also match
    the pinned digests, and the work counters the pinned counters.
    """
    from repro.obs import ObsSpec

    _, ref = _setup(workload, src)
    pins = load_pins(workload, seed)
    profiles: list[cProfile.Profile] = []
    captures: list[Any] = []
    spans, digests = [], {}
    untraced_s = traced_s = 0.0
    failed = 0
    units = WORKLOADS[workload].units(seed, 0)
    for unit in units:
        ref.bracket()
        start = time.perf_counter()
        plain, _ = unit.execute()
        mid = time.perf_counter()
        profile = cProfile.Profile()
        profile.enable()
        traced, unit_captures = unit.execute(obs=ObsSpec())
        profile.disable()
        end = time.perf_counter()
        untraced_s += mid - start
        traced_s += end - mid
        captures.extend(unit_captures)
        profiles.append(profile)
        digests[unit.label] = digest(plain)
        if digest(traced) != digests[unit.label]:
            failed += 1
        if digests[unit.label] != pins.get("values", {}).get(unit.label, digests[unit.label]):
            failed += 1
        spans.append({"unit": unit.label, "seeds": [kw.get("seed") for _, kw in unit.calls],
                      "untraced_s": mid - start, "traced_s": end - mid,
                      "bracket_s": ref.brackets[-1], "digest": digests[unit.label]})
    ref.bracket()
    stats = pstats.Stats(*profiles)
    counters = _counters(captures)
    counters["memory.analytic_simulate_calls"], _, _ = profattr.function_totals(
        stats, "repro/memory/analytic_cache.py", "simulate")
    calls, _, cum = profattr.function_totals(
        stats, "repro/memory/analytic_cache.py", "time_distances")
    counters["memory.time_distances_calls"] = calls
    pinned = pins.get("counters", {})
    if any(counters[name] != value for name, value in pinned.items()):
        failed += 1
    groups = profattr.self_times(stats, profattr.subpackage)
    layer = {
        "sim.events": counters["sim.events"],
        "sim.events_per_s": _ratio(counters["sim.events"], untraced_s),
        **{name: groups.get(group, 0.0) for name, group in _SELF_TIME.items()},
        "cell.ops": counters["cell.ops"],
        "cell.subcache_hit_ratio": _ratio(
            counters["subcache_hits"], counters["subcache_hits"] + counters["subcache_misses"]),
        "cell.local_hit_ratio": _ratio(
            counters["local_cache_hits"],
            counters["local_cache_hits"] + counters["local_cache_misses"]),
        "cell.remote_ops": counters["cell.remote_ops"],
        "ring.transactions": counters["ring.transactions"],
        "ring.wait_fraction": _ratio(counters["ring_wait_cycles"], counters["ring_cycles"]),
        "coherence.gsp_attempts": counters["coherence.gsp_attempts"],
        "coherence.retry_ratio": _ratio(counters["gsp_retries"], counters["coherence.gsp_attempts"]),
        "coherence.invalidations": counters["coherence.invalidations"],
        "memory.analytic_simulate_calls": counters["memory.analytic_simulate_calls"],
        "memory.time_distances_calls": calls,
        "memory.time_distances_s": cum,
        "numpy.argsort_s": profattr.function_totals(
            stats, "~", "<method 'argsort' of 'numpy.ndarray' objects>")[1],
        "host.ref_ms": ref.median_ms(),
        "host.wall_s": untraced_s,
        "host.tracing_overhead": traced_s / untraced_s,
    }
    profiled = sum(groups.values())
    return {
        "metrics": layer,
        "attempted": len(units),
        "failed": failed,
        "trace": {
            "spans": spans,
            "self_time_share": {g: t / profiled for g, t in sorted(groups.items())},
            "counters": counters,
            "digests": digests,
        },
    }
