"""The benchmark's metric catalogue and small statistics helpers.

``BENCHMARK.json`` lists the same names and units; the smoke tests
check that the two agree.  Every workload reports every metric: the
end-to-end set in untraced runs, the per-layer set in traced runs.  A
per-layer metric of a layer the workload does not touch reads 0 (for
example ``ring.transactions`` on ``kernel-model``), which is itself one
of the properties the traced run confirms.
"""

from __future__ import annotations

import math

__all__ = ["END_TO_END", "PER_LAYER", "SERVICE_MODULES", "percentile"]

#: name -> unit of every end-to-end metric, in report order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_norm": "ratio",
    "peak_rss_mb": "MB",
    "cold_job_p50_ms": "ms",
    "cold_job_p90_ms": "ms",
    "warm_job_p50_ms": "ms",
    "warm_job_p95_ms": "ms",
    "warm_jobs_per_s": "1/s",
}

#: ``repro.service`` modules whose server-side self time is reported as
#: ``service.self_s.<module>``; ``simulator`` is every other ``repro``
#: package (cold jobs compute in the server), ``other`` the standard
#: library with no ``repro`` frame above it (HTTP parsing, sockets).
SERVICE_MODULES = ("app", "scheduler", "cache2", "backends", "jobs", "simulator", "other")

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "machine.self_s": "s",
    "memory.self_s": "s",
    "cell.ops": "count",
    "cell.subcache_hit_ratio": "ratio",
    "cell.local_hit_ratio": "ratio",
    "cell.remote_ops": "count",
    "ring.self_s": "s",
    "ring.transactions": "count",
    "ring.wait_fraction": "ratio",
    "coherence.self_s": "s",
    "coherence.gsp_attempts": "count",
    "coherence.retry_ratio": "ratio",
    "coherence.invalidations": "count",
    "memory.analytic_simulate_calls": "count",
    "memory.time_distances_calls": "count",
    "memory.time_distances_s": "s",
    "numpy.argsort_s": "s",
    "kernels.self_s": "s",
    "scheduler.cold_exec_ms_p50": "ms",
    "scheduler.warm_exec_ms_p50": "ms",
    "http.warm_overhead_ms_p50": "ms",
    "cache.entries": "count",
    "cache.warm_hit_ratio": "ratio",
    "cache.cold_miss_ratio": "ratio",
    "scheduler.coalesced": "count",
    "scheduler.rejected": "count",
    **{f"service.self_s.{module}": "s" for module in SERVICE_MODULES},
    "host.ref_ms": "ms",
    "host.wall_s": "s",
    "host.tracing_overhead": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
