"""Pluggable execution backends for the serving layer.

A backend answers one question: *given a point function and a batch of
keyword-argument dicts, produce the values* — in order, one per call.
Because every sweep point is a pure function of its arguments (the
property the whole cache/fan-out stack rests on), any backend returns
identical values and the scheduler can treat them interchangeably:

* :class:`InlineBackend` — compute in the serving process.  Zero
  overhead, right for tests and tiny points.
* :class:`ProcessPoolBackend` — a *persistent*
  ``ProcessPoolExecutor``.  Unlike the CLI's per-``map`` pool in
  :class:`~repro.experiments.sweep.SweepRunner`, workers here survive
  across requests, so a server amortises interpreter/import start-up
  over its whole lifetime.
* :class:`~repro.service.fleet.coordinator.FleetClient` — the worker
  fleet: points route to the shards that own them, which serve them
  from cache or compute them.

:class:`BackendSweepRunner` adapts a backend to the ``SweepRunner``
interface (same cache semantics, same result order), harvests
:class:`~repro.obs.ObsCapture` values from point results so service
responses can carry observability summaries, and tallies how its own
points were served, so a job's accounting never mixes in another's.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Protocol, Sequence

from repro.experiments.sweep import ResultCache, SweepRunner
from repro.obs.probes import ObsCapture

__all__ = [
    "Backend",
    "BackendSweepRunner",
    "InlineBackend",
    "ProcessPoolBackend",
    "harvest_captures",
    "make_backend",
]


class Backend(Protocol):
    """Executes batches of pure point calls."""

    name: str

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Return ``func(**call)`` for every call, aligned with ``calls``."""
        ...

    def map_counted(
        self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]
    ) -> tuple[list[Any], dict[str, int]]:
        """``map`` plus how its points were served.

        A backend that computes everything reports them all as
        ``misses``; one that serves points from caches of its own (the
        fleet) splits them into ``hits`` and ``misses``.
        """
        return self.map(func, calls), {"misses": len(calls)}

    def status(self, brief: bool) -> dict[str, Any]:
        """Backend-specific status surface entries (``brief``: /healthz)."""
        return {}

    def close(self) -> None:
        """Release workers (idempotent)."""
        ...


class InlineBackend(Backend):
    """Serial, in-process execution."""

    name = "inline"

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Evaluate every call serially on the calling thread."""
        return [func(**kwargs) for kwargs in calls]

    def close(self) -> None:
        """Nothing to release."""


class ProcessPoolBackend(Backend):
    """A persistent worker pool shared by every batch the server runs."""

    def __init__(self, jobs: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = f"process:{jobs}"
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Fan calls across the (lazily created) pool, in call order."""
        if len(calls) <= 1:  # don't pay IPC for a single point
            return [func(**kwargs) for kwargs in calls]
        pool = self._ensure_pool()
        futures = [pool.submit(func, **kwargs) for kwargs in calls]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the pool down; a later map() starts a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(spec: str) -> Backend:
    """Build a backend from an ``inline`` or ``process[:jobs]`` spec string."""
    name, _, arg = spec.partition(":")
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessPoolBackend(int(arg) if arg else 2)
    raise ValueError(f"unknown backend {name!r} (known: inline, process)")


def harvest_captures(values: Sequence[Any]) -> list[ObsCapture]:
    """Pull every :class:`ObsCapture` out of a batch of point results.

    Point functions surface captures two ways: as the second element of
    a ``(value, capture)`` tuple (the figure measurers) or as a
    ``.capture`` attribute (:class:`~repro.experiments.degraded.DegradedPoint`).
    Order follows the result order, so equal runs harvest equal lists.
    """
    captures: list[ObsCapture] = []
    for value in values:
        if isinstance(value, tuple):
            captures.extend(v for v in value if isinstance(v, ObsCapture))
        else:
            capture = getattr(value, "capture", None)
            if isinstance(capture, ObsCapture):
                captures.append(capture)
    return captures


class BackendSweepRunner(SweepRunner):
    """A :class:`SweepRunner` whose misses run on a service backend.

    Cache-hit resolution, result ordering and store semantics are all
    inherited; only the execute seam changes.  The runner also harvests
    every :class:`ObsCapture` flowing through ``map`` (cache hits
    included) into :attr:`captures` — experiment assemblers consume the
    point values, so this is the one place the serving layer can still
    see them for response summaries.

    :attr:`tally` counts this runner's points only: ``hits`` served by
    its cache or the backend's, ``misses`` computed, plus any finer
    counts the backend reports.  Concurrent jobs on a shared cache each
    see exactly their own points.
    """

    def __init__(
        self,
        backend: Backend,
        cache: ResultCache | None = None,
        *,
        max_batch: int = 64,
    ):
        super().__init__(jobs=1, cache=cache)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.backend = backend
        self.max_batch = max_batch
        self.captures: list[ObsCapture] = []
        self.tally: dict[str, int] = {"hits": 0, "misses": 0}
        self._executed = 0

    def map(self, func, calls, *, on_result=None):  # type: ignore[override]
        """SweepRunner.map plus capture harvesting and cache-hit counting."""
        calls = list(calls)
        executed = self._executed
        results = super().map(func, calls, on_result=on_result)
        self.tally["hits"] += len(calls) - (self._executed - executed)
        self.captures.extend(harvest_captures(results))
        return results

    def _execute(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        from repro.service.batching import split_batches

        results: list[Any] = []
        for batch in split_batches(list(calls), self.max_batch):
            values, counts = self.backend.map_counted(func, batch)
            results.extend(values)
            for name, count in counts.items():
                self.tally[name] = self.tally.get(name, 0) + count
        self._executed += len(calls)
        return results
