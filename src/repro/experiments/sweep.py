"""Parallel deterministic sweep runner with on-disk result caching.

Every artifact in the paper is regenerated by sweeping the cycle-level
DES over processor counts — a bag of *independent* (experiment,
proc_count) points.  Each point function builds a fresh machine whose
every random draw comes from named sub-streams of an explicit seed
(:mod:`repro.util.rng`), so a point's value is a pure function of its
arguments.  That purity is what makes the two features here sound:

* **Process-pool fan-out** — :class:`SweepRunner` maps point functions
  across a ``concurrent.futures.ProcessPoolExecutor``.  Results come
  back in submission order and each point re-derives its RNG streams
  from its own arguments, so a parallel run is byte-identical to the
  serial one.
* **Result cache** — an optional
  :class:`~repro.service.cache2.ShardedResultCache` memoises point
  values on disk, keyed by :func:`point_key`: a SHA-256 of (code
  version, function identity, canonical arguments).  The code version
  hashes every source file of the installed ``repro`` package, so any
  code change invalidates the whole cache.

This module deliberately lives *outside* the KSR100-linted simulator
packages (``sim``/``machine``/``ring``/``coherence``/``sync``): process
pools, ``os`` and host filesystems are harness concerns and must never
leak into simulated time.
"""

from __future__ import annotations

import hashlib
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # runtime import would cycle: service -> backends -> sweep
    from repro.service.cache2 import ShardedResultCache

__all__ = ["SweepRunner", "code_version", "point_key"]

# Determinism sinks for `ksr-analyze flow` (KSR110): anything keyed
# into the result cache must be reproducible across processes.
__ksr_flow_sinks__ = ("point_key",)

_code_version: str | None = None


def code_version() -> str:
    """SHA-256 over every source file of the installed ``repro`` package.

    Computed once per process.  Any change to the simulator, kernels or
    experiment code yields a new version and therefore a cold cache —
    the cache can never serve values computed by different code.  The
    declared semantic versions of the fault injector, the macro-event
    batching layer and the scenario model are folded in explicitly:
    they guard the cache even if those subsystems move outside the
    hashed tree, and they make the dependency visible at the key level.
    """
    global _code_version
    if _code_version is None:
        import repro
        from repro.analysis.scenarios.model import MODEL_VERSION as SCENARIO_MODEL_VERSION
        from repro.faults.plan import INJECTOR_VERSION
        from repro.sim.batch import BATCH_VERSION

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(
            f"injector={INJECTOR_VERSION};batch={BATCH_VERSION};"
            f"scenarios={SCENARIO_MODEL_VERSION}".encode()
        )
        digest.update(b"\0")
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()
    return _code_version


#: ``repr`` of an object without a real ``__repr__`` embeds its memory
#: address (``<pkg.Cls object at 0x7f...>``); such a "key" differs in
#: every process, so it can never hit and only pollutes the cache.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _canonical_value(value: Any, *, where: str) -> str:
    """Stable textual form of one argument value.

    An argument exposing a ``cache_token`` attribute (e.g.
    :class:`repro.faults.FaultPlan`) contributes that token instead of
    its ``repr`` — the token embeds the producing subsystem's version,
    so semantic changes there invalidate cached points even when the
    ``repr`` is unchanged.  Containers (lists, tuples, dicts, sets) are
    canonicalised element-wise so a token-bearing value keeps its token
    at any nesting depth; dict and set members are sorted by canonical
    form, making the key independent of insertion order.

    ``where`` names the kwarg being canonicalised, so rejection errors
    can point at the offending argument.
    """
    token = getattr(value, "cache_token", None)
    if token is not None:
        return f"<cache_token:{token}>"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_canonical_value(v, where=where) for v in value)
        if isinstance(value, tuple):
            return f"({inner},)" if len(value) == 1 else f"({inner})"
        return f"[{inner}]"
    if isinstance(value, dict):
        items = sorted(
            (_canonical_value(k, where=where), _canonical_value(v, where=where))
            for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(sorted(_canonical_value(v, where=where) for v in value))
        return f"{type(value).__name__}({{{inner}}})"
    text = repr(value)
    if _ADDRESS_REPR.search(text):
        raise TypeError(
            f"point_key: kwarg {where} has a repr embedding a memory address "
            f"({text}); per-process addresses make cache keys that never hit. "
            f"Pass a value with a stable repr, or one exposing a cache_token."
        )
    return text


def _canonical_kwargs(kwargs: dict[str, Any]) -> str:
    """Stable textual form of a point's keyword arguments.

    ``repr`` of sorted items is deterministic for the argument types
    point functions take (numbers, strings, bools, config dataclasses);
    values with a ``cache_token`` are keyed by that token instead, and
    address-bearing default reprs are rejected outright (see
    :func:`_canonical_value`).
    """
    items = ", ".join(
        f"({key!r}, {_canonical_value(value, where=repr(key))})"
        for key, value in sorted(kwargs.items())
    )
    return f"[{items}]"


def point_key(func: Callable[..., Any], kwargs: dict[str, Any]) -> str:
    """Cache key for one (code version, function, arguments) point."""
    payload = "\n".join(
        (code_version(), f"{func.__module__}.{func.__qualname__}", _canonical_kwargs(kwargs))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SweepRunner:
    """Runs point functions serially or across a process pool.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) computes in-process;
        results are identical either way.
    cache:
        Optional :class:`~repro.service.cache2.ShardedResultCache`.
        Hits skip computation entirely.
    """

    def __init__(self, jobs: int = 1, cache: ShardedResultCache | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    def run(self, func: Callable[..., Any], **kwargs: Any) -> Any:
        """Evaluate a single point (with caching, never a worker pool)."""
        return self.map(func, [kwargs])[0]

    def map(
        self,
        func: Callable[..., Any],
        calls: Sequence[dict[str, Any]],
        *,
        on_result: Callable[[int, dict[str, Any], Any], None] | None = None,
    ) -> list[Any]:
        """Evaluate ``func(**call)`` for every call, in order.

        Cache hits are resolved first; remaining points run in-process
        (``jobs == 1`` or a single miss) or across the pool.  The
        returned list always lines up with ``calls``.

        ``on_result`` (when given) is invoked in the parent process as
        ``on_result(index, call_kwargs, result)`` for every point, in
        call order, after all results are assembled — cache hits
        included.  Experiment runners use it to write per-point trace
        artifacts without perturbing the values themselves.
        """
        calls = list(calls)
        results: list[Any] = [None] * len(calls)
        pending: list[int] = []
        keys: list[str | None] = [None] * len(calls)
        for i, kwargs in enumerate(calls):
            if self.cache is not None:
                keys[i] = key = point_key(func, kwargs)
                hit, value = self.cache.load(key)
                if hit:
                    results[i] = value
                    continue
            pending.append(i)
        if pending:
            computed = self._execute(func, [calls[i] for i in pending])
            for i, value in zip(pending, computed):
                results[i] = value
            if self.cache is not None:
                func_id = f"{func.__module__}.{func.__qualname__}"
                for i in pending:
                    assert keys[i] is not None
                    self.cache.store(
                        keys[i],  # type: ignore[arg-type]
                        results[i],
                        meta={"func": func_id, "kwargs": _canonical_kwargs(calls[i])},
                    )
        if on_result is not None:
            for i, kwargs in enumerate(calls):
                on_result(i, kwargs, results[i])
        return results

    def _execute(self, func: Callable[..., Any], calls: Sequence[dict[str, Any]]) -> list[Any]:
        """Compute the cache-missing points, in order.

        The one seam subclasses override: :class:`repro.service` plugs
        a persistent worker pool in here.  Implementations must return
        one value per call, aligned with ``calls`` — point purity makes
        any execution strategy equivalent.
        """
        if self.jobs > 1 and len(calls) > 1:
            workers = min(self.jobs, len(calls))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(func, **kwargs) for kwargs in calls]
                return [future.result() for future in futures]
        return [func(**kwargs) for kwargs in calls]
