"""Self-time attribution of stdlib-profiler runs, grouped by layer.

A layer is a ``repro`` subpackage (``repro.sim``, ``repro.ring``, ...)
or, for the server, a ``repro.service`` module.  Time spent in
built-ins and in the standard library (``heapq``, ``random``,
``pathlib``, ...) is charged to the layer that called it, walking up
the profiler's caller edges until a ``repro`` frame is found, split by
the per-caller time the profiler recorded.  Standard-library time with
no ``repro`` frame above it (thread start-up, HTTP request parsing)
lands in ``other``.  NumPy keeps its own group, so the analytic cache
model's sort time stays visible.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from typing import Callable

__all__ = ["subpackage", "service_module", "self_times", "function_totals"]

Key = tuple[str, int, str]
#: Caller chains deeper than this are charged to ``other``.
_MAX_DEPTH = 64


def _repro_parts(filename: str) -> list[str] | None:
    norm = filename.replace("\\", "/")
    if "/repro/" not in norm:
        return None
    return norm.rsplit("/repro/", 1)[1].removesuffix(".py").split("/")


def subpackage(filename: str) -> str | None:
    """``repro.<subpackage>`` or ``numpy``; None when charged to callers."""
    parts = _repro_parts(filename)
    if parts is not None:
        return "repro." + parts[0]
    if "/numpy/" in filename.replace("\\", "/"):
        return "numpy"
    return None


def service_module(filename: str) -> str | None:
    """Like :func:`subpackage`, but splits ``repro.service`` by module."""
    group = subpackage(filename)
    parts = _repro_parts(filename)
    if group == "repro.service" and parts is not None and len(parts) > 1:
        return "repro.service." + parts[1]
    return group


def self_times(stats: pstats.Stats, group_of: Callable[[str], str | None]) -> dict[str, float]:
    """Seconds of self time per group (see the module docstring)."""
    table = stats.stats  # type: ignore[attr-defined]
    memo: dict[Key, dict[str, float]] = {}

    def shares(key: Key, path: frozenset[Key]) -> dict[str, float]:
        """How ``key``'s self time splits over groups ({} on a cycle)."""
        group = group_of(key[0])
        if group is not None:
            return {group: 1.0}
        if key in memo:
            return memo[key]
        if key in path or len(path) > _MAX_DEPTH:
            return {}
        callers = table[key][4] if key in table else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: edge[3] for c, edge in callers.items()}
        mix: dict[str, float] = defaultdict(float)
        total = 0.0
        for caller, weight in weights.items():
            split = shares(caller, path | {key})
            if split and weight > 0.0:
                total += weight
                for name, share in split.items():
                    mix[name] += share * weight
        result = {name: v / total for name, v in mix.items()} if total else {"other": 1.0}
        if not path:
            memo[key] = result
        return result

    out: dict[str, float] = defaultdict(float)
    for key, (_, _, tt, _, _) in table.items():
        for name, share in shares(key, frozenset()).items():
            out[name] += tt * share
    return dict(out)


def function_totals(
    stats: pstats.Stats, module_suffix: str, name: str
) -> tuple[int, float, float]:
    """``(calls, self_s, cumulative_s)`` of every function ``name`` in a file
    whose path ends with ``module_suffix`` (``"~"`` for built-ins)."""
    calls, tt_sum, ct_sum = 0, 0.0, 0.0
    for (filename, _, funcname), (_, nc, tt, ct, _) in stats.stats.items():  # type: ignore[attr-defined]
        if funcname == name and filename.replace("\\", "/").endswith(module_suffix):
            calls += nc
            tt_sum += tt
            ct_sum += ct
    return calls, tt_sum, ct_sum
