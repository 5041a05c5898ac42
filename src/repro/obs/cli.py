"""Command-line front end: ``ksr-trace``.

Re-runs the paper's machine-level experiments with the observability
pipeline attached and exports what the machine did: a Chrome-trace JSON
(load in ``about:tracing`` or https://ui.perfetto.dev), a CSV of the
bucketed machine-wide series, or a terminal summary.

Examples::

    ksr-trace --list
    ksr-trace fig3 --procs 16                        # terminal summary
    ksr-trace fig3 --procs 16 --format chrome --output fig3.trace.json
    ksr-trace fig4 fig5 --reps 4 --format csv
    ksr-trace fig3 --jobs 4 --no-cache               # byte-identical to serial

Traces do not perturb the simulation: probes are read-only, so a traced
point reports exactly the value an untraced run would.  Exports are
deterministic — same subjects, same options, same bytes, whatever
``--jobs`` says.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.obs.export import export_chrome, export_csv
from repro.obs.probes import ObsCapture, ObsSpec
from repro.obs.summary import render_summary
from repro.util.cli import (
    build_parser,
    install_sigpipe_handler,
    print_unknown,
    resolve_selection,
)

__all__ = ["main", "SUBJECTS"]

_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _captures(runner, func, calls) -> list[ObsCapture]:
    return [capture for _, capture in runner.map(func, calls)]


def _fig2(args, spec, runner) -> list[ObsCapture]:
    from repro.experiments.latency import measure_latencies

    calls = []
    for level in ("local", "network"):
        if level == "network" and args.procs < 2:
            continue
        for op in ("read", "write"):
            calls.append(
                dict(n_procs=args.procs, level=level, op=op,
                     samples=args.samples, obs=spec)
            )
    return _captures(runner, measure_latencies, calls)


def _fig3(args, spec, runner) -> list[ObsCapture]:
    from repro.experiments.locks import measure_lock

    calls = [
        dict(kind="hardware", n_procs=args.procs, read_fraction=0.0,
             ops=args.ops, obs=spec)
    ]
    calls += [
        dict(kind="rw", n_procs=args.procs, read_fraction=f,
             ops=args.ops, obs=spec)
        for f in _FRACTIONS
    ]
    return _captures(runner, measure_lock, calls)


def _fig4(args, spec, runner) -> list[ObsCapture]:
    from repro.experiments.barriers import DEFAULT_ALGORITHMS, figure4_point

    calls = [
        dict(name=name, n_procs=args.procs, reps=args.reps, seed=404, obs=spec)
        for name in DEFAULT_ALGORITHMS
    ]
    return _captures(runner, figure4_point, calls)


def _fig5(args, spec, runner) -> list[ObsCapture]:
    from repro.experiments.barriers import DEFAULT_ALGORITHMS, figure5_point

    calls = [
        dict(name=name, n_procs=args.procs, reps=args.reps, seed=404, obs=spec)
        for name in DEFAULT_ALGORITHMS
    ]
    return _captures(runner, figure5_point, calls)


#: Subject id -> (description, capture producer).
SUBJECTS: dict[str, tuple[str, Callable]] = {
    "fig2": ("Figure 2 latency points (local + network, read + write)", _fig2),
    "fig3": ("Figure 3 lock points (hardware + rw read-share sweep)", _fig3),
    "fig4": ("Figure 4 barrier algorithms on the KSR-1", _fig4),
    "fig5": ("Figure 5 barrier algorithms on the two-ring KSR-2", _fig5),
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-trace``."""
    install_sigpipe_handler()
    parser = build_parser(
        "ksr-trace",
        "Trace the simulated KSR machine while it reruns the paper's "
        "experiments; export Chrome traces, CSV series or a summary.",
        positional="subjects",
        positional_help="what to trace (see --list)",
    )
    parser.add_argument(
        "--procs", type=int, default=16, metavar="P",
        help="processor count for every traced point (default 16)",
    )
    parser.add_argument(
        "--format", choices=("summary", "chrome", "csv"), default="summary",
        help="export format (default: terminal summary)",
    )
    parser.add_argument(
        "--bucket", type=float, default=10_000.0, metavar="CYCLES",
        help="series bucket width in simulated cycles (default 10000)",
    )
    parser.add_argument(
        "--max-records", type=int, default=20_000, metavar="N",
        help="op-trace ring-buffer capacity; 0 = unbounded (default 20000; "
        "evictions are counted and reported, never silent)",
    )
    parser.add_argument(
        "--ops", type=int, default=30, metavar="N",
        help="fig3: lock operations per processor (default 30)",
    )
    parser.add_argument(
        "--samples", type=int, default=400, metavar="N",
        help="fig2: timed accesses per processor (default 400)",
    )
    parser.add_argument(
        "--reps", type=int, default=6, metavar="N",
        help="fig4/fig5: barrier episodes per point (default 6)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan points across N worker processes "
        "(output is byte-identical to the serial run)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point instead of reusing .ksr-cache/",
    )
    args = parser.parse_args(argv)
    if args.list or not args.subjects:
        for key, (title, _) in SUBJECTS.items():
            print(f"{key:6s} {title}")
        return 0
    wanted, unknown = resolve_selection(args.subjects, SUBJECTS)
    if unknown:
        return print_unknown(unknown, "subject")
    from repro.experiments.sweep import SweepRunner
    from repro.service.cache2 import ShardedResultCache

    runner = SweepRunner(
        jobs=args.jobs, cache=None if args.no_cache else ShardedResultCache.default()
    )
    spec = ObsSpec(
        bucket_cycles=args.bucket,
        max_records=args.max_records if args.max_records > 0 else None,
    )
    captures: list[ObsCapture] = []
    for key in wanted:
        _, producer = SUBJECTS[key]
        captures.extend(producer(args, spec, runner))
    if args.format == "chrome":
        text = export_chrome(captures)
    elif args.format == "csv":
        text = "\n".join(export_csv(c) for c in captures)
    else:
        text = render_summary(captures) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.format} export written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
