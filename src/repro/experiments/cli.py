"""Command-line front end: ``ksr-experiments``.

Runs any subset of the paper's experiments and prints their tables.

Examples::

    ksr-experiments --list
    ksr-experiments fig4 tab1
    ksr-experiments all --quick
    ksr-experiments all --quick --jobs 8   # fan sweep points across processes
    ksr-experiments tab1 tab2 --full       # paper-size problems
    ksr-experiments all --no-cache         # ignore .ksr-cache/ results

Parallel runs are deterministic: every sweep point re-derives its RNG
streams from its own arguments, so ``--jobs N`` output is byte-identical
to the serial run.  Results are memoised in the result cache under
``.ksr-cache/`` or ``$KSR_CACHE_DIR`` (keyed by code version +
arguments), making re-runs of unchanged points instant; ``ksr-serve``
reads and writes the same cache.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.experiments.base import ExperimentResult
from repro.util.cli import (
    build_parser,
    install_sigpipe_handler,
    print_unknown,
    resolve_selection,
    write_report,
)

__all__ = ["main", "EXPERIMENTS"]


def _fig2(args) -> ExperimentResult:
    from repro.experiments.latency import run_figure2

    procs = [1, 2, 8, 32] if args.quick else [1, 2, 4, 8, 16, 24, 32]
    return run_figure2(
        proc_counts=procs,
        samples=400 if args.quick else 1000,
        runner=args.runner,
        trace_dir=args.trace_dir,
    )


def _fig3(args) -> ExperimentResult:
    from repro.experiments.locks import run_figure3

    procs = [2, 8, 32] if args.quick else [2, 4, 8, 16, 24, 32]
    return run_figure3(
        proc_counts=procs,
        ops=30 if args.quick else (500 if args.full else 100),
        runner=args.runner,
        trace_dir=args.trace_dir,
    )


def _fig4(args) -> ExperimentResult:
    from repro.experiments.barriers import run_figure4

    procs = [4, 16, 32] if args.quick else [2, 4, 8, 16, 24, 32]
    return run_figure4(
        proc_counts=procs,
        reps=6 if args.quick else 10,
        runner=args.runner,
        trace_dir=args.trace_dir,
    )


def _fig5(args) -> ExperimentResult:
    from repro.experiments.barriers import run_figure5

    procs = [16, 32, 48, 64] if args.quick else [16, 24, 32, 40, 48, 56, 64]
    return run_figure5(
        proc_counts=procs,
        reps=6 if args.quick else 10,
        runner=args.runner,
        trace_dir=args.trace_dir,
    )


def _other(args) -> ExperimentResult:
    from repro.experiments.other_archs import run_other_archs

    return args.runner.run(run_other_archs)


def _ep(args) -> ExperimentResult:
    from repro.experiments.ep_scaling import run_ep_scaling

    return args.runner.run(run_ep_scaling, n_pairs=(1 << 16) if args.quick else (1 << 18))


def _tab1(args) -> ExperimentResult:
    from repro.experiments.cg_scaling import run_table1

    return args.runner.run(run_table1, full_size=args.full)


def _cg_ps(args) -> ExperimentResult:
    from repro.experiments.cg_scaling import run_cg_poststore

    return args.runner.run(run_cg_poststore, full_size=args.full)


def _tab2(args) -> ExperimentResult:
    from repro.experiments.is_scaling import run_table2

    return args.runner.run(run_table2, full_size=args.full)


def _tab3(args) -> ExperimentResult:
    from repro.experiments.sp_scaling import run_table3

    return args.runner.run(run_table3, full_size=args.full)


def _tab4(args) -> ExperimentResult:
    from repro.experiments.sp_scaling import run_table4

    return args.runner.run(run_table4, full_size=args.full)


def _sp_ps(args) -> ExperimentResult:
    from repro.experiments.sp_scaling import run_sp_poststore

    return args.runner.run(run_sp_poststore, full_size=args.full)


def _cg_fmt(args) -> ExperimentResult:
    from repro.experiments.cg_formats import run_format_comparison

    return args.runner.run(run_format_comparison, full_size=args.full)


def _fig8(args) -> ExperimentResult:
    from repro.experiments.figure8 import run_figure8

    return args.runner.run(run_figure8, full_size=args.full)


def _future(args) -> ExperimentResult:
    from repro.experiments.future_features import run_future_features

    return args.runner.run(run_future_features, full_size=args.full)


def _proj_bar(args) -> ExperimentResult:
    from repro.experiments.projection import run_barrier_projection

    procs = [32, 64, 128] if args.quick else [32, 64, 128, 256]
    return args.runner.run(run_barrier_projection, proc_counts=procs)


def _proj_cg(args) -> ExperimentResult:
    from repro.experiments.projection import run_cg_projection

    return args.runner.run(run_cg_projection)


def _f1(args) -> ExperimentResult:
    from repro.experiments.degraded import run_degraded_locks

    procs = [2, 8] if args.quick else [2, 4, 8, 16]
    return run_degraded_locks(
        proc_counts=procs, ops=10 if args.quick else 30, runner=args.runner
    )


def _f2(args) -> ExperimentResult:
    from repro.experiments.degraded import run_degraded_barriers

    procs = [4, 8] if args.quick else [4, 8, 16]
    return run_degraded_barriers(
        proc_counts=procs, reps=4 if args.quick else 6, runner=args.runner
    )


def _f3(args) -> ExperimentResult:
    from repro.experiments.degraded import run_degraded_kernels

    procs = [1, 4, 16] if args.quick else [1, 2, 4, 8, 16, 32]
    return run_degraded_kernels(proc_counts=procs, runner=args.runner)


EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig2": ("Figure 2: memory-hierarchy latencies", _fig2),
    "fig3": ("Figure 3: lock performance", _fig3),
    "fig4": ("Figure 4: barriers on the 32-node KSR-1", _fig4),
    "fig5": ("Figure 5: barriers on the 64-node KSR-2", _fig5),
    "other-archs": ("Section 3.2.3: Symmetry/Butterfly comparison", _other),
    "ep": ("EP scaling (section 3.3)", _ep),
    "tab1": ("Table 1: CG scaling", _tab1),
    "cg-poststore": ("CG poststore study (section 3.3.1)", _cg_ps),
    "tab2": ("Table 2: IS scaling", _tab2),
    "fig8": ("Figure 8: CG and IS speedup curves", _fig8),
    "tab3": ("Table 3: SP scaling", _tab3),
    "tab4": ("Table 4: SP optimization ladder", _tab4),
    "sp-poststore": ("SP poststore study (section 3.3.3)", _sp_ps),
    "cg-formats": ("CG data-structure study: CSR vs original CSC", _cg_fmt),
    "future": ("Section 4's proposed features, implemented", _future),
    "proj-barriers": ("Projection: barriers beyond 64 processors", _proj_bar),
    "proj-cg": ("Projection: CG to the 1088-processor maximum", _proj_cg),
    "f1": ("Degraded mode: lock workload under fault injection", _f1),
    "f2": ("Degraded mode: barriers under fault injection", _f2),
    "f3": ("Degraded mode: EP/CG scaling under fault injection", _f3),
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-experiments``."""
    install_sigpipe_handler()
    parser = build_parser(
        "ksr-experiments",
        "Reproduce the tables and figures of 'Scalability "
        "Study of the KSR-1' on the simulated machine.",
        positional="experiments",
        positional_help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast look"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-size problems (slower; affects fig3/tab1/tab2/tab3/tab4)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render each experiment's series as an ASCII figure too",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent sweep points across N worker processes "
        "(output is byte-identical to the serial run)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point instead of reusing .ksr-cache/ "
        "(set KSR_CACHE_DIR to relocate the cache)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one Chrome-trace JSON per sweep point into DIR "
        "(fig2/fig3/fig4/fig5; view with about:tracing or Perfetto)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report the resolved cache location and hit/miss/corrupt "
        "counts after the run",
    )
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        for key, (title, _) in EXPERIMENTS.items():
            print(f"{key:14s} {title}")
        return 0
    wanted, unknown = resolve_selection(args.experiments, EXPERIMENTS)
    if unknown:
        return print_unknown(unknown, "experiment")
    from repro.experiments.sweep import SweepRunner
    from repro.service.cache2 import ShardedResultCache

    args.runner = SweepRunner(
        jobs=args.jobs, cache=None if args.no_cache else ShardedResultCache.default()
    )
    sections: list[str] = []
    for key in wanted:
        title, runner = EXPERIMENTS[key]
        start = time.time()
        result = runner(args)
        elapsed = time.time() - start
        rendered = result.render()
        if args.chart and result.series:
            from repro.util.charts import ascii_chart

            rendered += "\n\n" + ascii_chart(
                result.series,
                title=f"{result.experiment_id} (series view)",
                x_label="P",
                y_label="value",
            )
        print(rendered)
        print(f"  [{key} completed in {elapsed:.1f}s]")
        print()
        sections.append(f"```\n{rendered}\n```\n_completed in {elapsed:.1f}s_\n")
    if args.verbose and args.runner.cache is not None:
        from repro.util.cli import format_cache_stats

        print(format_cache_stats(args.runner.cache.stats()))
    if args.output:
        write_report(args.output, "ksr-experiments report", sections)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
