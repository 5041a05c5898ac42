#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sim-local --seed 1 --seconds 16 --trace 0

``--trace 0`` times the workload and prints every end-to-end metric;
``--trace 1`` is a separate run that profiles and observes it and
prints every per-layer metric.  Both check the program's outputs.  The
human-readable report comes first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Traced runs also write their spans and profile attribution under
``.perfbench-out/``.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("sim-local", "sim-ring", "kernel-model", "serve")


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds (sizes the run; fixed per benchmark)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main() -> int:
    args = _parse()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash layout for every run (and the server it starts):
        # per-process dict and set layouts would add run-to-run noise.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, SRC)
    import hostref
    from metrics import END_TO_END, PER_LAYER

    if args.workload == "serve":
        import serve

        result = (serve.trace_run if args.trace else serve.run)(args.seed, args.seconds, ROOT)
    else:
        import inproc

        if args.trace:
            result = inproc.trace_run(args.workload, args.seed, SRC)
        else:
            result = inproc.run(args.workload, args.seed, args.seconds, SRC)
    # a per-layer metric of a layer the workload does not touch reads 0
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": hostref.fingerprint(),
        "error_rate": {"value": failed / attempted, "unit": "fraction"},
        **{k: v for k, v in result.items() if k not in ("metrics", "trace")},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} fraction ({failed}/{attempted})")
    print("report " + json.dumps(report, sort_keys=True))
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**report, "metrics": metrics, **result["trace"]}, fh, indent=1)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
