"""Command-line front end: ``ksr-serve``.

Serve the paper's experiments over a local HTTP/JSON API::

    ksr-serve                          # 127.0.0.1:8321, process pool of 2
    ksr-serve --port 0 --verbose       # ephemeral port (printed on start)
    ksr-serve --backend inline         # compute in the serving process
    ksr-serve --jobs 8                 # shorthand for --backend process:8
    ksr-serve --cache-dir /var/ksr --cache-cap-mb 256

The cache is the one every tool shares (``$KSR_CACHE_DIR`` or
``./.ksr-cache``), so points ``ksr-experiments`` already computed are
served without recomputing.

Submit work with any HTTP client::

    curl -s localhost:8321/v1/experiments
    curl -s -X POST localhost:8321/v1/jobs -d \
      '{"kind": "experiment", "experiment": "fig3", "wait": true}'

``--smoke EXPERIMENT`` is the self-test CI runs: it starts a server on
an ephemeral port, submits the same job twice over real HTTP, and
asserts (a) both responses render byte-identically and (b) the second
run is served ≥95% from the cache.  It also prints how much of the
*first* submission the cache served — all of it when a CLI run with
the same parameters warmed the cache.

Fleet mode scales the same API across a coordinator + N workers::

    ksr-serve --fleet 3                # coordinator + 3 workers, one port
    ksr-serve --fleet 3 --replication 2
    ksr-serve --fleet-smoke fig2       # CI self-test: federated == single
    ksr-serve --loadgen                # closed-loop load generator
    ksr-serve --loadgen --loadgen-clients 1024 --loadgen-duration 5

``--fleet-smoke`` proves the federation contract: a campaign served by
a coordinator + workers is byte-identical to the single-daemon run and
a resubmission is ≥95% cache-served by the worker shards.
``--loadgen`` sustains thousands of concurrent closed-loop submissions
against a local fleet and writes throughput/latency/cache/fairness
numbers into ``BENCH_fleet.json``.

Multi-host mode splits the fleet across real processes/machines::

    # terminal 1 (or host A): the front door, fleet starts empty
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --coordinator --port 8321

    # terminals 2..N (or hosts B..): workers dial in and register
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --worker --join http://hostA:8321
    KSR_FLEET_TOKEN=$TOKEN ksr-serve --worker --join http://hostA:8321

Workers register over ``POST /v1/fleet/register`` and keep
re-registering (the worker-side heartbeat); the coordinator admits
them into the consistent-hash ring with a bounded key-range rebalance,
detects death via heartbeats, and after ``--dead-interval`` seconds
re-replicates the lost worker's key range from surviving replicas.
Every fleet control/data-plane call carries the shared secret
(``--fleet-token`` / ``$KSR_FLEET_TOKEN``) in ``X-Fleet-Token``.
``--multihost-smoke EXPERIMENT`` is the CI self-test: coordinator +
worker OS processes over real sockets, byte-identity vs a single
daemon, a SIGKILL, and a replication-factor-restored assertion.

On SIGTERM/SIGINT the server drains gracefully: admission stops
(503), in-flight jobs get a bounded deadline, then the process exits.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import urllib.request

from repro.service.cache2 import default_root
from repro.util.cli import format_cache_stats, install_sigpipe_handler

__all__ = ["main", "post_job"]


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``ksr-serve`` argument parser (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="ksr-serve",
        description="Serve KSR-1 experiment campaigns over a local HTTP/JSON API.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8321, help="port (0: ephemeral)")
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="execution backend: inline, process, process:N (default process:2)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shorthand for --backend process:N",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache root, shared with ksr-experiments (default "
        "$KSR_CACHE_DIR or ./.ksr-cache); fleet workers shard under it",
    )
    parser.add_argument(
        "--cache-cap-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU-evict the cache down to this size (default: uncapped)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="concurrent job executors"
    )
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=8,
        help="max accepted-but-unfinished jobs before 429 rejection",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=512,
        help="per-job sweep-point admission bound (oversized jobs get 413)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="points per backend fan-out slice",
    )
    parser.add_argument(
        "--smoke",
        metavar="EXPERIMENT",
        default=None,
        help="self-test: serve EXPERIMENT twice over HTTP on an ephemeral "
        "port, assert byte-identical output and >=95%% cache hits on the "
        "resubmit, then exit",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        metavar="S",
        help="graceful-shutdown budget: seconds in-flight jobs get to "
        "finish after SIGTERM before the process exits anyway",
    )
    fleet = parser.add_argument_group("fleet mode")
    fleet.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="serve a local fleet: a coordinator (public port) + N workers "
        "on ephemeral ports, each owning a cache shard by key range",
    )
    fleet.add_argument(
        "--replication",
        type=int,
        default=2,
        metavar="R",
        help="copies of each fresh result across the fleet (owner + R-1 "
        "ring successors; default 2)",
    )
    fleet.add_argument(
        "--fleet-smoke",
        metavar="EXPERIMENT",
        default=None,
        help="fleet self-test: serve EXPERIMENT on a coordinator + worker "
        "fleet, assert byte-identity with a single-daemon run and >=95%% "
        "cache-served on the resubmit, then exit",
    )
    fleet.add_argument(
        "--loadgen",
        action="store_true",
        help="closed-loop load generator: spin up a local fleet, sustain "
        "--loadgen-clients concurrent submissions for --loadgen-duration "
        "seconds, write BENCH_fleet.json",
    )
    fleet.add_argument(
        "--loadgen-clients", type=int, default=1024, metavar="N",
        help="concurrent closed-loop clients (default 1024)",
    )
    fleet.add_argument(
        "--loadgen-processes", type=int, default=8, metavar="N",
        help="generator OS processes the clients are spread over",
    )
    fleet.add_argument(
        "--loadgen-duration", type=float, default=5.0, metavar="S",
        help="seconds of sustained load (default 5)",
    )
    fleet.add_argument(
        "--loadgen-tenants", type=int, default=4, metavar="N",
        help="tenants the clients are spread over (fairness surface)",
    )
    fleet.add_argument(
        "--loadgen-out", default="BENCH_fleet.json", metavar="FILE",
        help="report artifact path (default BENCH_fleet.json)",
    )
    multihost = parser.add_argument_group("multi-host mode")
    multihost.add_argument(
        "--coordinator",
        action="store_true",
        help="serve a standalone coordinator with an empty fleet; workers "
        "join at runtime via POST /v1/fleet/register",
    )
    multihost.add_argument(
        "--worker",
        action="store_true",
        help="serve a standalone fleet worker that registers with the "
        "coordinator named by --join",
    )
    multihost.add_argument(
        "--join",
        metavar="URL",
        default=None,
        help="coordinator base URL a --worker registers with",
    )
    multihost.add_argument(
        "--worker-id",
        metavar="NAME",
        default=None,
        help="stable worker identity (default worker-<host>-<pid>); keep "
        "it stable across restarts to rejoin with the same shard",
    )
    multihost.add_argument(
        "--advertise",
        metavar="URL",
        default=None,
        help="base URL the coordinator should reach this worker at "
        "(default http://<bind-host>:<bound-port>)",
    )
    multihost.add_argument(
        "--fleet-token",
        metavar="TOKEN",
        default=None,
        help="shared secret for X-Fleet-Token auth on every fleet "
        "control/data-plane call (default $KSR_FLEET_TOKEN; unset: open, "
        "for TLS-terminated deployments)",
    )
    multihost.add_argument(
        "--dead-interval",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds a worker may stay dead before the coordinator "
        "re-replicates its key range from surviving replicas (default 10)",
    )
    multihost.add_argument(
        "--register-interval",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds between a worker's re-registrations (the worker-side "
        "heartbeat; default 5)",
    )
    multihost.add_argument(
        "--multihost-smoke",
        metavar="EXPERIMENT",
        default=None,
        help="multi-host self-test: coordinator + worker OS processes over "
        "real sockets; asserts byte-identity with a single daemon, 401 on "
        "tokenless fleet calls, and replication-factor restoration after a "
        "SIGKILL, then exits",
    )
    multihost.add_argument(
        "--multihost-workers",
        type=int,
        default=3,
        metavar="N",
        help="worker processes the multi-host smoke spawns (default 3)",
    )
    multihost.add_argument(
        "--multihost-stats-out",
        default="BENCH_multihost.json",
        metavar="FILE",
        help="multi-host smoke stats artifact (default BENCH_multihost.json)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log requests and cache stats"
    )
    return parser


def _make_app(args):
    from repro.service.app import ServiceApp

    cache_dir = args.cache_dir or default_root()
    backend = args.backend
    if backend is None:
        backend = f"process:{args.jobs}" if args.jobs else "process:2"
    elif args.jobs:
        raise SystemExit("pass --backend or --jobs, not both")
    cap = int(args.cache_cap_mb * 1024 * 1024) if args.cache_cap_mb else None
    return ServiceApp(
        cache_dir,
        backend=backend,
        cap_bytes=cap,
        workers=args.workers,
        queue_cap=args.queue_cap,
        max_points=args.max_points,
        max_batch=args.max_batch,
    )


def post_job(base_url: str, body: dict, *, timeout: float = 600.0) -> dict:
    """Submit one job body and return the decoded JSON response."""
    request = urllib.request.Request(
        f"{base_url}/v1/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_smoke(args) -> int:
    """The CI self-test (see module docstring)."""
    import threading

    from repro.service.app import make_server

    app = _make_app(args)
    server = make_server(app, args.host, 0, verbose=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://{server.server_address[0]}:{server.server_address[1]}"
    body = {"kind": "experiment", "experiment": args.smoke, "wait": True}
    try:
        first = post_job(base, body)
        second = post_job(base, body)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        app.close()
    for name, doc in (("first", first), ("second", second)):
        if doc.get("status") != "done":
            print(f"smoke: {name} submission did not finish: {doc}", file=sys.stderr)
            return 1
    if first["result"]["rendered"] != second["result"]["rendered"]:
        print("smoke: resubmission rendered differently", file=sys.stderr)
        return 1
    stats = second["cache"]
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    print(first["result"]["rendered"])
    cold = first["cache"]
    print(f"smoke {args.smoke}: first {cold['hits']}/{cold['hits'] + cold['misses']} "
          "cache hits")
    print(
        f"smoke {args.smoke}: resubmit {stats['hits']}/{lookups} cache hits "
        f"({rate:.0%}) from {stats['root']}"
    )
    if rate < 0.95:
        print("smoke: resubmit hit rate under 95%", file=sys.stderr)
        return 1
    return 0


def _make_fleet(args, *, n_workers: int | None = None, **overrides):
    """A :class:`LocalFleet` from CLI options (+ keyword overrides)."""
    from repro.service.fleet import LocalFleet

    backend = args.backend
    if backend is None:
        backend = f"process:{args.jobs}" if args.jobs else "inline"
    options = dict(
        n_workers=n_workers or args.fleet or 3,
        backend=backend,
        replication=args.replication,
        queue_cap=args.queue_cap,
        worker_threads=args.workers,
        max_points=args.max_points,
        max_batch=args.max_batch,
        dead_interval=args.dead_interval,
    )
    auth = _fleet_auth(args)
    if auth.enabled:  # else LocalFleet generates its own secret
        options["auth"] = auth
    options.update(overrides)
    return LocalFleet(args.cache_dir or default_root(), **options)


def run_fleet_smoke(args) -> int:
    """Fleet CI self-test: federated == single daemon, cache-served resubmit.

    One campaign runs three times: once on a plain single-daemon app
    (fresh cache), then twice through a coordinator + worker fleet
    (fresh shards).  The federated result must be byte-identical to the
    single-daemon one, and the fleet resubmission must be >=95%
    cache-served out of the worker shards.
    """
    import tempfile

    from repro.service.app import ServiceApp, make_server

    body = {"kind": "experiment", "experiment": args.fleet_smoke, "wait": True}
    with tempfile.TemporaryDirectory(prefix="ksr-fleet-smoke-") as tmp:
        # -- reference: one daemon, cold cache --------------------------
        app = ServiceApp(f"{tmp}/single", backend="inline", workers=2)
        server = make_server(app, args.host, 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{server.server_address[0]}:{server.server_address[1]}"
        try:
            single = post_job(base, body)
        finally:
            server.shutdown()
            thread.join(timeout=10)
            app.close()
        if single.get("status") != "done":
            print(f"fleet-smoke: single-daemon run failed: {single}", file=sys.stderr)
            return 1
        # -- the fleet: coordinator + N workers, cold shards ------------
        n_workers = args.fleet or 3
        args_cache_dir = args.cache_dir
        try:
            args.cache_dir = f"{tmp}/fleet"
            fleet = _make_fleet(args, n_workers=n_workers, backend="inline")
        finally:
            args.cache_dir = args_cache_dir
        try:
            first = post_job(fleet.base_url, body)
            second = post_job(fleet.base_url, body)
            workers_line = ", ".join(
                f"{wid}: {member.app.cache.entry_count()} entries"
                for wid, member in sorted(fleet.workers.items())
            )
        finally:
            fleet.close()
    for name, doc in (("first", first), ("second", second)):
        if doc.get("status") != "done":
            print(f"fleet-smoke: {name} fleet run failed: {doc}", file=sys.stderr)
            return 1
    single_payload = json.dumps(single["result"], sort_keys=True)
    for name, doc in (("first", first), ("second", second)):
        if json.dumps(doc["result"], sort_keys=True) != single_payload:
            print(
                f"fleet-smoke: {name} federated result differs from the "
                f"single-daemon run", file=sys.stderr,
            )
            return 1
    stats = second["cache"]
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    print(second["result"]["rendered"])
    print(f"fleet-smoke {args.fleet_smoke}: {n_workers} workers; shards: {workers_line}")
    print(
        f"fleet-smoke {args.fleet_smoke}: federated output byte-identical to "
        f"single daemon; resubmit {stats['hits']}/{lookups} cache-served "
        f"({rate:.0%}, {stats['remote_hits']} via replicas)"
    )
    if rate < 0.95:
        print("fleet-smoke: resubmit cache-served rate under 95%", file=sys.stderr)
        return 1
    return 0


def run_loadgen_cmd(args) -> int:
    """Spin up a local fleet and drive it with the load generator."""
    import tempfile

    from repro.service.fleet import run_loadgen

    with tempfile.TemporaryDirectory(prefix="ksr-loadgen-fleet-") as tmp:
        args_cache_dir = args.cache_dir
        try:
            args.cache_dir = args.cache_dir or tmp
            # A loadgen fleet needs headroom: deep queue, many executor
            # threads, or the generator only ever measures 429s.
            fleet = _make_fleet(
                args,
                queue_cap=max(args.queue_cap, args.loadgen_clients),
                exec_workers=16,
            )
        finally:
            args.cache_dir = args_cache_dir
        try:
            print(
                f"loadgen: {args.loadgen_clients} clients / "
                f"{args.loadgen_processes} processes for "
                f"{args.loadgen_duration}s against {fleet.base_url} "
                f"({len(fleet.workers)} workers)"
            )
            report = run_loadgen(
                fleet.base_url,
                clients=args.loadgen_clients,
                processes=args.loadgen_processes,
                duration_s=args.loadgen_duration,
                tenants=args.loadgen_tenants,
                out_path=args.loadgen_out,
            )
        finally:
            fleet.close(drain_deadline=args.drain_deadline)
    totals, latency = report["totals"], report["latency_ms"]
    print(
        f"loadgen: {totals['completed']} jobs done "
        f"({totals['throughput_jobs_per_s']}/s), "
        f"{totals['rejected']} rejected, {totals['errors']} errors"
    )
    print(
        f"loadgen: latency p50 {latency['p50']}ms / p90 {latency['p90']}ms / "
        f"p99 {latency['p99']}ms"
    )
    print(
        f"loadgen: cache-served {report['cache']['served_fraction']:.1%}, "
        f"coalesce rate {report['coalesce']['rate']:.1%}, "
        f"fairness (Jain) {report['fairness']['jain_index']}"
    )
    print(f"loadgen: report written to {args.loadgen_out}")
    if totals["completed"] == 0:
        print("loadgen: no job completed", file=sys.stderr)
        return 1
    return 0


def _fleet_auth(args):
    """Shared-secret auth from ``--fleet-token`` or ``$KSR_FLEET_TOKEN``."""
    import os

    from repro.service.fleet import FleetAuth
    from repro.service.fleet.wire import FLEET_TOKEN_ENV

    token = args.fleet_token or os.environ.get(FLEET_TOKEN_ENV) or None
    return FleetAuth(token)


def _fleet_get(
    base: str, path: str, *, token: str | None = None, timeout: float = 10.0
) -> tuple[int, dict]:
    """GET a JSON surface, optionally presenting the fleet token."""
    import urllib.error

    from repro.service.fleet.wire import FLEET_TOKEN_HEADER

    headers = {FLEET_TOKEN_HEADER: token} if token else {}
    request = urllib.request.Request(base + path, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _poll_until(deadline_s: float, probe, interval: float = 0.2):
    """Re-run ``probe`` until it returns truthy or the deadline passes."""
    import time

    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            result = probe()
        except OSError:
            result = None  # endpoint not up yet; keep polling
        if result:
            return result
        time.sleep(interval)
    return None


def run_worker(args) -> int:
    """``ksr-serve --worker --join URL``: one standalone fleet worker."""
    import os
    import socket
    from pathlib import Path

    from repro.service.fleet import FleetWorkerApp, Registrar, make_worker_server

    if not args.join:
        raise SystemExit("--worker requires --join COORDINATOR_URL")
    auth = _fleet_auth(args)
    backend = args.backend or (f"process:{args.jobs}" if args.jobs else "inline")
    worker_id = args.worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
    root = args.cache_dir or default_root()
    # An explicit --cache-dir IS the shard; the default root gets a
    # per-worker subdirectory so co-hosted workers never share a shard.
    cache_dir = root if args.cache_dir else str(Path(root) / worker_id)
    cap = int(args.cache_cap_mb * 1024 * 1024) if args.cache_cap_mb else None
    app = FleetWorkerApp(
        cache_dir,
        worker_id=worker_id,
        backend=backend,
        cap_bytes=cap,
        workers=args.workers,
        queue_cap=args.queue_cap,
        max_points=args.max_points,
        max_batch=args.max_batch,
        auth=auth,
    )
    server = make_worker_server(app, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.server_address[1]
    advertised = (args.advertise or f"http://{host}:{port}").rstrip("/")
    registrar = Registrar(app, args.join, advertised,
                          interval=args.register_interval)
    registrar.start()
    print(f"ksr-serve worker {worker_id} listening on http://{host}:{port}")
    print(f"  joining {args.join} as {advertised} "
          f"(re-register every {args.register_interval:.0f}s)")
    print(f"  shard {cache_dir}, "
          f"auth {'on' if auth.enabled else 'OFF (open fleet plane)'}")

    def close() -> int:
        registrar.stop()
        return app.close(drain_deadline=args.drain_deadline)

    return _serve_until_signal(
        f"ksr-serve worker {worker_id}", server, close, args.drain_deadline
    )


def run_coordinator(args) -> int:
    """``ksr-serve --coordinator``: the fleet front door, starting empty."""
    from repro.service.app import ServiceApp
    from repro.service.fleet import FleetClient, make_coordinator_server

    auth = _fleet_auth(args)
    client = FleetClient(
        replication=args.replication,
        dead_interval=args.dead_interval,
        auth=auth,
    )
    coordinator = ServiceApp(
        backend=client,
        workers=max(args.workers, 4),
        queue_cap=args.queue_cap,
        max_points=args.max_points,
        max_batch=args.max_batch,
    )
    client.start_heartbeat(2.0)
    server = make_coordinator_server(
        coordinator, args.host, args.port, verbose=args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    print(f"ksr-serve coordinator listening on http://{host}:{port}")
    print(f"  fleet starts empty; workers join via "
          f"`ksr-serve --worker --join http://{host}:{port}`")
    print(f"  replication {args.replication}, "
          f"dead interval {args.dead_interval:.0f}s, "
          f"auth {'on' if auth.enabled else 'OFF (open fleet plane)'}")
    return _serve_until_signal(
        "ksr-serve coordinator",
        server,
        lambda: coordinator.close(drain_deadline=args.drain_deadline),
        args.drain_deadline,
    )


def run_multihost_smoke(args) -> int:
    """Multi-host CI self-test: real worker OS processes join the fleet.

    Starts a coordinator with an empty fleet, spawns
    ``--multihost-workers`` separate ``ksr-serve --worker --join``
    processes that register over real sockets, then proves the
    multi-host contract end to end:

    1. tokenless fleet-plane requests are rejected (401);
    2. a campaign served by the registered fleet is byte-identical to
       a single-daemon run;
    3. SIGKILLing a populated worker past the dead interval triggers
       re-replication that restores the replication factor
       (``under_replicated == 0`` again), and a resubmitted campaign
       still completes, cache-served — no job lost.

    The before/after replication reports land in
    ``--multihost-stats-out`` as a CI artifact.
    """
    import os
    import subprocess
    import tempfile

    from repro.service.app import ServiceApp, make_server
    from repro.service.fleet import FleetAuth, FleetClient, make_coordinator_server
    from repro.service.fleet.wire import FLEET_TOKEN_ENV

    n_workers = args.multihost_workers
    token = (args.fleet_token or os.environ.get(FLEET_TOKEN_ENV)
             or FleetAuth.generate().secret)
    body = {"kind": "experiment", "experiment": args.multihost_smoke,
            "wait": True}

    def fail(message: str) -> int:
        print(f"multihost-smoke: {message}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="ksr-multihost-") as tmp:
        # -- reference: one daemon, cold cache --------------------------
        app = ServiceApp(f"{tmp}/single", backend="inline", workers=2)
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{server.server_address[0]}:{server.server_address[1]}"
        try:
            single = post_job(base, body)
        finally:
            server.shutdown()
            thread.join(timeout=10)
            app.close()
        if single.get("status") != "done":
            return fail(f"single-daemon reference failed: {single}")
        single_payload = json.dumps(single["result"], sort_keys=True)

        # -- the fleet: in-process coordinator, subprocess workers ------
        client = FleetClient(
            replication=args.replication,
            dead_interval=args.dead_interval,
            health_timeout=2.0,
            auth=FleetAuth(token),
        )
        coordinator = ServiceApp(
            backend=client,
            workers=4,
            queue_cap=args.queue_cap,
            max_points=args.max_points,
        )
        client.start_heartbeat(0.5)
        coord_server = make_coordinator_server(coordinator, "127.0.0.1", 0)
        coord_thread = threading.Thread(
            target=coord_server.serve_forever, daemon=True
        )
        coord_thread.start()
        coord = (f"http://{coord_server.server_address[0]}"
                 f":{coord_server.server_address[1]}")
        env = dict(os.environ)
        env[FLEET_TOKEN_ENV] = token
        procs: list[subprocess.Popen] = []
        try:
            for i in range(n_workers):
                procs.append(subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.service.cli",
                        "--worker", "--join", coord,
                        "--worker-id", f"mh-worker-{i}",
                        "--port", "0",
                        "--backend", "inline",
                        "--cache-dir", f"{tmp}/mh-worker-{i}",
                        "--register-interval", "1",
                    ],
                    env=env,
                ))
            status, _ = _fleet_get(coord, "/v1/fleet/workers")
            if status != 401:
                return fail(f"tokenless fleet request got {status}, want 401")

            def registered():
                status, doc = _fleet_get(
                    coord, "/v1/fleet/workers", token=token
                )
                if status == 200 and len(doc.get("alive", [])) == n_workers:
                    return doc
                return None

            members = _poll_until(60.0, registered)
            if members is None:
                return fail(f"{n_workers} workers never registered")
            print(f"multihost-smoke: {n_workers} worker processes joined: "
                  f"{', '.join(members['alive'])}")

            first = post_job(coord, body)
            if first.get("status") != "done":
                return fail(f"federated run failed: {first}")
            if json.dumps(first["result"], sort_keys=True) != single_payload:
                return fail("federated result differs from single daemon")
            print("multihost-smoke: federated output byte-identical to "
                  "single daemon")

            # Wait for async replication to land: every key at factor.
            def settled():
                status, doc = _fleet_get(
                    coord, "/v1/fleet/replication", token=token
                )
                if (status == 200 and doc.get("keys", 0) > 0
                        and doc["under_replicated"] == 0):
                    return doc
                return None

            before = _poll_until(30.0, settled)
            if before is None:
                return fail("replication never reached the full factor")
            print(f"multihost-smoke: {before['keys']} keys at replication "
                  f"{before['replication']} across {before['alive']} workers")

            # SIGKILL a worker that actually holds entries.
            victim = None
            for wid, info in members["workers"].items():
                status, doc = _fleet_get(
                    info["base_url"], "/v1/fleet/keys", token=token
                )
                if status == 200 and doc["count"] > 0:
                    victim = wid
                    break
            if victim is None:
                return fail("no worker holds any entry; nothing to kill")
            procs[int(victim.rsplit("-", 1)[1])].kill()
            print(f"multihost-smoke: SIGKILLed {victim}; waiting out the "
                  f"{args.dead_interval:.0f}s dead interval")

            def repaired():
                status, doc = _fleet_get(coord, "/v1/stats", token=token)
                if status != 200:
                    return None
                fleet = doc["fleet"]
                report = fleet.get("replication_status") or {}
                if (fleet["repairs"] >= 1
                        and victim not in fleet["alive"]
                        and report.get("alive") == n_workers - 1
                        and report.get("keys", 0) > 0
                        and report.get("under_replicated") == 0):
                    return fleet
                return None

            fleet = _poll_until(args.dead_interval + 60.0, repaired)
            if fleet is None:
                return fail("re-replication never restored the factor")
            after = fleet["replication_status"]
            print(f"multihost-smoke: re-replication restored the factor "
                  f"({fleet['re_replicated']} entries pushed, "
                  f"{after['keys']} keys, 0 under-replicated)")

            second = post_job(coord, body)
            if second.get("status") != "done":
                return fail(f"post-kill resubmission failed: {second}")
            if json.dumps(second["result"], sort_keys=True) != single_payload:
                return fail("post-kill result differs from single daemon")
            stats = second["cache"]
            lookups = stats["hits"] + stats["misses"]
            rate = stats["hits"] / lookups if lookups else 0.0
            print(f"multihost-smoke: post-kill resubmit {stats['hits']}/"
                  f"{lookups} cache-served ({rate:.0%}); no job lost")
            if rate < 0.95:
                return fail("post-kill resubmit cache-served rate under 95%")

            artifact = {
                "benchmark": "multihost-smoke",
                "experiment": args.multihost_smoke,
                "workers": n_workers,
                "auth": True,
                "victim": victim,
                "replication_before": before,
                "replication_after": after,
                "repairs": fleet["repairs"],
                "re_replicated": fleet["re_replicated"],
                "registrations": fleet["registrations"],
                "cache_served_rate": round(rate, 4),
            }
            with open(args.multihost_stats_out, "w", encoding="utf-8") as fh:
                json.dump(artifact, fh, indent=2, sort_keys=True)
            print(f"multihost-smoke: stats written to "
                  f"{args.multihost_stats_out}")
            return 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
            coord_server.shutdown()
            coord_thread.join(timeout=10)
            coordinator.close(drain_deadline=5)


def _serve_until_signal(serve_label: str, server, close, deadline: float) -> int:
    """Run ``server`` until SIGTERM/SIGINT, then drain gracefully."""
    stop = threading.Event()

    def on_signal(signum, frame):  # pragma: no cover - signal plumbing
        stop.set()

    try:
        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    print(f"{serve_label}: draining (deadline {deadline:.0f}s)")
    server.shutdown()
    thread.join(timeout=10)
    stranded = close()
    if stranded:
        print(f"{serve_label}: exited with {stranded} job(s) unfinished",
              file=sys.stderr)
        return 1
    print(f"{serve_label}: clean shutdown")
    return 0


def run_fleet_serve(args) -> int:
    """``ksr-serve --fleet N``: a local fleet behind one coordinator port."""
    from repro.service.fleet import make_coordinator_server

    fleet = _make_fleet(args)
    # Re-bind the coordinator onto the requested public port.
    coordinator = fleet.coordinator
    fleet._coord.server.shutdown()
    fleet._coord.server.server_close()
    fleet._coord.thread.join(timeout=10)
    server = make_coordinator_server(
        coordinator, args.host, args.port, verbose=args.verbose
    )
    host, port = server.server_address[0], server.server_address[1]
    print(f"ksr-serve fleet listening on http://{host}:{port}")
    for wid, url in sorted(fleet.worker_urls().items()):
        print(f"  {wid} at {url}")
    print(f"  replication {args.replication}, queue cap {args.queue_cap}")

    def close() -> int:
        stranded = coordinator.close(drain_deadline=args.drain_deadline)
        for member in fleet.workers.values():
            member.stop(drain_deadline=args.drain_deadline)
        return stranded

    return _serve_until_signal("ksr-serve fleet", server, close, args.drain_deadline)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-serve``."""
    install_sigpipe_handler()
    args = build_serve_parser().parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.fleet_smoke:
        return run_fleet_smoke(args)
    if args.multihost_smoke:
        return run_multihost_smoke(args)
    if args.loadgen:
        return run_loadgen_cmd(args)
    if args.worker:
        return run_worker(args)
    if args.coordinator:
        return run_coordinator(args)
    if args.fleet:
        return run_fleet_serve(args)
    from repro.service.app import make_server

    app = _make_app(args)
    server = make_server(app, args.host, args.port, verbose=args.verbose)
    host, port = server.server_address[0], server.server_address[1]
    print(f"ksr-serve listening on http://{host}:{port}")
    print(f"  backend {app.scheduler.backend.name}, "
          f"{app.scheduler.stats()['workers']} workers, "
          f"queue cap {app.scheduler.queue_cap}")
    print(f"  {format_cache_stats(app.cache.stats())}")
    return _serve_until_signal(
        "ksr-serve",
        server,
        lambda: app.close(drain_deadline=args.drain_deadline),
        args.drain_deadline,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
