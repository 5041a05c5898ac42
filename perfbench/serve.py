"""The ``serve`` workload: ``ksr-serve`` driven over its public HTTP API.

The server is ``python -m repro.service.cli --port 0 --cache-dir DIR``
(the ``ksr-serve`` console script) with every other flag at its
default, in its own process.  The load is one closed-loop client in
this process.  It holds one persistent HTTP/1.1 connection — how
session clients talk to an HTTP/1.1 server — and sends
``"wait": true`` ``point`` jobs.  With two clients, their jobs contend
for the server's interpreter lock, and the median round trip jumps
between modes from run to run.

* *cold phase* — distinct seeds, so every job computes and stores;
* *warm phase* — resubmits of those specs, so every job is a cache hit.

Before the server starts, its shard is pre-filled through the public
cache API so that exactly ``RESIDENT`` entries are resident when the
warm phase starts: a cache of realistic size, not an empty one.

Why: the HTTP, scheduler and result-cache layers land here, and
simulator changes barely register.  Two serving costs dominated when
this benchmark was written, and later changes can claim against this
workload without editing it:

* *keep-alive stall* — ``_Handler._reply`` writes headers and body as
  two ``send`` calls; on a persistent connection Nagle's algorithm plus
  the client's delayed ACK hold the body for ~40 ms;
* *O(entries) jobs* — ``Scheduler._run_job`` calls
  ``ShardedResultCache.stats()`` before and after every job, and
  ``stats()`` globs and stats every resident entry.

The client works around neither (no ``TCP_NODELAY``, no fresh
connections, no smaller cache).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import pstats
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

import hostref
import profattr
from metrics import SERVICE_MODULES, percentile

__all__ = ["run", "trace_run", "RESIDENT"]

#: Resident cache entries when the warm phase starts.
RESIDENT = 300
#: ``point`` job parameters other than the seed (the served defaults).
POINT = {"lock": "rw", "n_procs": 8, "read_fraction": 0.0, "ops": 10, "fault_rate": 0.0}
#: Jobs per batch; the host reference loop runs between batches.
BATCH = 25
#: Server spawns timed per run for ``setup_s`` (the median is reported).
SPAWNS = 3
_LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_launcher.py")
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
#: Modules the benchmark process imports before the first job.
_IMPORTS = ["numpy", "repro.service.cache2", "repro.experiments.degraded", "repro.experiments.sweep"]


def sizes(seconds: float) -> tuple[int, int]:
    """``(cold, warm)`` job counts: fixed by ``seconds``, not by host speed.

    Each percentile keeps at least ten samples beyond it at the
    benchmark's run length (p90 of cold, p95 of warm).
    """
    return max(10, round(6.25 * seconds)), max(20, round(12.5 * seconds))


class Server:
    """One ``ksr-serve`` subprocess, optionally under the profiling launcher."""

    def __init__(self, root: str, cache_dir: str, log_path: str, profile_path: str | None = None):
        args = ["--port", "0", "--cache-dir", cache_dir]
        if profile_path is None:
            cmd = [sys.executable, "-m", "repro.service.cli", *args]
        else:
            cmd = [sys.executable, _LAUNCHER, profile_path, *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONUNBUFFERED="1")
        start = time.perf_counter()
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     cwd=root, env=env)
        try:
            self.host, self.port = self._await_listening(log_path)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _await_listening(self, log_path: str, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        with open(log_path, encoding="utf-8") as fh:
            raise RuntimeError(f"ksr-serve did not start: {fh.read()[-2000:]}")

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS (``VmHWM``) of the server and its descendants."""
        total_kb, todo = 0, [self.proc.pid]
        while todo:
            pid = todo.pop()
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                    total_kb += next(int(line.split()[1]) for line in fh
                                     if line.startswith("VmHWM:"))
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except (OSError, StopIteration):
                continue
        return total_kb / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection; records a span per request."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.spans: list[dict[str, Any]] = []

    def call(self, method: str, path: str, body: dict[str, Any] | None = None,
             phase: str = "") -> tuple[int, dict[str, Any], float]:
        """One request; returns ``(status, doc, round-trip seconds)``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        connected = start
        if self.conn.sock is None:
            self.conn.connect()
            connected = time.perf_counter()
        self.conn.request(method, path, body=payload,
                          headers={"Content-Type": "application/json"})
        sent = time.perf_counter()
        response = self.conn.getresponse()
        headers = time.perf_counter()
        data = response.read()
        end = time.perf_counter()
        doc = json.loads(data or b"null")
        self.spans.append({
            "phase": phase, "id": doc.get("job_id", path),
            "status": response.status, "start": start,
            "connect_s": connected - start, "send_s": sent - connected,
            "response_s": headers - sent, "read_s": end - headers, "rtt_s": end - start,
            "server_s": doc.get("seconds"),
        })
        return response.status, doc, end - start

    def submit(self, seed: int, phase: str) -> tuple[int, dict[str, Any], float]:
        body = {"kind": "point", "params": {**POINT, "seed": seed}, "wait": True}
        return self.call("POST", "/v1/jobs", body, phase)

    def close(self) -> None:
        self.conn.close()


def _phase(client: Client, seeds: list[int], phase: str,
           ref: hostref.HostReference) -> tuple[list[dict], float]:
    """All jobs of a phase, in batches: a reference bracket runs before
    every batch and after the last.  Returns the jobs (empty for a
    request that failed) and the phase's wall time without the brackets."""
    jobs: list[dict[str, Any]] = []
    wall = 0.0
    for lo in range(0, len(seeds), BATCH):
        ref.bracket()
        start = time.perf_counter()
        for seed in seeds[lo:lo + BATCH]:
            try:
                status, doc, rtt = client.submit(seed, phase)
            except (OSError, http.client.HTTPException, ValueError):
                client.close()  # the next request reconnects
                jobs.append({})
                continue
            jobs.append({"seed": seed, "status": status, "doc": doc, "rtt": rtt})
        wall += time.perf_counter() - start
    ref.bracket()
    return jobs, wall


def _result_bytes(job: dict[str, Any]) -> bytes:
    return json.dumps(job["doc"].get("result"), sort_keys=True).encode("utf-8")


def _job_ok(job: dict[str, Any], warm: bool, cold_result: bytes | None = None) -> bool:
    """200/``done``; cold jobs compute, warm jobs hit and match the cold bytes."""
    doc = job.get("doc", {})
    if job.get("status") != 200 or doc.get("status") != "done":
        return False
    cache = doc.get("cache", {})
    if warm:
        return cache.get("hits", 0) >= 1 and cache.get("misses", 1) == 0 \
            and _result_bytes(job) == cold_result
    return cache.get("misses", 0) >= 1 and cache.get("hits", 1) == 0


def _prefill(cache_dir: str, count: int, seed: int) -> None:
    """Store ``count`` entries through the public cache API.

    The value is a real ``point`` result; the keys are digests of a
    private namespace, so no job of the run can ever read one.
    """
    from repro.experiments.degraded import degraded_lock_point
    from repro.service.cache2 import ShardedResultCache

    value = degraded_lock_point(kind=POINT["lock"], n_procs=POINT["n_procs"],
                                read_fraction=POINT["read_fraction"], ops=POINT["ops"],
                                seed=seed)
    cache = ShardedResultCache(cache_dir)
    meta = {"func": "repro.experiments.degraded.degraded_lock_point"}
    for i in range(count):
        key = hashlib.sha256(f"perfbench-prefill/{seed}/{i}".encode()).hexdigest()
        cache.store(key, value, meta=meta)


class Session:
    """Set-up, both phases and the shutdown of one server."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 ref: hostref.HostReference, profile_path: str | None = None):
        self.root, self.workdir, self.ref = root, workdir, ref
        self.profile_path = profile_path
        self.cache_dir = os.path.join(workdir, "cache")
        os.makedirs(workdir, exist_ok=True)
        self.n_cold, self.n_warm = sizes(seconds)
        picks = random.Random(f"serve/{seed}").sample(range(1, 2**31), self.n_cold + 2)
        self.cold_seeds, self.warmup_seed, self.prefill_seed = picks[:-2], picks[-2], picks[-1]

    def _spawn(self, tag: str, profile_path: str | None = None) -> Server:
        return Server(self.root, self.cache_dir, os.path.join(self.workdir, f"server-{tag}.log"),
                      profile_path)

    def run(self, timed_spawns: int) -> dict[str, Any]:
        """Prefill, start the server, warm up, run both phases, stop."""
        start = time.perf_counter()
        _prefill(self.cache_dir, RESIDENT - self.n_cold - 1, self.prefill_seed)
        prefill_s = time.perf_counter() - start
        spawn_s = []
        for n in range(timed_spawns - 1):
            probe = self._spawn(f"probe{n}")
            spawn_s.append(probe.ready_s)
            probe.stop()
        server = self._spawn("main", self.profile_path)
        spawn_s.append(server.ready_s)
        client = Client(server.host, server.port)
        try:
            start = time.perf_counter()
            first = client.submit(self.warmup_seed, "warmup")
            again = client.submit(self.warmup_seed, "warmup")
            warmup_s = time.perf_counter() - start
            if first[0] != 200 or again[0] != 200:
                raise RuntimeError(f"warm-up job failed: {first[1]} / {again[1]}")
            cold, cold_wall = _phase(client, self.cold_seeds, "cold", self.ref)
            status, stats_doc, _ = client.call("GET", "/v1/stats", phase="stats")
            entries = stats_doc["cache"]["entries"] if status == 200 else -1
            warm_seeds = [self.cold_seeds[j % self.n_cold] for j in range(self.n_warm)]
            warm, warm_wall = _phase(client, warm_seeds, "warm", self.ref)
            status, end_stats, _ = client.call("GET", "/v1/stats", phase="stats")
            rss_mb = server.peak_rss_mb()
        finally:
            client.close()
            server.stop()
        cold_bytes = {job["seed"]: _result_bytes(job) for job in cold if job}
        failed = sum(not _job_ok(job, False) for job in cold)
        failed += sum(not _job_ok(job, True, cold_bytes.get(job.get("seed"))) for job in warm)
        if entries != RESIDENT:
            failed += 1  # the workload property did not hold; count it against the run
        return {
            "cold": cold, "warm": warm, "cold_wall": cold_wall, "warm_wall": warm_wall,
            "prefill_s": prefill_s, "spawn_s": spawn_s, "warmup_s": warmup_s,
            "entries": entries, "end_stats": end_stats.get("scheduler", {}),
            "rss_mb": rss_mb, "failed": failed, "cold_bytes": cold_bytes,
            "spans": client.spans,
        }


def _ms(jobs: list[dict]) -> list[float]:
    return [job["rtt"] * 1e3 for job in jobs if job]


def _workdir(root: str, tag: str) -> str:
    path = os.path.join(root, ".perfbench-run", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run(seed: int, seconds: float, root: str) -> dict[str, Any]:
    """Untraced run: end-to-end metrics and correctness."""
    workdir = _workdir(root, "serve")
    try:
        imports_s = hostref.import_seconds(_IMPORTS, os.path.join(root, "src"))
        ref = hostref.HostReference()
        session = Session(root, workdir, seed, seconds, ref)
        out = session.run(SPAWNS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cold, warm = _ms(out["cold"]), _ms(out["warm"])
    setup_s = imports_s + out["prefill_s"] + statistics.median(out["spawn_s"]) + out["warmup_s"]
    return {
        "metrics": {
            "setup_s": setup_s,
            "wall_norm": (out["cold_wall"] + out["warm_wall"]) / sum(ref.brackets),
            "peak_rss_mb": out["rss_mb"],
            "cold_job_p50_ms": percentile(cold, 50),
            "cold_job_p90_ms": percentile(cold, 90),
            "warm_job_p50_ms": percentile(warm, 50),
            "warm_job_p95_ms": percentile(warm, 95),
            "warm_jobs_per_s": len(warm) / out["warm_wall"],
        },
        "attempted": session.n_cold + session.n_warm,
        "failed": out["failed"],
        "samples": {"cold_jobs": len(cold), "warm_jobs": len(warm), "ref_loops": len(ref.samples)},
        "cache_entries": out["entries"],
        "host_ref_ms": ref.median_ms(),
        "wall_s": out["cold_wall"] + out["warm_wall"],
    }


def _server_ms(jobs: list[dict]) -> list[float]:
    return [job["doc"]["seconds"] * 1e3 for job in jobs if job and "seconds" in job["doc"]]


def _service_group(filename: str) -> str | None:
    """A ``repro.service`` module name, ``simulator`` for the rest of the
    program, None for the standard library (charged to its callers)."""
    group = profattr.service_module(filename)
    if group is None:
        return None
    return group.removeprefix("repro.service.") if group.startswith("repro.service.") \
        else "simulator"


def trace_run(seed: int, seconds: float, root: str) -> dict[str, Any]:
    """Traced run: one plain session, then one with the server profiled.

    Per-request spans come from both; latency splits from the plain
    session (the profiler would inflate them), self time from the
    profiled one.  Both sessions must return byte-identical payloads.
    """
    workdir = _workdir(root, "serve-trace")
    try:
        ref = hostref.HostReference()
        plain = Session(root, os.path.join(workdir, "plain"), seed, seconds, ref)
        base = plain.run(1)
        profile_path = os.path.join(workdir, "server.prof")
        traced = Session(root, os.path.join(workdir, "traced"), seed, seconds, ref, profile_path)
        again = traced.run(1)
        stats = pstats.Stats(profile_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = base["failed"] + again["failed"]
    failed += sum(again["cold_bytes"].get(s) != b for s, b in base["cold_bytes"].items())
    groups = profattr.self_times(stats, _service_group)
    warm_overhead = [
        (job["rtt"] - job["doc"]["seconds"]) * 1e3
        for job in base["warm"] if job and "seconds" in job["doc"]
    ]

    def ratio(jobs: list[dict], key: str) -> float:
        hits = sum(job["doc"].get("cache", {}).get(key, 0) for job in jobs if job)
        total = sum(job["doc"].get("cache", {}).get(k, 0)
                    for job in jobs if job for k in ("hits", "misses"))
        return hits / total if total else 0.0

    plain_wall = base["cold_wall"] + base["warm_wall"]
    layer = {
        "scheduler.cold_exec_ms_p50": percentile(_server_ms(base["cold"]), 50),
        "scheduler.warm_exec_ms_p50": percentile(_server_ms(base["warm"]), 50),
        "http.warm_overhead_ms_p50": percentile(warm_overhead, 50),
        "cache.entries": base["entries"],
        "cache.warm_hit_ratio": ratio(base["warm"], "hits"),
        "cache.cold_miss_ratio": ratio(base["cold"], "misses"),
        "scheduler.coalesced": base["end_stats"].get("coalesced", 0),
        "scheduler.rejected": base["end_stats"].get("rejected", 0),
        **{f"service.self_s.{module}": groups.get(module, 0.0) for module in SERVICE_MODULES},
        "host.ref_ms": ref.median_ms(),
        "host.wall_s": plain_wall,
        "host.tracing_overhead": (again["cold_wall"] + again["warm_wall"]) / plain_wall,
    }
    profiled = sum(groups.values())
    return {
        "metrics": layer,
        "attempted": 2 * (plain.n_cold + plain.n_warm),
        "failed": failed,
        "trace": {
            "spans": {"plain": base["spans"], "profiled": again["spans"]},
            "self_time_share": {g: t / profiled for g, t in sorted(groups.items())},
        },
    }
