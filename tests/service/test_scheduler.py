"""Scheduler: lifecycle, admission control, coalescing, determinism."""

from __future__ import annotations

import threading

import pytest

from repro.experiments.locks import run_figure3
from repro.service.backends import InlineBackend
from repro.service.cache2 import ShardedResultCache
from repro.service.jobs import JobSpec, ServiceError
from repro.service.scheduler import RejectedError, Scheduler


def make_scheduler(tmp_path, **kwargs):
    cache = ShardedResultCache(tmp_path / "cache")
    kwargs.setdefault("workers", 1)
    return Scheduler(InlineBackend(), cache, **kwargs)


def point_spec(**params) -> JobSpec:
    return JobSpec.from_request({"kind": "point", "params": params})


class TestLifecycle:
    def test_point_job_completes(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            job = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert job.wait(120)
            assert job.status == "done"
            assert job.payload is not None and job.payload["seconds"] > 0
            assert job.cache["misses"] == 1 and job.cache["hits"] == 0
        finally:
            scheduler.close()

    def test_resubmit_served_from_cache(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            first = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert first.wait(120)
            second = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert second.wait(120)
            assert second.payload == first.payload
            assert second.cache["hits"] == 1 and second.cache["misses"] == 0
        finally:
            scheduler.close()

    def test_failed_job_reports_error(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            # dead-simple failure: a lock kind the point fn rejects at
            # run time is impossible (validated at parse), so drive a
            # genuine runtime error through an invalid machine size
            job = scheduler.submit(point_spec(n_procs=0, ops=3))
            assert job.wait(120)
            assert job.status == "failed"
            assert job.error
        finally:
            scheduler.close()

    def test_experiment_payload_matches_direct_run(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            spec = JobSpec.from_request({
                "kind": "experiment", "experiment": "fig3",
                "params": {"procs": [2], "ops": 3},
            })
            job = scheduler.submit(spec)
            assert job.wait(300)
            assert job.status == "done"
            direct = run_figure3(proc_counts=[2], ops=3)
            assert job.payload["rendered"] == direct.render()
            assert job.payload["rows"] == direct.rows
        finally:
            scheduler.close()

    def test_obs_request_carries_capture_summaries(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            spec = JobSpec.from_request(
                {"kind": "point", "params": {"n_procs": 2, "ops": 3}, "obs": True}
            )
            job = scheduler.submit(spec)
            assert job.wait(120)
            assert job.status == "done"
            assert len(job.obs) == 1
            summary = job.obs[0]
            assert summary["n_cells"] >= 2
            assert "ring_transactions" in summary["totals"]
        finally:
            scheduler.close()


def _gate_execute(monkeypatch, gate: threading.Event, entered: threading.Event | None = None):
    """Make any job with ops=999 park until ``gate`` is set.

    ``entered`` (when given) is set once a parked job has started executing.
    """
    original = JobSpec.execute

    def execute(self, runner):
        if self.param_dict().get("ops") == 999:
            if entered is not None:
                entered.set()
            gate.wait(120)
            return {"blocked": True}
        return original(self, runner)

    monkeypatch.setattr(JobSpec, "execute", execute)


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(self, tmp_path, monkeypatch):
        scheduler = make_scheduler(tmp_path, queue_cap=1)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            blocked = scheduler.submit(point_spec(ops=999))  # parks the worker
            with pytest.raises(RejectedError) as err:
                scheduler.submit(point_spec(ops=4))
            assert err.value.status == 429
            assert err.value.retry_after >= 1.0
            assert scheduler.rejected == 1
            gate.set()
            assert blocked.wait(120)
        finally:
            gate.set()
            scheduler.close()

    def test_oversized_job_refused_up_front(self, tmp_path):
        scheduler = make_scheduler(tmp_path, max_points=5)
        try:
            spec = JobSpec.from_request({
                "kind": "campaign",
                "params": {"procs": [2, 4, 8], "rates": [0.0, 1e-5, 1e-4]},
            })
            with pytest.raises(ServiceError) as err:
                scheduler.submit(spec)
            assert err.value.status == 413
        finally:
            scheduler.close()

    def test_identical_concurrent_submissions_coalesce(self, tmp_path, monkeypatch):
        scheduler = make_scheduler(tmp_path, queue_cap=4)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        try:
            first = scheduler.submit(point_spec(ops=999))
            second = scheduler.submit(point_spec(ops=999))
            assert second is first, "identical in-flight spec must coalesce"
            assert scheduler.stats()["coalesced"] == 1
            gate.set()
            assert first.wait(120) and first.status == "done"
        finally:
            gate.set()
            scheduler.close()

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        scheduler = make_scheduler(tmp_path, queue_cap=4)
        try:
            a = scheduler.submit(point_spec(ops=3))
            b = scheduler.submit(point_spec(ops=4))
            assert b is not a
            assert a.wait(120) and b.wait(120)
        finally:
            scheduler.close()


class TestConcurrentAdmission:
    """Many threads slam the scheduler with identical specs at once."""

    def test_identical_specs_from_many_threads_coalesce_to_one_job(
        self, tmp_path, monkeypatch
    ):
        scheduler = make_scheduler(tmp_path, queue_cap=4)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        jobs: list = [None] * n_threads

        def slam(index: int) -> None:
            barrier.wait(timeout=30)
            jobs[index] = scheduler.submit(point_spec(ops=999))

        try:
            threads = [
                threading.Thread(target=slam, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            # every submitter holds the SAME in-flight job object
            assert all(job is jobs[0] for job in jobs)
            assert scheduler.stats()["coalesced"] == n_threads - 1
            assert scheduler.stats()["submitted"] == n_threads
            gate.set()
            assert jobs[0].wait(120) and jobs[0].status == "done"
            # one execution, observed by everyone
            assert scheduler.stats()["completed"] == 1
        finally:
            gate.set()
            scheduler.close()

    def test_concurrent_overflow_rejections_price_retry_after(
        self, tmp_path, monkeypatch
    ):
        scheduler = make_scheduler(tmp_path, queue_cap=2)
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        outcomes: list = [None] * n_threads

        def slam(index: int) -> None:
            barrier.wait(timeout=30)
            try:
                # distinct specs: no coalescing, pure queue pressure
                outcomes[index] = scheduler.submit(point_spec(ops=999, seed=index))
            except RejectedError as exc:
                outcomes[index] = exc

        try:
            # ops=999 parks the single worker, so accepted jobs pile up
            threads = [
                threading.Thread(target=slam, args=(i,)) for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            rejections = [o for o in outcomes if isinstance(o, RejectedError)]
            accepted = [o for o in outcomes if not isinstance(o, RejectedError)]
            assert len(accepted) == 2, "accepted set must respect queue_cap"
            assert len(rejections) == n_threads - 2
            for rejection in rejections:
                assert rejection.status == 429
                assert rejection.retry_after >= 1.0
            assert scheduler.rejected == len(rejections)
            gate.set()
            for job in accepted:
                assert job.wait(120)
        finally:
            gate.set()
            scheduler.close()


class TestCacheAccounting:
    def test_concurrent_job_misses_are_not_counted_against_a_parked_job(
        self, tmp_path, monkeypatch
    ):
        """Per-job hits/misses are that job's own, not a global delta."""
        scheduler = make_scheduler(tmp_path, workers=2)
        gate, entered = threading.Event(), threading.Event()
        _gate_execute(monkeypatch, gate, entered)
        try:
            parked = scheduler.submit(point_spec(ops=999))
            assert entered.wait(120)
            cold = scheduler.submit(point_spec(n_procs=2, ops=3))
            assert cold.wait(120) and cold.status == "done"
            assert cold.cache["misses"] == 1
            gate.set()
            assert parked.wait(120) and parked.status == "done"
            assert parked.cache["misses"] == 0 and parked.cache["hits"] == 0
        finally:
            gate.set()
            scheduler.close()


class TestGracefulClose:
    def test_close_drains_accepted_jobs_and_reports_zero_stranded(self, tmp_path):
        scheduler = make_scheduler(tmp_path, queue_cap=8)
        jobs = [scheduler.submit(point_spec(ops=3, seed=i)) for i in range(4)]
        stranded = scheduler.close(deadline=120)
        assert stranded == 0
        assert all(job.status == "done" for job in jobs)
        assert scheduler.stats()["stranded"] == 0

    def test_close_is_idempotent(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        assert scheduler.close() == 0
        assert scheduler.close() == 0


class TestStats:
    def test_stats_counters(self, tmp_path):
        scheduler = make_scheduler(tmp_path)
        try:
            job = scheduler.submit(point_spec(ops=3))
            assert job.wait(120)
            stats = scheduler.stats()
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            assert stats["backend"] == "inline"
        finally:
            scheduler.close()
