"""The sweep runner: cache keys, the on-disk cache, and the guarantee
that serial, parallel and cached runs all produce identical results."""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.races import default_audit_workload, machine_fingerprint
from repro.experiments.locks import measure_lock, run_figure3
from repro.experiments.sweep import SweepRunner, code_version, point_key
from repro.service.cache2 import ShardedResultCache


def square(x: int) -> int:
    """Module-level so worker processes can unpickle it by reference."""
    return x * x


def audit_fingerprint(seed: int) -> dict:
    """Fingerprint of the default audit workload (ignores the seed arg,
    which only exists to make distinct cache keys)."""
    machine, _ = default_audit_workload()
    return machine_fingerprint(machine)


class TestPointKey:
    def test_stable_across_calls(self):
        kwargs = dict(kind="hardware", n_procs=8, read_fraction=0.0)
        assert point_key(measure_lock, kwargs) == point_key(measure_lock, kwargs)

    def test_insensitive_to_kwarg_order(self):
        a = point_key(square, dict(x=1, y=2))
        b = point_key(square, dict(y=2, x=1))
        assert a == b

    def test_distinct_arguments_distinct_keys(self):
        assert point_key(square, dict(x=1)) != point_key(square, dict(x=2))

    def test_distinct_functions_distinct_keys(self):
        assert point_key(square, dict(x=1)) != point_key(measure_lock, dict(x=1))

    def test_code_version_is_hex_digest(self):
        version = code_version()
        assert len(version) == 64
        int(version, 16)  # raises if not hex

    def test_cache_token_keys_the_point(self):
        # Arguments exposing a `cache_token` (FaultPlan) are keyed by
        # it, so flipping any plan field is a cache miss...
        from repro.faults import FaultPlan

        a = point_key(square, dict(x=1, plan=FaultPlan(corruption_rate=1e-4)))
        b = point_key(square, dict(x=1, plan=FaultPlan(corruption_rate=1e-3)))
        assert a != b

    def test_equal_plans_share_a_key(self):
        # ...while two equal plans (distinct instances) hit the cache.
        from repro.faults import FaultPlan

        a = point_key(square, dict(x=1, plan=FaultPlan(dead_cells=(5,))))
        b = point_key(square, dict(x=1, plan=FaultPlan(dead_cells=(5,))))
        assert a == b

    def test_injector_version_bump_invalidates(self, monkeypatch):
        from repro.faults import FaultPlan
        import repro.faults.plan as plan_module

        before = point_key(square, dict(plan=FaultPlan()))
        monkeypatch.setattr(plan_module, "INJECTOR_VERSION", 2)
        after = point_key(square, dict(plan=FaultPlan()))
        assert before != after

    def test_cache_token_honoured_inside_containers(self, monkeypatch):
        # Regression: a FaultPlan nested in a list/tuple/dict used to
        # fall back to container repr, so INJECTOR_VERSION bumps did
        # not invalidate those cached points.
        from repro.faults import FaultPlan
        import repro.faults.plan as plan_module

        nests = {
            "list": lambda: dict(plans=[FaultPlan()]),
            "tuple": lambda: dict(plans=(FaultPlan(),)),
            "dict": lambda: dict(plans={"a": FaultPlan()}),
            "deep": lambda: dict(plans=[{"a": (FaultPlan(),)}]),
        }
        before = {name: point_key(square, make()) for name, make in nests.items()}
        monkeypatch.setattr(plan_module, "INJECTOR_VERSION", 2)
        for name, make in nests.items():
            assert point_key(square, make()) != before[name], name

    def test_container_rate_change_distinct_keys(self):
        from repro.faults import FaultPlan

        a = point_key(square, dict(plans=[FaultPlan(corruption_rate=1e-4)]))
        b = point_key(square, dict(plans=[FaultPlan(corruption_rate=1e-3)]))
        assert a != b

    def test_dict_kwarg_insensitive_to_insertion_order(self):
        a = point_key(square, dict(opts={"x": 1, "y": 2}))
        b = point_key(square, dict(opts={"y": 2, "x": 1}))
        assert a == b

    def test_address_bearing_repr_rejected(self):
        class Opaque:  # default object repr: <... object at 0x...>
            pass

        with pytest.raises(TypeError, match="kwarg 'widget'"):
            point_key(square, dict(widget=Opaque()))

    def test_address_bearing_repr_rejected_inside_container(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="kwarg 'widgets'"):
            point_key(square, dict(widgets=[Opaque()]))

    def test_function_valued_kwarg_rejected(self):
        # functions repr as <function f at 0x...>: per-process keys
        with pytest.raises(TypeError, match="memory address"):
            point_key(square, dict(callback=square))


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=3))
        hit, _ = cache.load(key)
        assert not hit
        cache.store(key, 9, meta={"func": "square"})
        hit, value = cache.load(key)
        assert hit and value == 9
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=4))
        cache.store(key, 16)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, value = cache.load(key)
        assert not hit and value is None

    def test_corrupt_entry_counted_and_unlinked(self, tmp_path):
        # Regression: corruption used to be an unsignalled plain miss,
        # and the poisoned file stayed put, masking the next store.
        cache = ShardedResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=41))
        cache.store(key, 1681)
        cache._path(key).write_bytes(b"scrambled")
        hit, _ = cache.load(key)
        assert not hit
        assert cache.corrupt == 1 and cache.misses == 1
        assert not cache._path(key).exists(), "poisoned entry must be deleted"
        cache.store(key, 1681)
        hit, value = cache.load(key)
        assert hit and value == 1681

    def test_plain_miss_is_not_corrupt(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        hit, _ = cache.load(point_key(square, dict(x=6)))
        assert not hit and cache.corrupt == 0 and cache.misses == 1

    def test_entry_missing_value_field_is_a_miss(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        key = point_key(square, dict(x=5))
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"wrong": "shape"}))
        hit, _ = cache.load(key)
        assert not hit

    def test_default_respects_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KSR_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ShardedResultCache.default().root == tmp_path / "elsewhere"

    def test_root_resolved_absolute_at_construction(self, tmp_path, monkeypatch):
        # Regression: a relative root used to be re-resolved against
        # whatever the *current* working directory was at access time,
        # so the same campaign run from two directories got two cold
        # caches.
        monkeypatch.chdir(tmp_path)
        cache = ShardedResultCache(".ksr-cache")
        assert cache.root.is_absolute()
        key = point_key(square, dict(x=9))
        cache.store(key, 81)
        elsewhere = tmp_path / "subdir"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        hit, value = cache.load(key)
        assert hit and value == 81, "chdir must not cold-start the cache"

    def test_stats_reports_resolved_root(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats["root"] == str(tmp_path / "cache")
        assert set(stats) >= {"root", "hits", "misses", "corrupt"}


class TestSweepRunner:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_map_preserves_call_order(self):
        runner = SweepRunner()
        values = runner.map(square, [dict(x=i) for i in (3, 1, 2)])
        assert values == [9, 1, 4]

    def test_run_evaluates_single_point(self):
        assert SweepRunner().run(square, x=6) == 36

    def test_second_sweep_is_all_cache_hits(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)
        calls = [dict(x=i) for i in range(5)]
        first = runner.map(square, calls)
        assert cache.misses == 5 and cache.hits == 0
        second = runner.map(square, calls)
        assert second == first
        assert cache.hits == 5 and cache.misses == 5

    def test_parallel_matches_serial(self):
        calls = [dict(x=i) for i in range(6)]
        serial = SweepRunner(jobs=1).map(square, calls)
        parallel = SweepRunner(jobs=2).map(square, calls)
        assert parallel == serial

    def test_parallel_simulation_points_bit_identical(self):
        calls = [
            dict(kind="hardware", n_procs=p, read_fraction=0.0, ops=5, seed=303)
            for p in (2, 4)
        ]
        serial = SweepRunner(jobs=1).map(measure_lock, calls)
        parallel = SweepRunner(jobs=2).map(measure_lock, calls)
        assert parallel == serial  # float equality: bit-for-bit, not approx


class TestExperimentEquivalence:
    """The ISSUE's acceptance property, at test scale: a parallel and/or
    cached figure run is byte-identical to the plain serial one."""

    PROCS = [2, 4]
    OPS = 5

    def _fig3(self, runner):
        return run_figure3(proc_counts=self.PROCS, ops=self.OPS, runner=runner)

    def test_parallel_figure3_rows_identical(self):
        serial = self._fig3(SweepRunner(jobs=1))
        parallel = self._fig3(SweepRunner(jobs=2))
        assert parallel.rows == serial.rows
        assert parallel.series == serial.series
        assert parallel.render() == serial.render()

    def test_cached_figure3_rows_identical(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        serial = self._fig3(SweepRunner(jobs=1))
        cold = self._fig3(SweepRunner(cache=cache))
        warm = self._fig3(SweepRunner(cache=cache))
        assert cold.rows == serial.rows
        assert warm.rows == serial.rows
        assert cache.hits >= len(cold.rows)

    def test_parallel_machine_fingerprints_identical(self):
        calls = [dict(seed=s) for s in (1, 2)]
        serial = SweepRunner(jobs=1).map(audit_fingerprint, calls)
        parallel = SweepRunner(jobs=2).map(audit_fingerprint, calls)
        assert parallel == serial
