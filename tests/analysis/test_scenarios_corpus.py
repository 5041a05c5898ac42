"""Corpus execution, deterministic sampling and manifest pinning."""

import json
from pathlib import Path

import pytest

from repro.analysis.scenarios import (
    DEFAULT_GRID,
    DEFAULT_MANIFEST,
    HAND_WRITTEN_GRID_POINTS,
    MODEL_VERSION,
    ScenarioModel,
    build_manifest,
    check_manifest,
    corpus_document,
    enumerate_classes,
    execute_scenario,
    load_manifest,
    run_corpus,
    sample_classes,
    write_manifest,
)
from repro.errors import ConfigError
from repro.service.cache2 import ShardedResultCache

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small grid for check/round-trip tests — fast to re-enumerate.
SMALL_GRID = ((2, 1, 3), (2, 2, 3))


class TestExecuteScenario:
    def test_verdict_is_plain_data(self):
        verdict = execute_scenario(
            schedule=(("write", 0, 0), ("read", 1, 0)),
            n_cells=2,
            n_subpages=1,
            seed=1,
            model_version=MODEL_VERSION,
        )
        assert verdict["ok"] is True
        assert verdict["divergences"] == []
        assert verdict["schedule"] == [["write", 0, 0], ["read", 1, 0]]
        json.dumps(verdict)  # must serialize for artifacts

    def test_model_version_mismatch_is_refused(self):
        with pytest.raises(ConfigError, match="model"):
            execute_scenario(
                schedule=(("read", 0, 0),),
                n_cells=2,
                n_subpages=1,
                seed=1,
                model_version="not-" + MODEL_VERSION,
            )


class TestRunCorpus:
    def test_full_small_corpus_is_clean(self):
        enums = [enumerate_classes(ScenarioModel(c, s), d) for c, s, d in SMALL_GRID]
        run = run_corpus(enums)
        assert run.ok
        assert run.n_executed == sum(len(e.classes) for e in enums)
        assert run.failures == ()

    def test_classes_for_restricts_execution(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 3)
        run = run_corpus([enum], classes_for=lambda e: list(e.classes[:5]))
        assert run.n_executed == 5

    def test_cache_serves_the_second_run(self, tmp_path):
        cache = ShardedResultCache(tmp_path / "cache")
        enum = enumerate_classes(ScenarioModel(2, 1), 2)
        first = run_corpus([enum], cache=cache)
        assert cache.hits == 0 and cache.misses == first.n_executed
        second = run_corpus([enum], cache=cache)
        assert second == first
        assert cache.hits == first.n_executed


class TestSampling:
    def test_sample_is_deterministic_and_a_subset(self):
        enum = enumerate_classes(ScenarioModel(2, 2), 3)
        a = sample_classes(enum, 10, seed=1)
        b = sample_classes(enum, 10, seed=1)
        assert a == b
        assert len(a) == 10
        keys = {c.key for c in enum.classes}
        assert all(c.key in keys for c in a)

    def test_seed_shifts_the_stride_offset(self):
        enum = enumerate_classes(ScenarioModel(2, 2), 3)
        assert sample_classes(enum, 10, seed=1) != sample_classes(enum, 10, seed=2)

    def test_oversized_sample_returns_everything(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 2)
        assert len(sample_classes(enum, 10_000, seed=1)) == len(enum.classes)
        assert sample_classes(enum, 0, seed=1) == []

    def test_negative_sample_rejected(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 2)
        with pytest.raises(ConfigError):
            sample_classes(enum, -1, seed=1)


class TestManifest:
    def test_round_trip_and_clean_check(self, tmp_path):
        manifest = build_manifest(SMALL_GRID, seed=1, sample_per_config=5)
        path = tmp_path / "manifest.json"
        write_manifest(path, manifest)
        assert load_manifest(path) == manifest
        report = check_manifest(manifest)
        assert report.ok
        assert report.n_executed == 2 * 5
        assert report.n_classes == sum(c["n_classes"] for c in manifest["configs"])

    def test_class_count_drift_is_reported(self):
        manifest = build_manifest(SMALL_GRID, seed=1, sample_per_config=3)
        manifest["configs"][0]["n_classes"] += 1
        report = check_manifest(manifest)
        assert not report.ok
        assert any(kind == "drift" and "n_classes" in msg for kind, msg, _ in report.problems)

    def test_partition_digest_drift_is_reported(self):
        manifest = build_manifest(SMALL_GRID, seed=1, sample_per_config=3)
        manifest["configs"][1]["digest"] = "0" * 16
        report = check_manifest(manifest)
        assert any(kind == "drift" and "digest" in msg for kind, msg, _ in report.problems)

    def test_vanished_sample_key_is_reported(self):
        manifest = build_manifest(SMALL_GRID, seed=1, sample_per_config=3)
        manifest["configs"][0]["sample"][0] = "f" * 16
        report = check_manifest(manifest)
        assert any("no longer exists" in msg for _kind, msg, _ in report.problems)

    def test_model_version_drift_is_reported(self):
        manifest = build_manifest(SMALL_GRID, seed=1, sample_per_config=0)
        manifest["model_version"] = "not-" + MODEL_VERSION
        report = check_manifest(manifest)
        assert any("model_version" in msg for _kind, msg, _ in report.problems)

    def test_unreadable_manifest_raises_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_manifest(bad)
        with pytest.raises(ConfigError):
            load_manifest(tmp_path / "missing.json")
        notdict = tmp_path / "notdict.json"
        notdict.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_manifest(notdict)


class TestCommittedManifest:
    """The repo-root manifest is the CI contract; keep it honest."""

    def test_manifest_exists_and_matches_the_tree_version(self):
        manifest = load_manifest(REPO_ROOT / DEFAULT_MANIFEST)
        assert manifest["model_version"] == MODEL_VERSION
        grid = tuple(
            (c["n_cells"], c["n_subpages"], c["depth"]) for c in manifest["configs"]
        )
        assert grid == DEFAULT_GRID

    def test_committed_corpus_dwarfs_the_hand_written_grids(self):
        manifest = load_manifest(REPO_ROOT / DEFAULT_MANIFEST)
        total = sum(c["n_classes"] for c in manifest["configs"])
        assert total >= 10 * HAND_WRITTEN_GRID_POINTS

    def test_cheapest_pinned_config_still_enumerates_identically(self):
        manifest = load_manifest(REPO_ROOT / DEFAULT_MANIFEST)
        cfg = min(manifest["configs"], key=lambda c: c["n_classes"])
        enum = enumerate_classes(
            ScenarioModel(cfg["n_cells"], cfg["n_subpages"]), cfg["depth"]
        )
        assert len(enum.classes) == cfg["n_classes"]
        assert enum.n_schedules == cfg["n_schedules"]
        assert enum.digest() == cfg["digest"]


class TestCorpusDocument:
    def test_document_is_serializable_and_flags_failures(self):
        enum = enumerate_classes(ScenarioModel(2, 1), 2)
        run = run_corpus([enum])
        doc = corpus_document([enum], run=run)
        json.dumps(doc)
        assert doc["model_version"] == MODEL_VERSION
        (cfg,) = doc["configs"]
        assert cfg["n_classes"] == len(enum.classes)
        assert len(cfg["classes"]) == len(enum.classes)
        assert all("diverged" not in c for c in cfg["classes"])
