"""Tests for experiment orchestration and caching."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import CacheGeometry, MachineConfig
from repro.common.errors import ConfigError
from repro.sim import experiment
from repro.sim.experiment import ExperimentContext, shared_context


@pytest.fixture
def context(tiny_machine):
    return ExperimentContext(
        tiny_machine, target_accesses=4_000, seed=5,
        workloads=["streamcluster", "swaptions"],
    )


class TestExperimentContext:
    def test_artifacts_cached(self, context):
        first = context.artifacts("streamcluster")
        second = context.artifacts("streamcluster")
        assert first is second

    def test_artifact_contents(self, context):
        artifacts = context.artifacts("streamcluster")
        assert artifacts.workload == "streamcluster"
        assert artifacts.trace_stats.num_accesses == 4_000
        assert artifacts.hierarchy_stats.accesses == 4_000
        assert len(artifacts.stream) == artifacts.hierarchy_stats.llc_accesses

    def test_unknown_workload_rejected(self, context):
        with pytest.raises(ConfigError):
            context.artifacts("canneal")

    def test_characterize(self, context):
        report = context.characterize("streamcluster")
        assert report.breakdown.residencies > 0
        # streamcluster's hits are dominated by shared residencies.
        assert report.breakdown.shared_hit_fraction > 0.5

    def test_compare_policies(self, context):
        comparison = context.compare_policies(
            "swaptions", ["lru", "srrip"], include_opt=True
        )
        assert set(comparison.policies()) == {"lru", "srrip", "opt"}
        assert comparison.results["opt"].misses <= comparison.results["lru"].misses

    def test_oracle_study(self, context):
        study = context.oracle_study("streamcluster")
        assert study.base.accesses == study.oracle.accesses

    def test_deterministic_across_contexts(self, tiny_machine):
        def misses():
            ctx = ExperimentContext(tiny_machine, target_accesses=3_000,
                                    seed=9, workloads=["dedup"])
            return ctx.artifacts("dedup").hierarchy_stats.llc_misses

        assert misses() == misses()

    def test_seed_changes_results(self, tiny_machine):
        def misses(seed):
            ctx = ExperimentContext(tiny_machine, target_accesses=3_000,
                                    seed=seed, workloads=["dedup"])
            return ctx.artifacts("dedup").stream.blocks

        assert list(misses(1)) != list(misses(2))


class TestSharedContext:
    def test_memoised_by_key(self):
        a = shared_context("scaled-4mb", target_accesses=1_000, seed=1)
        b = shared_context("scaled-4mb", target_accesses=1_000, seed=1)
        c = shared_context("scaled-8mb", target_accesses=1_000, seed=1)
        assert a is b
        assert a is not c

    def test_default_workloads_cover_all(self):
        context = shared_context("scaled-4mb", target_accesses=1_000, seed=99)
        assert len(context.workload_list) == 19


class TestDiskCache:
    def test_cache_roundtrip(self, tiny_machine, tmp_path):
        first = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        original = first.artifacts("water")
        assert any(tmp_path.iterdir())

        second = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        loaded = second.artifacts("water")
        assert list(loaded.stream.blocks) == list(original.stream.blocks)
        assert loaded.trace_stats == original.trace_stats
        assert loaded.hierarchy_stats == original.hierarchy_stats

    def test_cache_keys_differ_by_seed(self, tiny_machine, tmp_path):
        for seed in (1, 2):
            ExperimentContext(
                tiny_machine, target_accesses=3_000, seed=seed,
                workloads=["water"], cache_dir=tmp_path,
            ).artifacts("water")
        assert len(list(tmp_path.glob("*.rllc.gz"))) == 2

    def test_no_cache_dir_writes_nothing(self, tiny_machine, tmp_path):
        ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7, workloads=["water"]
        ).artifacts("water")
        assert not any(tmp_path.iterdir())

    def test_stats_count_each_cache_level(self, tiny_machine, tmp_path):
        first = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        first.artifacts("water")   # cold: record + store
        first.artifacts("water")   # warm: memory hit
        stats = first.cache_stats
        assert (stats.recordings, stats.disk_stores) == (1, 1)
        assert stats.memory_hits == 1
        assert stats.disk_hits == 0

        second = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        second.artifacts("water")  # warm disk: load, no recording
        assert second.cache_stats.disk_hits == 1
        assert second.cache_stats.recordings == 0
        assert second.cache_stats.as_dict()["disk_hits"] == 1

    def test_corrupt_entry_recovers_by_rerecording(self, tiny_machine, tmp_path):
        first = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        original = first.artifacts("water")
        (stream_file,) = tmp_path.glob("*.rllc.gz")
        blob = stream_file.read_bytes()
        stream_file.write_bytes(blob[: len(blob) // 2])

        second = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        recovered = second.artifacts("water")
        assert second.cache_stats.corrupt_entries == 1
        assert second.cache_stats.recordings == 1
        assert list(recovered.stream.blocks) == list(original.stream.blocks)
        # The bad entry was replaced: a third context loads cleanly.
        third = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        third.artifacts("water")
        assert third.cache_stats.disk_hits == 1


class TestProducerDigest:
    """The cache key names the code that recorded the stream."""

    def _context(self, machine, cache_dir):
        return ExperimentContext(
            machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=cache_dir,
        )

    def test_digest_is_short_stable_hex(self):
        digest = experiment.producer_digest()
        assert len(digest) == 12
        int(digest, 16)
        assert experiment.producer_digest() == digest

    def test_digest_is_in_the_cache_key(self, tiny_machine, tmp_path):
        stream_path, stats_path = self._context(
            tiny_machine, tmp_path)._cache_paths("water")
        tag = f"-p{experiment.producer_digest()}-"
        assert tag in stream_path.name and tag in stats_path.name

    def test_changed_digest_forces_a_rerecord(self, tiny_machine, tmp_path,
                                              monkeypatch):
        original = self._context(tiny_machine, tmp_path).artifacts("water")
        monkeypatch.setattr(experiment, "producer_digest",
                            lambda: "0123456789ab")
        edited = self._context(tiny_machine, tmp_path)
        rerecorded = edited.artifacts("water")
        assert edited.cache_stats.disk_hits == 0
        assert edited.cache_stats.recordings == 1
        assert len(list(tmp_path.glob("*.rllc.gz"))) == 2
        assert rerecorded.hierarchy_stats == original.hierarchy_stats

    def test_second_process_hits_the_disk(self, tiny_machine, tmp_path):
        self._context(tiny_machine, tmp_path).artifacts("water")
        script = (
            "import json, sys\n"
            "from repro.common.config import CacheGeometry, MachineConfig\n"
            "from repro.sim import experiment\n"
            "machine = MachineConfig(name='tiny', num_cores=2,"
            " l1=CacheGeometry(512, 4), l2=CacheGeometry(1024, 4),"
            " llc=CacheGeometry(4096, 8), scale=1024)\n"
            "context = experiment.ExperimentContext(machine,"
            " target_accesses=3_000, seed=7, workloads=['water'],"
            " cache_dir=sys.argv[1])\n"
            "context.artifacts('water')\n"
            "print(json.dumps([experiment.producer_digest(),"
            " context.cache_stats.as_dict()]))\n"
        )
        src = Path(experiment.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        digest, stats = json.loads(output)
        assert digest == experiment.producer_digest()
        assert stats["disk_hits"] == 1
        assert stats["recordings"] == 0

    def test_unreachable_entries_are_listed_and_swept(self, tmp_path):
        legacy = tmp_path / "water-tiny-0123456789ab-n3000-s7-fv2.rllc.gz"
        legacy.write_bytes(b"old")
        assert [path for path, __ in experiment.cache_entries(tmp_path)] \
            == [legacy]
        assert experiment.clear_cache(tmp_path) == 1
        assert not legacy.exists()

    def test_manifest_records_the_digest(self, context):
        from repro.sim.telemetry import describe_environment

        fields = describe_environment(context)
        assert fields["producer_digest"] == experiment.producer_digest()


class TestMemoryBounds:
    def test_clear_drops_memory_only(self, tiny_machine, tmp_path):
        context = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water", "fft"], cache_dir=tmp_path,
        )
        context.artifacts("water")
        context.artifacts("fft")
        assert context.cached_workloads() == ["water", "fft"]
        context.clear()
        assert context.cached_workloads() == []
        # Disk entries survive: the reload is a disk hit, not a recording.
        context.artifacts("water")
        assert context.cache_stats.disk_hits == 1
        assert context.cache_stats.recordings == 2

    def test_max_cached_evicts_lru_order(self, tiny_machine):
        context = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water", "fft", "radix"], max_cached=2,
        )
        context.artifacts("water")
        context.artifacts("fft")
        context.artifacts("water")    # refresh water; fft is now oldest
        context.artifacts("radix")    # evicts fft
        assert context.cached_workloads() == ["water", "radix"]
        assert context.cache_stats.memory_evictions == 1

    def test_max_cached_must_be_positive(self, tiny_machine):
        with pytest.raises(ConfigError):
            ExperimentContext(tiny_machine, max_cached=0)

    def test_cache_dir_must_not_be_a_file(self, tiny_machine, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("oops")
        with pytest.raises(ConfigError, match="not a directory"):
            ExperimentContext(tiny_machine, cache_dir=blocker)


class TestCacheMaintenance:
    def test_entries_and_clear(self, tiny_machine, tmp_path):
        from repro.sim.experiment import cache_entries, clear_cache

        ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        ).artifacts("water")
        stranger = tmp_path / "notes.txt"
        stranger.write_text("keep me")

        entries = cache_entries(tmp_path)
        assert len(entries) == 2  # stream + stats json
        assert all(size > 0 for __, size in entries)

        removed = clear_cache(tmp_path)
        assert removed == 2
        assert cache_entries(tmp_path) == []
        assert stranger.exists()  # unrelated files are never touched

    def test_missing_directory_is_empty(self, tmp_path):
        from repro.sim.experiment import cache_entries, clear_cache

        missing = tmp_path / "nope"
        assert cache_entries(missing) == []
        assert clear_cache(missing) == 0

    def test_orphan_tmp_files_reported_and_swept(self, tiny_machine, tmp_path):
        from repro.sim.experiment import (
            cache_entries,
            clear_cache,
            orphan_tmp_entries,
        )

        ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        ).artifacts("water")
        # Leftovers of a writer killed mid-store (pid 4242).
        (tmp_path / "tmp4242-dead.rllc.gz").write_bytes(b"partial")
        (tmp_path / "tmp4242-dead.json").write_text("{}")

        published = cache_entries(tmp_path)
        orphans = orphan_tmp_entries(tmp_path)
        assert len(published) == 2  # orphans never counted as artifacts
        assert sorted(path.name for path, __ in orphans) \
            == ["tmp4242-dead.json", "tmp4242-dead.rllc.gz"]

        assert clear_cache(tmp_path) == 4  # sweeps orphans too
        assert orphan_tmp_entries(tmp_path) == []
        assert cache_entries(tmp_path) == []


class TestStoreCrashSafety:
    """A writer killed between the two publish renames must be harmless."""

    def _crash_on_stats_rename(self, monkeypatch):
        import os as os_module

        real_replace = os_module.replace
        calls = []

        def flaky_replace(src, dst):
            calls.append(str(dst))
            if str(dst).endswith(".json"):
                raise KeyboardInterrupt("killed between renames")
            return real_replace(src, dst)

        monkeypatch.setattr("repro.sim.experiment.os.replace", flaky_replace)
        return calls

    def test_killed_store_leaves_no_stale_stats(self, tiny_machine, tmp_path,
                                                monkeypatch):
        from repro.sim.experiment import orphan_tmp_entries

        calls = self._crash_on_stats_rename(monkeypatch)
        first = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        with pytest.raises(KeyboardInterrupt):
            first.artifacts("water")
        # The stream rename happened first; the stats never published.
        assert any(dst.endswith(".rllc.gz") for dst in calls)
        published_stats = [p for p in tmp_path.glob("*.json")
                           if not p.name.startswith("tmp")]
        assert published_stats == []
        # The unpublished stats temp is a recognised, sweepable orphan.
        orphans = orphan_tmp_entries(tmp_path)
        assert len(orphans) == 1
        assert orphans[0][0].name.endswith(".json")
        assert orphans[0][0].name.startswith("tmp")

        monkeypatch.undo()
        # A fresh context must not trust the half-published entry: the
        # stream-without-stats pair reads as a miss and re-records to the
        # same bits.
        second = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7,
            workloads=["water"], cache_dir=tmp_path,
        )
        recovered = second.artifacts("water")
        assert second.cache_stats.recordings == 1
        reference = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=7, workloads=["water"]
        ).artifacts("water")
        assert list(recovered.stream.blocks) == list(reference.stream.blocks)
        assert recovered.hierarchy_stats == reference.hierarchy_stats
