"""Tests for the replay engine and multipass helpers."""

import pytest

from repro.cache.llc import ResidencyObserver
from repro.common.config import CacheGeometry
from repro.sim.engine import LlcOnlySimulator
from repro.sim.multipass import record_llc_stream, run_opt, run_policy_on_stream
from repro.sim.results import LlcSimResult, PolicyComparison
from repro.policies.lru import LruPolicy
from repro.workloads.registry import get_workload
from tests.conftest import make_stream, read_stream

GEOMETRY = CacheGeometry(4 * 4 * 64, 4)


class TestLlcOnlySimulator:
    def test_result_counts(self):
        stream = read_stream([0, 1, 0, 1, 2])
        result = LlcOnlySimulator(GEOMETRY, LruPolicy()).run(stream)
        assert result.accesses == 5
        assert result.hits == 2
        assert result.misses == 3
        assert result.policy == "lru"
        assert result.stream_name == stream.name

    def test_flush_notifies_observers(self):
        flushed = []

        class Flush(ResidencyObserver):
            def consume(self, table):
                flushed.extend(table.forced.tolist())

        LlcOnlySimulator(GEOMETRY, LruPolicy(), observers=(Flush(),)).run(
            read_stream([0, 1])
        )
        assert flushed == [1, 1]


class TestResults:
    def test_ratios(self):
        result = LlcSimResult("lru", "s", accesses=10, hits=4, misses=6)
        assert result.miss_ratio == 0.6
        assert result.hit_ratio == 0.4

    def test_miss_reduction(self):
        base = LlcSimResult("lru", "s", 10, 4, 6)
        better = LlcSimResult("x", "s", 10, 7, 3)
        assert better.miss_reduction_vs(base) == 0.5
        assert base.miss_reduction_vs(better) == pytest.approx(-1.0)

    def test_comparison_helpers(self):
        base = LlcSimResult("lru", "s", 10, 4, 6)
        better = LlcSimResult("srrip", "s", 10, 7, 3)
        comparison = PolicyComparison("s", {"lru": base, "srrip": better})
        assert comparison.miss_reduction("srrip") == 0.5
        assert comparison.policies() == ["lru", "srrip"]


class TestMultipass:
    def stream_and_stats(self, tiny_machine):
        trace = get_workload("dedup").generate(
            num_threads=2, scale=1024, target_accesses=5_000, seed=3
        )
        return record_llc_stream(trace, tiny_machine)

    def test_replaying_recording_policy_reproduces_counts(self, tiny_machine):
        """Replaying the recorded stream under the same (LRU) policy and
        geometry must reproduce the online LLC hit/miss counts exactly —
        the core stream-invariance property of the methodology."""
        stream, stats = self.stream_and_stats(tiny_machine)
        replay = run_policy_on_stream(stream, tiny_machine.llc, "lru")
        assert replay.misses == stats.llc_misses
        assert replay.hits == stats.llc_hits

    def test_stream_name_mentions_workload_and_machine(self, tiny_machine):
        stream, __ = self.stream_and_stats(tiny_machine)
        assert "dedup" in stream.name
        assert "tiny" in stream.name

    def test_opt_never_worse_than_realistic_policies(self, tiny_machine):
        stream, __ = self.stream_and_stats(tiny_machine)
        opt = run_opt(stream, tiny_machine.llc)
        for policy in ("lru", "dip", "srrip", "drrip", "ship", "nru"):
            other = run_policy_on_stream(stream, tiny_machine.llc, policy)
            assert opt.misses <= other.misses

    def test_policy_instance_accepted(self, tiny_machine):
        stream, __ = self.stream_and_stats(tiny_machine)
        result = run_policy_on_stream(stream, tiny_machine.llc, LruPolicy())
        assert result.policy == "lru"
