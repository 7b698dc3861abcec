"""Tests for the per-PC sharing ambiguity profiler."""

import pytest

from repro.cache.residency import ResidencyTable
from repro.characterization.pc_profile import PcSharingProfiler
from repro.common.config import CacheGeometry
from repro.policies.lru import LruPolicy
from repro.sim.engine import LlcOnlySimulator
from tests.conftest import make_stream


def feed(profiler, pc, shared):
    """Hand the profiler a one-residency table."""
    core_mask = 0b11 if shared else 0b1
    profiler.consume(ResidencyTable.from_rows(
        [(0, 0, 0, 0, pc, 0, core_mask, 0, 1, 1 if shared else 0, 0)]
    ))


class TestPcSharingProfiler:
    def test_pure_pcs(self):
        profiler = PcSharingProfiler()
        for __ in range(3):
            feed(profiler, 0x10, True)
        for __ in range(2):
            feed(profiler, 0x20, False)
        profile = profiler.finalize()
        assert profile.distinct_pcs == 2
        assert profile.pure_pcs == 2
        assert profile.mixed_pcs == 0
        assert profile.majority_accuracy == 1.0
        assert profile.base_rate == pytest.approx(3 / 5)

    def test_mixed_pc_bounds_accuracy(self):
        profiler = PcSharingProfiler()
        for i in range(10):
            feed(profiler, 0x10, i % 2 == 0)  # perfectly ambiguous PC
        profile = profiler.finalize()
        assert profile.mixed_pcs == 1
        assert profile.mixed_pc_fraction == 1.0
        assert profile.majority_accuracy == 0.5

    def test_majority_is_per_pc(self):
        profiler = PcSharingProfiler()
        feed(profiler, 0x10, True)
        feed(profiler, 0x10, True)
        feed(profiler, 0x10, False)   # PC 0x10 majority shared (2/3)
        feed(profiler, 0x20, False)   # PC 0x20 pure private
        profile = profiler.finalize()
        assert profile.majority_correct == 3
        assert profile.majority_accuracy == pytest.approx(3 / 4)

    def test_per_pc_counts(self):
        profiler = PcSharingProfiler()
        feed(profiler, 0x10, True)
        feed(profiler, 0x10, False)
        assert profiler.per_pc_counts() == [(0x10, 1, 1)]

    def test_empty(self):
        profile = PcSharingProfiler().finalize()
        assert profile.majority_accuracy == 0.0
        assert profile.mixed_pc_fraction == 0.0

    def test_attached_to_llc(self):
        accesses = [
            (0, 0xAA, 0, False), (1, 0xBB, 0, False),  # shared via PC 0xAA
            (0, 0xCC, 1, False),                        # private via PC 0xCC
        ]
        profiler = PcSharingProfiler()
        LlcOnlySimulator(
            CacheGeometry(2 * 2 * 64, 2), LruPolicy(), observers=(profiler,)
        ).run(make_stream(accesses))
        profile = profiler.finalize()
        assert profile.distinct_pcs == 2   # fills from 0xAA and 0xCC
        assert profile.total_fills == 2
        assert profile.shared_fills == 1
