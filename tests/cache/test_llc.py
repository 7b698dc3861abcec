"""Tests for the shared LLC (repro.cache.llc)."""

import pytest

from repro.cache.llc import NO_BLOCK, ResidencyObserver, SharedLlc
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LruPolicy


class RecordingObserver(ResidencyObserver):
    """Keeps the residency table's rows as dicts, plus its fills."""

    def __init__(self):
        self.started = []
        self.ended = []

    def consume(self, table):
        for (block, set_index, fill, end, pc, core, core_mask, write_mask,
             hits, other_hits, forced) in table.rows():
            self.ended.append({
                "block": block, "set": set_index, "fill": fill, "end": end,
                "pc": pc, "core": core, "core_mask": core_mask,
                "write_mask": write_mask, "hits": hits,
                "other_hits": other_hits, "forced": bool(forced),
            })
        self.started = sorted(
            ((r["block"], r["set"], r["fill"], r["pc"], r["core"])
             for r in self.ended),
            key=lambda fill: fill[2],
        )


def make_llc(sets=2, ways=2, observers=()):
    return SharedLlc(CacheGeometry(sets * ways * 64, ways), LruPolicy(),
                     observers=observers)


class TestHitMiss:
    def test_first_access_misses(self):
        llc = make_llc()
        hit, evicted = llc.access(0, 0x1, 0, False)
        assert not hit
        assert evicted == NO_BLOCK
        assert llc.misses == 1

    def test_second_access_hits(self):
        llc = make_llc()
        llc.access(0, 0x1, 0, False)
        hit, __ = llc.access(0, 0x2, 0, False)
        assert hit
        assert llc.hits == 1

    def test_access_count_increments(self):
        llc = make_llc()
        for i in range(5):
            llc.access(0, 0, i, False)
        assert llc.access_count == 5

    def test_eviction_returns_victim(self):
        llc = make_llc(sets=1, ways=2)
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        __, evicted = llc.access(0, 0, 2, False)
        assert evicted == 0  # LRU victim
        assert llc.evictions == 1
        assert not llc.contains(0)

    def test_occupancy_and_resident_blocks(self):
        llc = make_llc()
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        assert llc.occupancy() == 2
        assert sorted(llc.resident_blocks()) == [0, 1]

    def test_invalid_policy_way_rejected(self):
        class BrokenPolicy(LruPolicy):
            def select_victim(self, set_index):
                return 99

        llc = SharedLlc(CacheGeometry(128, 2), BrokenPolicy())
        llc.access(0, 0, 0, False)
        llc.access(0, 0, 1, False)
        with pytest.raises(SimulationError):
            llc.access(0, 0, 2, False)


class TestResidencyMetadata:
    def test_single_core_private_residency(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x10, 0, False)   # fill block 0
        llc.access(0, 0x11, 0, False)   # hit
        llc.access(0, 0x12, 1, False)   # evicts block 0
        llc.flush_residencies()
        record = observer.ended[0]
        assert record["block"] == 0
        assert record["fill"] == 1
        assert record["end"] == 3
        assert record["pc"] == 0x10
        assert record["core_mask"] == 0b1
        assert record["hits"] == 1
        assert record["other_hits"] == 0
        assert not record["forced"]

    def test_shared_residency_masks(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0, 0, False)
        llc.access(1, 0, 0, False)      # cross-core hit
        llc.access(2, 0, 0, True)       # cross-core write hit
        llc.access(0, 0, 1, False)      # evict
        llc.flush_residencies()
        record = observer.ended[0]
        assert record["core_mask"] == 0b111
        assert record["write_mask"] == 0b100
        assert record["hits"] == 2
        assert record["other_hits"] == 2

    def test_write_fill_sets_write_mask(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(3, 0, 0, True)
        llc.flush_residencies()
        assert observer.ended[0]["write_mask"] == 0b1000

    def test_same_core_hits_not_counted_as_other(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(1, 0, 0, False)
        llc.access(1, 0, 0, False)
        llc.access(1, 0, 0, False)
        llc.flush_residencies()
        record = observer.ended[0]
        assert record["hits"] == 2
        assert record["other_hits"] == 0
        assert record["core_mask"] == 0b10

    def test_flush_marks_forced(self):
        observer = RecordingObserver()
        llc = make_llc(observers=(observer,))
        llc.access(0, 0, 0, False)
        llc.flush_residencies()
        assert observer.ended[0]["forced"]

    def test_flush_covers_every_live_residency(self):
        observer = RecordingObserver()
        llc = make_llc(sets=2, ways=2, observers=(observer,))
        for block in range(4):
            llc.access(0, 0, block, False)
        llc.flush_residencies()
        assert len(observer.ended) == 4

    def test_refill_resets_metadata(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x1, 0, False)
        llc.access(1, 0x2, 0, True)     # shared write hit
        llc.access(0, 0x3, 1, False)    # evict 0
        llc.access(0, 0x4, 0, False)    # refill 0, evict 1
        llc.flush_residencies()
        second_residency = observer.ended[-1]
        assert second_residency["block"] == 0
        assert second_residency["core_mask"] == 0b1
        assert second_residency["write_mask"] == 0
        assert second_residency["hits"] == 0

    def test_started_fires_on_every_fill(self):
        observer = RecordingObserver()
        llc = make_llc(sets=1, ways=1, observers=(observer,))
        llc.access(0, 0x7, 5, False)
        llc.access(0, 0x7, 5, False)    # hit, no started event
        llc.access(1, 0x8, 6, True)     # new fill
        llc.flush_residencies()
        assert observer.started == [(5, 0, 1, 0x7, 0), (6, 0, 3, 0x8, 1)]

    def test_observer_count_matches_fills(self):
        observer = RecordingObserver()
        llc = make_llc(sets=2, ways=2, observers=(observer,))
        for i in range(20):
            llc.access(0, 0, i % 6, False)
        llc.flush_residencies()
        assert len(observer.started) == llc.misses
        assert len(observer.ended) == llc.misses


class TestObserverManagement:
    def test_rows_are_logged_only_with_observers(self):
        llc = make_llc()
        llc.access(0, 0, 0, False)
        llc.flush_residencies()  # nothing to hand over, nothing logged
        assert llc._rows is None

    def test_base_observer_started_is_noop(self):
        # The base class must tolerate being attached directly: nothing is
        # called per access, and consume() is abstract.
        llc = make_llc(observers=(ResidencyObserver(),))
        llc.access(0, 0, 0, False)
        with pytest.raises(NotImplementedError):
            llc.flush_residencies()

    def test_live_hook_sees_each_end_before_the_next_fill(self):
        ends = []

        class Live(ResidencyObserver):
            def live_hook(self, policy):
                return lambda *row: ends.append((row, llc.access_count))

            def consume(self, table):
                pass

        llc = make_llc(sets=1, ways=1, observers=(Live(),))
        llc.access(0, 0x1, 0, False)
        llc.access(1, 0x1, 0, False)
        llc.access(0, 0x2, 1, False)   # ends block 0's residency
        assert ends == [((0, 0x1, 0, 0b11), 3)]
        llc.flush_residencies()
        assert ends[-1] == ((1, 0x2, 0, 0b1), 3)
