"""Differential test: SharedLlc+LRU against an independent reference model.

The reference reimplements a set-associative LRU cache with full residency
metadata using OrderedDicts — different data structures, same specified
behaviour. Hypothesis drives long random access sequences and every
externally visible outcome is compared: hit/miss, evicted block, residency
records (fill ordinal, core mask, write mask, hit counts, cross-core hit
counts), and final occupancy.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.llc import NO_BLOCK, ResidencyObserver, SharedLlc
from repro.common.config import CacheGeometry
from repro.policies.lru import LruPolicy

NUM_SETS = 2
WAYS = 2
GEOMETRY = CacheGeometry(NUM_SETS * WAYS * 64, WAYS)


class ReferenceLlc:
    """Spec-level model: per-set OrderedDict, MRU at the end."""

    def __init__(self):
        self.sets = [OrderedDict() for __ in range(NUM_SETS)]
        self.access_count = 0
        self.hits = 0
        self.misses = 0
        self.ended = []

    def access(self, core, pc, block, is_write):
        self.access_count += 1
        s = self.sets[block % NUM_SETS]
        if block in s:
            self.hits += 1
            meta = s[block]
            s.move_to_end(block)
            meta["core_mask"] |= 1 << core
            if is_write:
                meta["write_mask"] |= 1 << core
            meta["hits"] += 1
            if core != meta["fill_core"]:
                meta["other_hits"] += 1
            return True, NO_BLOCK
        self.misses += 1
        evicted = NO_BLOCK
        if len(s) == WAYS:
            evicted, meta = s.popitem(last=False)
            self._end(evicted, meta, forced=False)
        s[block] = {
            "fill_ordinal": self.access_count,
            "fill_pc": pc,
            "fill_core": core,
            "core_mask": 1 << core,
            "write_mask": (1 << core) if is_write else 0,
            "hits": 0,
            "other_hits": 0,
        }
        return False, evicted

    def _end(self, block, meta, forced):
        self.ended.append((
            block, meta["fill_ordinal"], self.access_count, meta["fill_pc"],
            meta["fill_core"], meta["core_mask"], meta["write_mask"],
            meta["hits"], meta["other_hits"], forced,
        ))

    def flush(self):
        for s in self.sets:
            for block, meta in s.items():
                self._end(block, meta, forced=True)

    def resident(self):
        return sorted(block for s in self.sets for block in s)


class Collector(ResidencyObserver):
    def __init__(self):
        self.ended = []

    def consume(self, table):
        for row in table.rows():
            block, __, *rest, forced = row
            self.ended.append((block, *rest, bool(forced)))


accesses_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # core
        st.integers(min_value=0, max_value=9),    # pc
        st.integers(min_value=0, max_value=11),   # block
        st.booleans(),                            # is_write
    ),
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(accesses_strategy)
def test_llc_matches_reference_model(accesses):
    collector = Collector()
    llc = SharedLlc(GEOMETRY, LruPolicy(), observers=(collector,))
    reference = ReferenceLlc()

    for core, pc, block, is_write in accesses:
        expected = reference.access(core, pc, block, is_write)
        actual = llc.access(core, pc, block, is_write)
        assert actual == expected

    llc.flush_residencies()
    reference.flush()

    assert llc.hits == reference.hits
    assert llc.misses == reference.misses
    assert sorted(llc.resident_blocks()) == reference.resident()
    # Residency records must match except for ordering within the final
    # flush (the LLC flushes by set/way order, the model by set/insertion).
    completed = [r for r in collector.ended if not r[-1]]
    expected_completed = [r for r in reference.ended if not r[-1]]
    assert completed == expected_completed
    flushed = sorted(r for r in collector.ended if r[-1])
    expected_flushed = sorted(r for r in reference.ended if r[-1])
    assert flushed == expected_flushed
