"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.cache.residency import ResidencyObserver
from repro.cache.stream import LlcStream, LlcStreamBuilder
from repro.characterization.hits import HitBreakdown
from repro.characterization.phases import PhaseStats
from repro.predictors.metrics import ConfusionMatrix
from repro.common.config import CacheGeometry, MachineConfig
from repro.sim.experiment import CACHE_DIR_ENV
from repro.trace.trace import Trace, TraceBuilder


@pytest.fixture(autouse=True, scope="session")
def _hermetic_cache_dir(tmp_path_factory):
    """Point the persistent stream cache at a per-session temp directory.

    CLI subcommands default to the machine-wide cache; tests must neither
    read nor pollute the developer's real ~/.cache/repro-sim.
    """
    import os

    directory = tmp_path_factory.mktemp("repro-sim-cache")
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(directory)
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


class TableRecorder(ResidencyObserver):
    """Keeps every residency table it is handed, for row comparisons."""

    def __init__(self):
        self.tables = []

    def consume(self, table):
        self.tables.append(table)

    @property
    def rows(self):
        """Every row of every table, as tuples of Python ints."""
        return [row for table in self.tables for row in table.rows()]


# ----------------------------------------------------------------------
# Plain-Python per-row references for the table reductions. Rows are
# ResidencyTable.rows() tuples: (block, set_index, fill, end, fill_pc,
# fill_core, core_mask, write_mask, hits, other_hits, forced), end order.
# ----------------------------------------------------------------------

def _is_shared(core_mask):
    return bin(core_mask).count("1") >= 2


def reference_breakdown(rows) -> HitBreakdown:
    """SharingClassifier, folded one row at a time."""
    b = HitBreakdown()
    for row in rows:
        core_mask, write_mask, hits = row[6], row[7], row[8]
        b.residencies += 1
        b.hits += hits
        degree = bin(core_mask).count("1")
        b.degree_residencies[degree] = b.degree_residencies.get(degree, 0) + 1
        b.degree_hits[degree] = b.degree_hits.get(degree, 0) + hits
        shared = degree >= 2
        if shared:
            b.shared_residencies += 1
            b.shared_hits += hits
            if write_mask:
                b.rw_shared_residencies += 1
                b.rw_shared_hits += hits
            else:
                b.ro_shared_residencies += 1
                b.ro_shared_hits += hits
        if hits == 0:
            b.dead_residencies += 1
            if not shared:
                b.dead_private_residencies += 1
    return b


def reference_phases(rows) -> PhaseStats:
    """SharingPhaseTracker (consume + finalize), one row at a time."""
    stats = PhaseStats()
    last, count, flipped = {}, {}, set()
    for row in rows:
        block, shared = row[0], _is_shared(row[6])
        if block in last:
            previous = last[block]
            if previous and shared:
                stats.shared_to_shared += 1
            elif previous:
                stats.shared_to_private += 1
            elif shared:
                stats.private_to_shared += 1
            else:
                stats.private_to_private += 1
            if previous != shared:
                flipped.add(block)
        last[block] = shared
        count[block] = count.get(block, 0) + 1
    for block, n in count.items():
        if n == 1:
            stats.single_residency_blocks += 1
        elif block in flipped:
            stats.blocks_bimodal += 1
        elif last[block]:
            stats.blocks_always_shared += 1
        else:
            stats.blocks_always_private += 1
    return stats


def reference_pc_counts(rows):
    """PcSharingProfiler.per_pc_counts, one row at a time."""
    counts = {}
    for row in rows:
        pair = counts.setdefault(row[4], [0, 0])
        pair[1 if _is_shared(row[6]) else 0] += 1
    return [(pc, c[0], c[1]) for pc, c in sorted(counts.items())]


def reference_fill_log(rows, stream_length):
    """FillSharingLog: ``(budgets, shared_fills, total_fills)``."""
    budgets = [0] * (stream_length + 1)
    for row in rows:
        budgets[row[2]] = row[9]
    return budgets, sum(_is_shared(row[6]) for row in rows), len(rows)


def reference_set_stats(rows, num_sets):
    """SetStatsProbe: per-set ``(misses, hits, evictions, live)`` lists."""
    misses, hits, evictions, live = ([0] * num_sets for __ in range(4))
    for row in rows:
        set_index = row[1]
        misses[set_index] += 1
        hits[set_index] += row[8]
        if row[10]:
            live[set_index] += 1
        else:
            evictions[set_index] += 1
    return misses, hits, evictions, live


def reference_eviction_reasons(rows):
    """EvictionReasonProbe: ``reason -> (count, dead, shared, lifetimes)``."""
    out = {"capacity": [0, 0, 0, []], "flush": [0, 0, 0, []]}
    for row in rows:
        entry = out["flush" if row[10] else "capacity"]
        entry[0] += 1
        entry[1] += row[8] == 0
        entry[2] += _is_shared(row[6])
        entry[3].append(row[3] - row[2])
    return out


def reference_harness(rows, predictor, warmup_fills=0) -> ConfusionMatrix:
    """PredictorHarness over one table: predict at each fill, train at
    each end, in the order the object model runs them — an eviction at
    ordinal e before the fill at e, flushed ends last in table order."""
    events = []
    for index, row in enumerate(rows):
        events.append(((row[2], 1), "fill", row))
        end_key = (float("inf"), index) if row[10] else (row[3], 0)
        events.append((end_key, "end", row))
    events.sort(key=lambda event: event[0])
    matrix = ConfusionMatrix()
    pending = {}
    fills = 0
    for __, kind, row in events:
        block, pc, core = row[0], row[4], row[5]
        if kind == "fill":
            fills += 1
            pending[row[2]] = (predictor.predict(block, pc, core), fills)
        else:
            prediction, number = pending.pop(row[2])
            shared = _is_shared(row[6])
            if number > warmup_fills:
                matrix.update(prediction, shared)
            predictor.train(block, pc, core, shared)
    return matrix


def make_stream(accesses, name="test-stream") -> LlcStream:
    """Build an LlcStream from (core, pc, block, is_write) tuples."""
    builder = LlcStreamBuilder(name=name)
    for core, pc, block, is_write in accesses:
        builder.append(core, pc, block, is_write)
    return builder.build()


def make_trace(accesses, name="test-trace") -> Trace:
    """Build a Trace from (tid, pc, addr, is_write) tuples."""
    builder = TraceBuilder(name=name)
    for tid, pc, addr, is_write in accesses:
        builder.append(tid, pc, addr, is_write)
    return builder.build()


def read_stream(blocks, core=0, pc=0x100) -> LlcStream:
    """An all-reads single-core stream over a block sequence."""
    return make_stream([(core, pc, block, False) for block in blocks])


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """4 sets x 2 ways of 64B blocks (512B)."""
    return CacheGeometry(size_bytes=512, ways=2, block_bytes=64)


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """8 sets x 4 ways of 64B blocks (2KB)."""
    return CacheGeometry(size_bytes=2048, ways=4, block_bytes=64)


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """2-core machine small enough to exercise every eviction path."""
    return MachineConfig(
        name="tiny",
        num_cores=2,
        l1=CacheGeometry(512, 4),       # 2 sets x 4 ways
        l2=CacheGeometry(1024, 4),      # 4 sets x 4 ways
        llc=CacheGeometry(4096, 8),     # 8 sets x 8 ways
        scale=1024,
    )


@pytest.fixture
def quad_machine() -> MachineConfig:
    """4-core machine for sharing-heavy hierarchy tests."""
    return MachineConfig(
        name="quad",
        num_cores=4,
        l1=CacheGeometry(512, 4),
        l2=CacheGeometry(1024, 4),
        llc=CacheGeometry(8192, 8),     # 16 sets x 8 ways
        scale=1024,
    )
