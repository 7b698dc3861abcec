"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.cache.llc import ResidencyObserver
from repro.cache.stream import LlcStream, LlcStreamBuilder
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


class RecordingObserver(ResidencyObserver):
    """Logs every callback verbatim for sequence comparison."""

    def __init__(self):
        self.events = []

    def residency_started(self, block, set_index, fill_ordinal, pc, core):
        self.events.append(("started", block, set_index, fill_ordinal, pc, core))

    def residency_ended(self, block, set_index, fill_ordinal, end_ordinal,
                        fill_pc, fill_core, core_mask, write_mask, hits,
                        other_hits, forced):
        self.events.append((
            "ended", block, set_index, fill_ordinal, end_ordinal, fill_pc,
            fill_core, core_mask, write_mask, hits, other_hits, forced,
        ))


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
