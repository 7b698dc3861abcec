"""Differential tests for the flattened LLC-stream recorder.

:func:`repro.cache.recorder.record_inclusive_lru` must emit exactly what
the object hierarchy ``CmpHierarchy(machine, LruPolicy(),
record_stream=True)`` emits — stream columns bit for bit and every
:class:`HierarchyStats` counter — on every registered workload and on
random traces dense in writes, upgrades and back-invalidations.
"""

import pytest
from hypothesis import given

from repro.cache.hierarchy import CmpHierarchy, HierarchyStats
from repro.cache.recorder import record_inclusive_lru
from repro.common.config import CacheGeometry, MachineConfig, profile
from repro.common.errors import SimulationError
from repro.common.rng import derive_seed
from repro.policies.lru import LruPolicy
from repro.sim.multipass import record_llc_stream
from repro.workloads.registry import get_workload, workload_names
from tests.conftest import make_trace
from tests.strategies import access_lists

TINY = MachineConfig(
    name="tiny", num_cores=2,
    l1=CacheGeometry(512, 4), l2=CacheGeometry(1024, 4),
    llc=CacheGeometry(4096, 8), scale=1024,
)
QUAD = MachineConfig(
    name="quad", num_cores=4,
    l1=CacheGeometry(512, 4), l2=CacheGeometry(1024, 4),
    llc=CacheGeometry(8192, 8), scale=1024,
)
MACHINES = {"tiny": TINY, "scaled-4mb": profile("scaled-4mb"), "quad": QUAD}


def reference(trace, machine):
    hierarchy = CmpHierarchy(machine, LruPolicy(), record_stream=True)
    stats = hierarchy.run(trace)
    return hierarchy.stream(), stats


def assert_same_recording(trace, machine):
    stream, stats = record_inclusive_lru(trace, machine)
    expected_stream, expected_stats = reference(trace, machine)
    assert stats == expected_stats
    assert stream.name == expected_stream.name
    for ours, theirs in zip(stream.columns(), expected_stream.columns()):
        assert ours.typecode == theirs.typecode
        assert ours.tobytes() == theirs.tobytes()
    return stats


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("workload", workload_names())
def test_matches_hierarchy_on_every_workload(workload, machine_name):
    machine = MACHINES[machine_name]
    trace = get_workload(workload).generate(
        num_threads=machine.num_cores, scale=machine.scale,
        target_accesses=3_000, seed=derive_seed(11, "trace", workload),
    )
    stats = assert_same_recording(trace, machine)
    assert stats.llc_accesses > 0


@given(access_lists(num_threads=2, max_addr=64 * 160, max_size=600))
def test_matches_hierarchy_on_random_two_core_traces(accesses):
    assert_same_recording(make_trace(accesses), TINY)


@given(access_lists(num_threads=4, max_addr=64 * 320, max_size=600))
def test_matches_hierarchy_on_random_four_core_traces(accesses):
    assert_same_recording(make_trace(accesses), QUAD)


def test_every_coherence_event_fires_and_matches():
    # Four cores read then write a shared window wider than the LLC, so
    # one run covers upgrades, invalidations, L2 evictions, dirty
    # writebacks and inclusion victims.
    accesses = []
    for round_ in range(3):
        for block in range(160):
            for core in range(4):
                accesses.append((core, 0x400, block * 64, False))
            accesses.append(((block + round_) % 4, 0x404, block * 64, True))
    stats = assert_same_recording(make_trace(accesses), QUAD)
    assert stats.upgrades > 0
    assert stats.invalidations > 0
    assert stats.l2_evictions > 0
    assert stats.writebacks > 0
    assert stats.inclusion_victims > 0


def test_rejects_more_threads_than_cores():
    trace = make_trace([(0, 0x400, 0, False), (2, 0x400, 64, False)])
    with pytest.raises(SimulationError, match="3 threads but machine has 2"):
        record_inclusive_lru(trace, TINY)


def test_empty_trace_records_nothing():
    stream, stats = record_llc_stream(make_trace([], name="empty"), TINY)
    assert len(stream) == 0
    assert stream.name == "empty@tiny"
    assert stats == HierarchyStats()
    assert_same_recording(make_trace([]), TINY)


def test_record_llc_stream_does_not_build_the_object_hierarchy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("CmpHierarchy built on the recording path")

    monkeypatch.setattr(CmpHierarchy, "__init__", refuse)
    trace = make_trace([(0, 0x400, 0, False), (1, 0x404, 64, True)], name="t")
    stream, stats = record_llc_stream(trace, TINY)
    assert stream.name == "t@tiny"
    assert stats.llc_accesses == len(stream) == 2
