"""Flattened LLC-stream recorder for the baseline hierarchy.

Records the same stream and :class:`HierarchyStats` as
``CmpHierarchy(machine, LruPolicy(), record_stream=True).run(trace)``
— per-core L1/L2, directory coherence, an inclusive LRU LLC — but in one
loop over compact structures instead of the object graph:

* every cache set (L1 and L2 of every core, and the LLC) is a list of
  block addresses in recency order, MRU first; the LRU victim is the last
  entry. Private sets live in one flat list per level, indexed by
  ``core * num_sets + set``;
* the directory is one ``dict`` of block -> sharer bitmask, and dirty
  private-L2 blocks are one ``set`` per core;
* counters are local variables and the four stream columns are
  ``array`` appends.

Only the recording configuration is covered. :class:`CmpHierarchy` stays
the instrumented online model (probe bus, observers, other LLC policies,
``inclusive=False``) and is the differential reference for this loop
(``tests/cache/test_recorder.py``).
"""

from array import array
from typing import Tuple

from repro.cache.hierarchy import HierarchyStats
from repro.cache.stream import LlcStream
from repro.common.addressing import log2_exact
from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.trace.trace import Trace


def record_inclusive_lru(
    trace: Trace, machine: MachineConfig
) -> Tuple[LlcStream, HierarchyStats]:
    """Run ``trace`` through the baseline hierarchy, recording the LLC stream.

    Raises:
        SimulationError: when the trace uses more threads than cores.
    """
    num_cores = machine.num_cores
    if trace.num_threads > num_cores:
        raise SimulationError(
            f"trace has {trace.num_threads} threads but machine has "
            f"{num_cores} cores"
        )
    shift = log2_exact(machine.block_bytes)
    l1_sets = machine.l1.num_sets
    l1_mask = l1_sets - 1
    l1_ways = machine.l1.ways
    l2_sets = machine.l2.num_sets
    l2_mask = l2_sets - 1
    l2_ways = machine.l2.ways
    llc_mask = machine.llc.num_sets - 1
    llc_ways = machine.llc.ways
    l1 = [[] for __ in range(num_cores * l1_sets)]
    l2 = [[] for __ in range(num_cores * l2_sets)]
    llc = [[] for __ in range(machine.llc.num_sets)]
    sharers = {}
    dirty = [set() for __ in range(num_cores)]
    out_cores = array("b")
    out_pcs = array("q")
    out_blocks = array("q")
    out_writes = array("b")
    emit_core = out_cores.append
    emit_pc = out_pcs.append
    emit_block = out_blocks.append
    emit_write = out_writes.append

    l1_hits = l2_hits = llc_hits = llc_misses = 0
    upgrades = invalidations = l2_evictions = 0
    writebacks = inclusion_victims = 0

    tids, pcs, addrs, writes = trace.columns()
    for core, pc, addr, write in zip(tids, pcs, addrs, writes):
        block = addr >> shift
        l1_set = l1[core * l1_sets + (block & l1_mask)]
        if block in l1_set:
            l1_hits += 1
            if l1_set[0] != block:
                l1_set.remove(block)
                l1_set.insert(0, block)
        else:
            l2_set = l2[core * l2_sets + (block & l2_mask)]
            if block in l2_set:
                l2_hits += 1
                if l2_set[0] != block:
                    l2_set.remove(block)
                    l2_set.insert(0, block)
            else:
                llc_set = llc[block & llc_mask]
                if block in llc_set:
                    llc_hits += 1
                    if llc_set[0] != block:
                        llc_set.remove(block)
                        llc_set.insert(0, block)
                else:
                    llc_misses += 1
                    llc_set.insert(0, block)
                    if len(llc_set) > llc_ways:
                        # Inclusion: the LLC victim leaves every private
                        # level that holds it.
                        victim = llc_set.pop()
                        mask = sharers.pop(victim, 0)
                        other = 0
                        while mask:
                            if mask & 1:
                                held = False
                                ways = l1[other * l1_sets + (victim & l1_mask)]
                                if victim in ways:
                                    ways.remove(victim)
                                    held = True
                                ways = l2[other * l2_sets + (victim & l2_mask)]
                                if victim in ways:
                                    ways.remove(victim)
                                    held = True
                                if held:
                                    inclusion_victims += 1
                                owned = dirty[other]
                                if victim in owned:
                                    owned.discard(victim)
                                    writebacks += 1
                            mask >>= 1
                            other += 1
                emit_core(core)
                emit_pc(pc)
                emit_block(block)
                emit_write(1 if write else 0)
                l2_set.insert(0, block)
                if len(l2_set) > l2_ways:
                    victim = l2_set.pop()
                    l2_evictions += 1
                    ways = l1[core * l1_sets + (victim & l1_mask)]
                    if victim in ways:
                        ways.remove(victim)
                    mask = sharers.get(victim, 0) & ~(1 << core)
                    if mask:
                        sharers[victim] = mask
                    else:
                        sharers.pop(victim, None)
                    owned = dirty[core]
                    if victim in owned:
                        owned.discard(victim)
                        writebacks += 1
                sharers[block] = sharers.get(block, 0) | (1 << core)
            l1_set.insert(0, block)
            if len(l1_set) > l1_ways:
                l1_set.pop()
        if write:
            bit = 1 << core
            mask = sharers.get(block, 0) & ~bit
            sharers[block] = bit
            if mask:
                upgrades += 1
                other = 0
                while mask:
                    if mask & 1:
                        ways = l1[other * l1_sets + (block & l1_mask)]
                        if block in ways:
                            ways.remove(block)
                            invalidations += 1
                        ways = l2[other * l2_sets + (block & l2_mask)]
                        if block in ways:
                            ways.remove(block)
                            invalidations += 1
                        dirty[other].discard(block)
                    mask >>= 1
                    other += 1
            dirty[core].add(block)

    stats = HierarchyStats(
        accesses=len(tids),
        l1_hits=l1_hits,
        l2_hits=l2_hits,
        llc_hits=llc_hits,
        llc_misses=llc_misses,
        upgrades=upgrades,
        invalidations=invalidations,
        l2_evictions=l2_evictions,
        writebacks=writebacks,
        inclusion_victims=inclusion_victims,
    )
    stream = LlcStream(out_cores, out_pcs, out_blocks, out_writes)
    return stream, stats
