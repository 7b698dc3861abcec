"""The full CMP cache hierarchy (online simulation).

Per-core private L1D and unified L2 (both strict LRU), a directory keeping
them coherent under an invalidation protocol, and one shared inclusive LLC.
Threads map 1:1 onto cores (the paper pins one thread per core).

Protocol, functionally:

* read: served by the innermost level holding the block; an L2 miss issues
  a demand access to the LLC and fills L2 then L1; the directory gains the
  core as a sharer.
* write: same path for data, then the writer becomes the exclusive dirty
  owner — every other core's private copies are invalidated (an *upgrade*
  when the writer already held the block; upgrades do not touch the LLC's
  replacement or residency state, matching a directory-only transaction).
* private L2 eviction: back-invalidates the core's L1 (L1 ⊆ L2) and drops
  the core from the directory; a dirty victim counts as a writeback
  (writebacks hit the inclusive LLC and are not replacement events).
* LLC eviction: back-invalidates every private copy (inclusion victims).
  A ``inclusive=False`` hierarchy skips back-invalidation: private copies
  survive LLC evictions (non-inclusive organisation), trading directory
  growth for the removal of inclusion victims — useful for quantifying how
  much of a sharing-heavy workload's LLC traffic is inclusion-induced.

Stream recording for experiments runs :mod:`repro.cache.recorder`, a
flattened loop that is bit-identical to this model under an LRU, inclusive
LLC; this class is its differential reference and the instrumented model
for probes, observers, other LLC policies and non-inclusive studies.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.llc import NO_BLOCK, SharedLlc
from repro.cache.private import PrivateCache
from repro.cache.stream import LlcStreamBuilder
from repro.coherence.directory import Directory
from repro.common.addressing import log2_exact
from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.common.stats import ratio
from repro.policies.base import ReplacementPolicy
from repro.trace.trace import Trace


@dataclass
class HierarchyStats:
    """Aggregate counters of one hierarchy run."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    upgrades: int = 0
    invalidations: int = 0
    l2_evictions: int = 0
    writebacks: int = 0
    inclusion_victims: int = 0

    @property
    def llc_accesses(self) -> int:
        """Demand accesses that reached the LLC."""
        return self.llc_hits + self.llc_misses

    @property
    def llc_miss_ratio(self) -> float:
        """LLC misses per LLC access."""
        return ratio(self.llc_misses, self.llc_accesses)

    @property
    def mpki_proxy(self) -> float:
        """LLC misses per kilo-access (instruction counts are not modelled,
        so per-access stands in for per-instruction)."""
        return ratio(self.llc_misses * 1000, self.accesses)


class CmpHierarchy:
    """Online CMP simulator: private L1/L2 per core under a shared LLC."""

    def __init__(
        self,
        machine: MachineConfig,
        policy: ReplacementPolicy,
        observers: Tuple = (),
        record_stream: bool = False,
        inclusive: bool = True,
        probe_bus=None,
    ):
        self.machine = machine
        self.inclusive = inclusive
        # Coherence probe bus (observability only): when set, directory
        # transactions are published via on_coherence(kind, core, block).
        # The checks sit on the upgrade/eviction paths, never on the L1-hit
        # fast path, so an un-probed hierarchy pays nothing per access.
        self._probe_bus = probe_bus
        self.l1s = [
            PrivateCache(machine.l1, name=f"l1.{core}")
            for core in range(machine.num_cores)
        ]
        self.l2s = [
            PrivateCache(machine.l2, name=f"l2.{core}")
            for core in range(machine.num_cores)
        ]
        self.llc = SharedLlc(machine.llc, policy, observers=observers)
        self.directory = Directory(machine.num_cores)
        self.stats = HierarchyStats()
        self._block_shift = log2_exact(machine.block_bytes)
        self._stream_builder: Optional[LlcStreamBuilder] = (
            LlcStreamBuilder() if record_stream else None
        )
        self._dirty_l2_blocks = [set() for __ in range(machine.num_cores)]

    def run(self, trace: Trace, flush: bool = True) -> HierarchyStats:
        """Drive the whole ``trace`` through the hierarchy.

        Args:
            trace: the interleaved multi-thread trace; thread ids must be
                within the machine's core count.
            flush: end live LLC residencies afterwards and hand the
                residency table to the observers (without the flush
                they receive nothing).

        Raises:
            SimulationError: when the trace uses more threads than cores.
        """
        if trace.num_threads > self.machine.num_cores:
            raise SimulationError(
                f"trace has {trace.num_threads} threads but machine has "
                f"{self.machine.num_cores} cores"
            )
        tids, pcs, addrs, writes = trace.columns()
        shift = self._block_shift
        for i in range(len(tids)):
            self.access(tids[i], pcs[i], addrs[i] >> shift, writes[i] != 0)
        if flush:
            self.llc.flush_residencies()
        return self.stats

    def access(self, core: int, pc: int, block: int, is_write: bool) -> None:
        """Process one demand access of ``core`` to ``block``."""
        stats = self.stats
        stats.accesses += 1
        l1 = self.l1s[core]
        if l1.access(block):
            stats.l1_hits += 1
        else:
            l2 = self.l2s[core]
            if l2.access(block):
                stats.l2_hits += 1
                l1.fill(block)
            else:
                self._llc_access(core, pc, block, is_write)
        if is_write:
            self._acquire_exclusive(core, block)

    def _llc_access(self, core: int, pc: int, block: int, is_write: bool) -> None:
        stats = self.stats
        hit, evicted = self.llc.access(core, pc, block, is_write)
        if hit:
            stats.llc_hits += 1
        else:
            stats.llc_misses += 1
        if self._stream_builder is not None:
            self._stream_builder.append(core, pc, block, is_write)
        if evicted != NO_BLOCK and self.inclusive:
            self._back_invalidate(evicted)
        # Fill the private levels (L2 first; inclusion L1 within L2).
        l2_victim = self.l2s[core].fill(block)
        if l2_victim is not None:
            stats.l2_evictions += 1
            self.l1s[core].invalidate(l2_victim)
            self.directory.remove_sharer(l2_victim, core)
            dirty = self._dirty_l2_blocks[core]
            if l2_victim in dirty:
                dirty.discard(l2_victim)
                stats.writebacks += 1
                if self._probe_bus is not None:
                    self._probe_bus.on_coherence("writeback", core, l2_victim)
        self.l1s[core].fill(block)
        self.directory.add_sharer(block, core)

    def _acquire_exclusive(self, core: int, block: int) -> None:
        """Make ``core`` the sole owner, invalidating other private copies."""
        others = self.directory.set_exclusive(block, core)
        if others:
            self.stats.upgrades += 1
            if self._probe_bus is not None:
                self._probe_bus.on_coherence("upgrade", core, block)
            for other in self.directory.iter_cores(others):
                if self.l1s[other].invalidate(block):
                    self.stats.invalidations += 1
                    if self._probe_bus is not None:
                        self._probe_bus.on_coherence("invalidation", other, block)
                if self.l2s[other].invalidate(block):
                    self.stats.invalidations += 1
                    if self._probe_bus is not None:
                        self._probe_bus.on_coherence("invalidation", other, block)
                self._dirty_l2_blocks[other].discard(block)
        self._dirty_l2_blocks[core].add(block)

    def _back_invalidate(self, block: int) -> None:
        """Remove an LLC-evicted block from every private cache (inclusion)."""
        mask = self.directory.clear_block(block)
        if not mask:
            return
        for core in self.directory.iter_cores(mask):
            invalidated = self.l1s[core].invalidate(block)
            invalidated = self.l2s[core].invalidate(block) or invalidated
            if invalidated:
                self.stats.inclusion_victims += 1
                if self._probe_bus is not None:
                    self._probe_bus.on_coherence("inclusion_victim", core, block)
            if block in self._dirty_l2_blocks[core]:
                self._dirty_l2_blocks[core].discard(block)
                self.stats.writebacks += 1
                if self._probe_bus is not None:
                    self._probe_bus.on_coherence("writeback", core, block)

    def stream(self):
        """The recorded LLC stream (requires ``record_stream=True``).

        Raises:
            SimulationError: when recording was not enabled.
        """
        if self._stream_builder is None:
            raise SimulationError("hierarchy was built with record_stream=False")
        return self._stream_builder.build()
