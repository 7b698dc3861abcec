"""Cache substrate: private caches, the shared LLC, and the CMP hierarchy.

Two simulation forms are provided:

* :class:`CmpHierarchy` — the full online model: per-core private L1/L2
  (LRU, kept coherent through :class:`repro.coherence.Directory`) beneath a
  shared inclusive :class:`SharedLlc`. A run can record the demand stream
  that reaches the LLC as an :class:`LlcStream`; the recording pipeline
  uses the bit-identical flattened recorder in
  :mod:`repro.cache.recorder` instead.
* LLC-only replay (``repro.sim.engine.LlcOnlySimulator``) over a recorded
  :class:`LlcStream` — the form used for policy comparisons, Belady's OPT
  and the sharing oracle, because it guarantees every policy observes the
  identical access stream.
"""

from repro.cache.private import PrivateCache
from repro.cache.llc import ResidencyObserver, SharedLlc
from repro.cache.stream import LlcStream, LlcStreamBuilder
from repro.cache.stream_io import read_llc_stream, write_llc_stream
from repro.cache.hierarchy import CmpHierarchy, HierarchyStats

__all__ = [
    "PrivateCache",
    "SharedLlc",
    "ResidencyObserver",
    "LlcStream",
    "LlcStreamBuilder",
    "read_llc_stream",
    "write_llc_stream",
    "CmpHierarchy",
    "HierarchyStats",
]
