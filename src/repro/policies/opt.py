"""Belady's optimal replacement (OPT / MIN), offline.

OPT evicts the resident block whose next use lies farthest in the future.
It needs the future, so it can only run in *replay mode*: over a recorded
:class:`repro.cache.LlcStream` whose per-position next-use indices were
precomputed by :func:`compute_next_use`. The policy tracks, per way, the
stream position at which the resident block is next accessed, and the
victim is the way with the maximum (a never-again block wins outright).

The LLC-level access stream is recorded once under the baseline hierarchy
and replayed identically for every policy, so OPT's miss count is the exact
offline optimum for that stream (Belady's algorithm is optimal for caches
without bypass; ties are broken by way index, which does not affect the
miss count).
"""

from array import array
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import SimulationError
from repro.policies.base import REPLAY_SET, ReplacementPolicy

NO_NEXT_USE = 1 << 62
"""Sentinel next-use position meaning "never accessed again"."""

def compute_next_use(blocks: Sequence[int]) -> array:
    """For each stream position, the position of that block's next access.

    Positions with no later access of the same block get
    :data:`NO_NEXT_USE`. Runs the numpy kernel (one values-only sort of
    ``(block << log2(n)) | position`` packed keys; each key's successor
    within its block run *is* the next use), falling back to the
    reference backward scan only when even dense ids cannot pack.
    Returns an ``array('q')`` column.
    """
    vectorized = _compute_next_use_packed(blocks)
    if vectorized is not None:
        return vectorized
    return _compute_next_use_python(blocks)


def _compute_next_use_python(blocks: Sequence[int]) -> array:
    """Backward scan with a last-seen map (the reference implementation)."""
    next_use = array("q", bytes(8 * len(blocks)))
    last_seen = {}
    for i in range(len(blocks) - 1, -1, -1):
        block = blocks[i]
        next_use[i] = last_seen.get(block, NO_NEXT_USE)
        last_seen[block] = i
    return next_use


def _compute_next_use_packed(blocks: Sequence[int]) -> Optional[array]:
    """Vectorized next-use via one values-only sort of packed keys.

    Packs ``(block << shift) | position`` into int64 (``2^shift >= n``) so a
    plain ``sort`` groups equal blocks with ascending positions; bit-shift
    decoding then links each position to its successor in the same run.
    Blocks too large to pack are first factorized to dense ids (an extra
    sort inside ``np.unique``). Returns ``None`` when even dense ids cannot
    pack (n >= 2^31), signalling the caller to use the Python scan.
    """
    if isinstance(blocks, array) and blocks.typecode == "q" and len(blocks):
        column = np.frombuffer(blocks, dtype=np.int64)
    else:
        column = np.asarray(blocks, dtype=np.int64)
    n = len(column)
    if n == 0:
        return array("q")
    shift = max(n - 1, 1).bit_length()
    if int(column.min()) < 0 or (int(column.max()) >> (63 - shift)) != 0:
        __, column = np.unique(column, return_inverse=True)
        column = column.astype(np.int64, copy=False)
        if ((n - 1) >> (63 - shift)) != 0:  # even dense ids overflow the pack
            return None

    keys = (column << shift) | np.arange(n, dtype=np.int64)
    keys.sort()
    positions = keys & ((1 << shift) - 1)
    ids = keys >> shift

    out = array("q", bytes(8 * n))
    next_use = np.frombuffer(out, dtype=np.int64)
    next_use[...] = NO_NEXT_USE
    linked = np.nonzero(ids[1:] == ids[:-1])[0]
    next_use[positions[linked]] = positions[linked + 1]
    return out


class BeladyOptPolicy(ReplacementPolicy):
    """Belady's MIN over a precomputed next-use sequence (replay only)."""

    name = "opt"

    # Per-way next-use positions are indexed by the *global* stream
    # ordinal, which the set partition preserves per access: exact under
    # set-partitioned replay.
    REPLAY_TIER = REPLAY_SET

    def __init__(self, next_use: array):
        super().__init__()
        self._next_use = next_use

    @property
    def next_use(self) -> array:
        """The precomputed next-use column (read by replay kernels)."""
        return self._next_use

    def bind(self, geometry) -> None:
        super().bind(geometry)
        self._way_next = [[NO_NEXT_USE] * self.ways for __ in range(self.num_sets)]

    def _current_ordinal(self) -> int:
        if self.llc is None:
            raise SimulationError("OPT policy used without an attached LLC")
        ordinal = self.llc.access_count - 1
        if ordinal >= len(self._next_use):
            raise SimulationError(
                f"OPT replayed past its stream: ordinal {ordinal} >= "
                f"{len(self._next_use)} (stream/policy mismatch)"
            )
        return ordinal

    def on_fill(self, set_index, way, block, pc, core, is_write) -> None:
        self._way_next[set_index][way] = self._next_use[self._current_ordinal()]

    def on_hit(self, set_index, way, block, pc, core, is_write) -> None:
        self._way_next[set_index][way] = self._next_use[self._current_ordinal()]

    def select_victim(self, set_index) -> int:
        nexts = self._way_next[set_index]
        return nexts.index(max(nexts))

    def rank_victims(self, set_index) -> list:
        nexts = self._way_next[set_index]
        return sorted(range(self.ways), key=lambda way: -nexts[way])

    def introspect(self) -> dict:
        snapshot = super().introspect()
        snapshot["stream_length"] = len(self._next_use)
        never = sum(1 for v in self._next_use if v == NO_NEXT_USE)
        snapshot["never_reused_accesses"] = never
        snapshot["never_reused_fraction"] = (
            never / len(self._next_use) if len(self._next_use) else 0.0
        )
        if self.geometry is None:
            return snapshot
        resident_never = sum(
            1 for nexts in self._way_next for v in nexts if v == NO_NEXT_USE
        )
        snapshot["resident_never_reused_ways"] = resident_never
        return snapshot
