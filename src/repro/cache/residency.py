"""Per-residency LLC data as one table of int64 columns.

Nearly every experiment of the paper reduces over the residencies of one
replay: a residency starts when a fill brings a block into the LLC and
ends when that block is evicted (or the run ends and the final flush
closes it). :class:`ResidencyTable` holds every residency of a replay as
int64 numpy columns, one row per residency, in *end order* — evictions in
stream order, then the flushed residencies in (set, way) order, which is
exactly the order the object model ends them in.

Every replay tier produces the same table, row for row: the object model
appends one row per ended residency (:class:`repro.cache.llc.SharedLlc`),
and the fast tiers, which only record where each fill happened and which
way it took, rebuild the rest with :meth:`ResidencyTable.from_fills`.
Consumers (:class:`ResidencyObserver`) reduce over the columns after the
replay.
"""

from typing import List, Sequence, Tuple

import numpy as np

COLUMNS = (
    "block", "set_index", "fill", "end", "fill_pc", "fill_core",
    "core_mask", "write_mask", "hits", "other_hits", "forced",
)
"""Column names, in row-tuple order.

``fill``/``end`` are 1-based LLC access ordinals (the ordinal of the
access that filled the block, and of the access that evicted it — the
stream length for flushed residencies). ``core_mask``/``write_mask`` have
bit ``c`` set when core ``c`` accessed/wrote the block during the
residency; ``hits`` counts its demand hits and ``other_hits`` the subset
issued by cores other than the filler; ``forced`` is 1 for residencies
closed by the end-of-run flush.
"""


class ResidencyTable:
    """Every residency of one LLC replay, as columns in end order."""

    __slots__ = COLUMNS

    def __init__(self, columns: Sequence[np.ndarray]):
        for name, column in zip(COLUMNS, columns):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.block)

    @classmethod
    def from_rows(cls, rows: List[Tuple[int, ...]]) -> "ResidencyTable":
        """A table from row tuples (the object model's end-order log).

        Masks of cores above 62 do not fit int64; such columns are kept
        as Python-int object arrays so wide machines still classify.
        """
        if not rows:
            return cls([np.zeros(0, dtype=np.int64) for __ in COLUMNS])
        columns = []
        for values in zip(*rows):
            try:
                columns.append(np.array(values, dtype=np.int64))
            except OverflowError:
                columns.append(np.array(values, dtype=object))
        return cls(columns)

    @classmethod
    def from_fills(cls, stream, num_sets: int, ways: int, fill_pos,
                   fill_way) -> "ResidencyTable":
        """Rebuild the table of an exact replay from its fills alone.

        ``fill_pos`` holds the stream position of every miss in ascending
        order and ``fill_way`` the way each of those fills took. In an
        LLC-only replay nothing but a fill ends a residency, so:

        * a residency ends at the next fill into the same (set, way)
          frame, and the last residency of each frame is flushed;
        * each access belongs to the latest fill of its block at or
          before it, so a stable sort by block lays every residency's
          accesses out as one contiguous run, and hit counts and masks
          are segmented reductions over those runs.

        Core masks are int64: callers check
        :func:`repro.sim.fastpath.core_masks_fit` first.
        """
        fill_pos = np.asarray(fill_pos, dtype=np.int64)
        fill_way = np.asarray(fill_way, dtype=np.int64)
        count = len(fill_pos)
        if count == 0:
            return cls.from_rows([])
        n = len(stream)
        cores_np, pcs_np, blocks_np, writes_np = stream.numpy_columns()
        cores = cores_np.astype(np.int64)
        fill_block = blocks_np[fill_pos]
        fill_set = fill_block & (num_sets - 1)

        frames = fill_set * ways + fill_way
        by_frame = _stable_order(frames)
        frames = frames[by_frame]
        same = frames[1:] == frames[:-1]
        evicted = by_frame[:-1][same]
        evictor = by_frame[1:][same]
        in_end_order = np.argsort(evictor)  # fill order == stream order
        evicted = evicted[in_end_order]
        live = by_frame[np.append(~same, True)]  # (set, way) order
        rows = np.concatenate((evicted, live))
        end = np.concatenate((
            fill_pos[evictor[in_end_order]] + 1,
            np.full(len(live), n, dtype=np.int64),
        ))
        forced = np.concatenate((
            np.zeros(len(evicted), dtype=np.int64),
            np.ones(len(live), dtype=np.int64),
        ))

        order = _stable_order(blocks_np)
        is_fill = np.zeros(n, dtype=bool)
        is_fill[fill_pos] = True
        starts = np.flatnonzero(is_fill[order])
        rid_of = np.zeros(n, dtype=np.int64)
        rid_of[fill_pos] = np.arange(count, dtype=np.int64)
        seg_rid = rid_of[order[starts]]
        sizes = np.diff(np.append(starts, n))
        sorted_cores = cores[order]
        bits = np.left_shift(np.int64(1), sorted_cores)
        write_bits = np.where(writes_np[order] != 0, bits, np.int64(0))
        other = sorted_cores != np.repeat(sorted_cores[starts], sizes)

        core_mask = np.empty(count, dtype=np.int64)
        write_mask = np.empty(count, dtype=np.int64)
        hits = np.empty(count, dtype=np.int64)
        other_hits = np.empty(count, dtype=np.int64)
        core_mask[seg_rid] = np.bitwise_or.reduceat(bits, starts)
        write_mask[seg_rid] = np.bitwise_or.reduceat(write_bits, starts)
        hits[seg_rid] = sizes - 1
        other_hits[seg_rid] = np.add.reduceat(other.astype(np.int64), starts)
        return cls((
            fill_block[rows], fill_set[rows], fill_pos[rows] + 1, end,
            pcs_np[fill_pos][rows], cores[fill_pos][rows], core_mask[rows],
            write_mask[rows], hits[rows], other_hits[rows], forced,
        ))

    def degree(self) -> np.ndarray:
        """Sharer count of each residency (set bits of ``core_mask``)."""
        if self.core_mask.dtype == object:
            return np.array([int(m).bit_count() for m in self.core_mask],
                            dtype=np.int64)
        return np.bitwise_count(self.core_mask).astype(np.int64)

    def shared(self) -> np.ndarray:
        """True for residencies touched by at least two cores."""
        return self.degree() >= 2

    def rows(self) -> List[Tuple[int, ...]]:
        """Every row as a tuple of Python ints (tests and references)."""
        return list(zip(*(getattr(self, name).tolist() for name in COLUMNS)))


def _stable_order(groups: np.ndarray) -> np.ndarray:
    """Stable argsort of an int64 column, by one values-only sort.

    Each entry is packed as ``(group << shift) | index`` with ``2^shift``
    above the length, so sorting the packed keys orders by group and keeps
    index order within a group; groups too wide to pack (or negative) are
    factorized to dense ids first.
    """
    n = len(groups)
    shift = max(n - 1, 1).bit_length()
    if n and (int(groups.min()) < 0 or int(groups.max()) >> (62 - shift)):
        groups = np.unique(groups, return_inverse=True)[1].astype(np.int64)
    keys = (groups << shift) | np.arange(n, dtype=np.int64)
    keys.sort()
    return keys & ((1 << shift) - 1)


class ResidencyObserver:
    """Consumes the residency table of each replay it is attached to.

    Pass observers to :func:`repro.sim.multipass.run_policy_on_stream`
    (or to the object model directly); the replay hands them its
    :class:`ResidencyTable` once, after the last residency has ended.
    """

    def consume(self, table: ResidencyTable) -> None:
        """Fold one replay's residencies into this observer's state."""
        raise NotImplementedError

    def live_hook(self, policy):
        """A callable the object model must call at every residency end.

        Default ``None``: the table is enough. The predictor harness
        returns one when ``policy`` reads the harness's predictor during
        the replay, because then training cannot wait for the table.
        """
        return None
