"""Temporal stability of per-block sharing behaviour.

A fill-time history predictor indexed by block address implicitly assumes a
block's next residency repeats its last residency's behaviour. This
observer measures exactly that assumption: the Markov transition counts of
the shared/private bit across a block's *consecutive* residencies, plus how
many blocks ever exhibit both behaviours. Low self-transition probability
(short "sharing phases") is the mechanism behind the paper's negative
predictability result.
"""

from dataclasses import dataclass

import numpy as np

from repro.cache.residency import ResidencyObserver
from repro.common.stats import ratio


@dataclass
class PhaseStats:
    """Sharing-bit transition statistics across consecutive residencies."""

    shared_to_shared: int = 0
    shared_to_private: int = 0
    private_to_shared: int = 0
    private_to_private: int = 0
    blocks_always_shared: int = 0
    blocks_always_private: int = 0
    blocks_bimodal: int = 0
    single_residency_blocks: int = 0

    @property
    def transitions(self) -> int:
        """Total consecutive-residency pairs observed."""
        return (
            self.shared_to_shared
            + self.shared_to_private
            + self.private_to_shared
            + self.private_to_private
        )

    @property
    def p_shared_given_shared(self) -> float:
        """P(next residency shared | last residency shared)."""
        return ratio(
            self.shared_to_shared, self.shared_to_shared + self.shared_to_private
        )

    @property
    def p_private_given_private(self) -> float:
        """P(next residency private | last residency private)."""
        return ratio(
            self.private_to_private, self.private_to_private + self.private_to_shared
        )

    @property
    def last_value_accuracy(self) -> float:
        """Accuracy of the ideal 'predict last residency's bit' predictor.

        This upper-bounds any per-block one-bit history predictor — an
        address-indexed table can at best remember the last outcome without
        aliasing, so this number caps T3's address predictor.
        """
        correct = self.shared_to_shared + self.private_to_private
        return ratio(correct, self.transitions)

    @property
    def bimodal_block_fraction(self) -> float:
        """Fraction of multi-residency blocks that flip behaviour at least once."""
        multi = (
            self.blocks_always_shared + self.blocks_always_private + self.blocks_bimodal
        )
        return ratio(self.blocks_bimodal, multi)


class SharingPhaseTracker(ResidencyObserver):
    """Observer accumulating :class:`PhaseStats`.

    Keeps, per distinct block, its last outcome, whether it ever flipped
    and its residency count; memory is proportional to the block
    footprint.
    """

    def __init__(self):
        empty = np.zeros(0, dtype=np.int64)
        self._blocks = empty  # sorted distinct blocks seen so far
        self._last = empty
        self._count = empty
        self._flipped = empty
        self.stats = PhaseStats()

    def consume(self, table) -> None:
        if not len(table):
            return
        # Each known block enters as one pseudo-row carrying its last
        # outcome, ahead of the new rows; a stable sort by block then
        # lines up every block's residencies in end order.
        prior = len(self._blocks)
        blocks = np.concatenate((self._blocks, table.block))
        shared = np.concatenate((self._last, table.shared().astype(np.int64)))
        order = np.argsort(blocks, kind="stable")
        blocks, shared = blocks[order], shared[order]
        new = (order >= prior).astype(np.int64)
        pair = (blocks[1:] == blocks[:-1]) & (new[1:] == 1)
        before, after = shared[:-1][pair], shared[1:][pair]
        stats = self.stats
        stats.shared_to_shared += int((before & after).sum())
        stats.shared_to_private += int((before & (1 - after)).sum())
        stats.private_to_shared += int(((1 - before) & after).sum())
        stats.private_to_private += int(((1 - before) & (1 - after)).sum())

        starts = np.flatnonzero(np.append(True, blocks[1:] != blocks[:-1]))
        ends = np.append(starts[1:], len(blocks)) - 1
        flips = np.append(False, pair & (shared[1:] != shared[:-1]))
        flipped = np.logical_or.reduceat(flips, starts).astype(np.int64)
        counts = np.add.reduceat(new, starts)
        group_blocks = blocks[starts]
        if prior:
            known = np.searchsorted(group_blocks, self._blocks)
            flipped[known] |= self._flipped
            counts[known] += self._count
        self._blocks = group_blocks
        self._last = shared[ends]
        self._count = counts
        self._flipped = flipped

    def finalize(self) -> PhaseStats:
        """Fold per-block summaries into the stats; call after the run."""
        stats = self.stats
        multi = self._count > 1
        bimodal = multi & (self._flipped == 1)
        steady = multi & (self._flipped == 0)
        stats.single_residency_blocks = int((self._count == 1).sum())
        stats.blocks_bimodal = int(bimodal.sum())
        stats.blocks_always_shared = int((steady & (self._last == 1)).sum())
        stats.blocks_always_private = int((steady & (self._last == 0)).sum())
        return stats
