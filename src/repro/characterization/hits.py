"""Shared-vs-private residency classification and hit accounting.

Definitions (paper section 2): a block is **shared in a residency** when at
least two distinct cores issue demand accesses to it between its fill and
its eviction; otherwise the residency is **private**. A shared residency is
**read-only shared** when no core wrote during it, else **read-write
shared**. Hits are attributed to the classification of the residency that
served them.
"""

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.cache.residency import ResidencyObserver
from repro.common.stats import ratio


def popcount(mask: int) -> int:
    """Number of set bits (sharer count of a core mask)."""
    return mask.bit_count()


@dataclass
class HitBreakdown:
    """Aggregated residency/hit statistics of one simulated LLC run."""

    residencies: int = 0
    shared_residencies: int = 0
    ro_shared_residencies: int = 0
    rw_shared_residencies: int = 0
    hits: int = 0
    shared_hits: int = 0
    ro_shared_hits: int = 0
    rw_shared_hits: int = 0
    dead_residencies: int = 0
    dead_private_residencies: int = 0
    degree_residencies: Dict[int, int] = field(default_factory=dict)
    degree_hits: Dict[int, int] = field(default_factory=dict)

    @property
    def private_residencies(self) -> int:
        """Residencies touched by exactly one core."""
        return self.residencies - self.shared_residencies

    @property
    def private_hits(self) -> int:
        """Hits served by private residencies."""
        return self.hits - self.shared_hits

    @property
    def shared_residency_fraction(self) -> float:
        """Fraction of residencies that were shared (F2 x-series)."""
        return ratio(self.shared_residencies, self.residencies)

    @property
    def shared_hit_fraction(self) -> float:
        """Fraction of LLC hits served by shared residencies (F1)."""
        return ratio(self.shared_hits, self.hits)

    @property
    def hit_density_ratio(self) -> float:
        """Hits-per-shared-residency over hits-per-residency (F2).

        Values above 1 mean shared blocks earn a disproportionate share of
        hits — the paper's motivation for protecting them.
        """
        overall = ratio(self.hits, self.residencies)
        shared = ratio(self.shared_hits, self.shared_residencies)
        return ratio(shared, overall)

    @property
    def ro_fraction_of_shared_hits(self) -> float:
        """Read-only share of the shared-residency hits (F3)."""
        return ratio(self.ro_shared_hits, self.shared_hits)

    @property
    def dead_fill_fraction(self) -> float:
        """Fraction of residencies that never produced a hit."""
        return ratio(self.dead_residencies, self.residencies)


class SharingClassifier(ResidencyObserver):
    """Observer accumulating a :class:`HitBreakdown`."""

    def __init__(self):
        self.breakdown = HitBreakdown()

    def consume(self, table) -> None:
        b = self.breakdown
        hits = table.hits
        degree = table.degree()
        shared = degree >= 2
        rw = shared & (table.write_mask != 0)
        ro = shared & ~rw
        dead = hits == 0
        b.residencies += len(table)
        b.hits += int(hits.sum())
        b.shared_residencies += int(shared.sum())
        b.shared_hits += int(hits[shared].sum())
        b.rw_shared_residencies += int(rw.sum())
        b.rw_shared_hits += int(hits[rw].sum())
        b.ro_shared_residencies += int(ro.sum())
        b.ro_shared_hits += int(hits[ro].sum())
        b.dead_residencies += int(dead.sum())
        b.dead_private_residencies += int((dead & ~shared).sum())
        # Degrees enter the histograms in order of first appearance, as
        # a row-by-row fold would insert them.
        values, first = np.unique(degree, return_index=True)
        for value in values[np.argsort(first)].tolist():
            rows = degree == value
            b.degree_residencies[value] = (
                b.degree_residencies.get(value, 0) + int(rows.sum())
            )
            b.degree_hits[value] = (
                b.degree_hits.get(value, 0) + int(hits[rows].sum())
            )
