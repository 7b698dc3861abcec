"""Per-PC sharing ambiguity profile.

A PC-indexed fill-time predictor can only work if each fill PC's
residencies are predominantly shared or predominantly private. This
observer measures exactly that: for every fill PC, the split of its
residencies' outcomes, summarised as the *PC-majority accuracy* — the
accuracy of an ideal, unbounded, offline predictor that assigns every PC
its majority class. That number upper-bounds any PC-indexed table, however
large; when it is low, the feature itself is ambiguous (halo loops whose
PCs touch only shared rows are predictable; task loops whose single PC
touches whatever payload arrives are not), which is the paper's explanation
for the PC predictor's failure.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cache.residency import ResidencyObserver
from repro.common.stats import ratio


@dataclass(frozen=True)
class PcProfile:
    """Aggregated per-PC sharing statistics of one run."""

    distinct_pcs: int
    total_fills: int
    shared_fills: int
    majority_correct: int
    pure_pcs: int
    mixed_pcs: int

    @property
    def majority_accuracy(self) -> float:
        """Accuracy of the ideal offline per-PC majority predictor.

        The upper bound for any PC-indexed fill-time sharing predictor.
        """
        return ratio(self.majority_correct, self.total_fills)

    @property
    def base_rate(self) -> float:
        """Fraction of fills whose residency turned out shared."""
        return ratio(self.shared_fills, self.total_fills)

    @property
    def mixed_pc_fraction(self) -> float:
        """Fraction of fill PCs whose residencies mix both outcomes."""
        return ratio(self.mixed_pcs, self.distinct_pcs)


class PcSharingProfiler(ResidencyObserver):
    """Observer accumulating per-fill-PC shared/private outcome counts."""

    def __init__(self):
        self._counts: Dict[int, List[int]] = {}  # pc -> [private, shared]

    def consume(self, table) -> None:
        pcs, inverse = np.unique(table.fill_pc, return_inverse=True)
        shared = np.bincount(inverse, weights=table.shared(),
                             minlength=len(pcs)).astype(np.int64)
        total = np.bincount(inverse, minlength=len(pcs))
        for pc, private_count, shared_count in zip(
            pcs.tolist(), (total - shared).tolist(), shared.tolist()
        ):
            counts = self._counts.setdefault(pc, [0, 0])
            counts[0] += private_count
            counts[1] += shared_count

    def finalize(self) -> PcProfile:
        """Fold the per-PC counts into a :class:`PcProfile`."""
        total = shared = majority = pure = mixed = 0
        for private_count, shared_count in self._counts.values():
            total += private_count + shared_count
            shared += shared_count
            majority += max(private_count, shared_count)
            if private_count and shared_count:
                mixed += 1
            else:
                pure += 1
        return PcProfile(
            distinct_pcs=len(self._counts),
            total_fills=total,
            shared_fills=shared,
            majority_correct=majority,
            pure_pcs=pure,
            mixed_pcs=mixed,
        )

    def per_pc_counts(self) -> List[Tuple[int, int, int]]:
        """Raw ``(pc, private_fills, shared_fills)`` rows (for reports)."""
        return [(pc, c[0], c[1]) for pc, c in sorted(self._counts.items())]
