"""Confusion-matrix metrics for fill-time sharing prediction."""

from dataclasses import dataclass

from repro.common.stats import ratio


@dataclass
class ConfusionMatrix:
    """Binary prediction outcomes; "positive" means predicted/actually shared."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    def update(self, predicted: bool, actual: bool) -> None:
        """Record one (prediction, truth) pair."""
        if predicted:
            if actual:
                self.true_positive += 1
            else:
                self.false_positive += 1
        elif actual:
            self.false_negative += 1
        else:
            self.true_negative += 1

    def update_many(self, predicted, actual) -> None:
        """Record aligned boolean arrays of predictions and truths."""
        self.true_positive += int((predicted & actual).sum())
        self.false_positive += int((predicted & ~actual).sum())
        self.false_negative += int((~predicted & actual).sum())
        self.true_negative += int((~predicted & ~actual).sum())

    @property
    def total(self) -> int:
        """Scored fills."""
        return (
            self.true_positive
            + self.false_positive
            + self.true_negative
            + self.false_negative
        )

    @property
    def accuracy(self) -> float:
        """Fraction of fills predicted correctly."""
        return ratio(self.true_positive + self.true_negative, self.total)

    @property
    def precision(self) -> float:
        """Of the fills predicted shared, the fraction actually shared —
        low precision means the policy would protect dead/private blocks."""
        return ratio(self.true_positive, self.true_positive + self.false_positive)

    @property
    def recall(self) -> float:
        """Of the actually shared fills, the fraction predicted shared
        (the paper's *coverage* of sharing)."""
        return ratio(self.true_positive, self.true_positive + self.false_negative)

    @property
    def coverage(self) -> float:
        """Fraction of all fills flagged shared (how aggressively the
        predictor would engage the protection mechanism)."""
        return ratio(self.true_positive + self.false_positive, self.total)

    @property
    def base_rate(self) -> float:
        """Fraction of fills actually shared (the class prior)."""
        return ratio(self.true_positive + self.false_negative, self.total)

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return ratio(2 * p * r, p + r)

    def merge(self, other: "ConfusionMatrix") -> None:
        """Accumulate another matrix into this one."""
        self.true_positive += other.true_positive
        self.false_positive += other.false_positive
        self.true_negative += other.true_negative
        self.false_negative += other.false_negative
