"""Tests for sharing-phase (temporal stability) tracking."""

import pytest

from repro.cache.residency import ResidencyTable
from repro.characterization.phases import SharingPhaseTracker


def feed(tracker, block, shared):
    """Hand the tracker a one-residency table (state carries across)."""
    core_mask = 0b11 if shared else 0b1
    tracker.consume(ResidencyTable.from_rows(
        [(block, 0, 0, 0, 0, 0, core_mask, 0, 1, 1 if shared else 0, 0)]
    ))


class TestSharingPhaseTracker:
    def test_transition_counts(self):
        tracker = SharingPhaseTracker()
        for shared in (True, True, False, True, False, False):
            feed(tracker, block=7, shared=shared)
        stats = tracker.finalize()
        assert stats.shared_to_shared == 1
        assert stats.shared_to_private == 2
        assert stats.private_to_shared == 1
        assert stats.private_to_private == 1
        assert stats.transitions == 5

    def test_conditional_probabilities(self):
        tracker = SharingPhaseTracker()
        for shared in (True, True, True, False):
            feed(tracker, 1, shared)
        stats = tracker.finalize()
        assert stats.p_shared_given_shared == pytest.approx(2 / 3)

    def test_last_value_accuracy(self):
        tracker = SharingPhaseTracker()
        # Perfectly stable block: last-value predictor is always right.
        for __ in range(5):
            feed(tracker, 1, True)
        assert tracker.finalize().last_value_accuracy == 1.0

    def test_alternating_block_defeats_last_value(self):
        tracker = SharingPhaseTracker()
        for i in range(10):
            feed(tracker, 1, i % 2 == 0)
        assert tracker.finalize().last_value_accuracy == 0.0

    def test_block_census(self):
        tracker = SharingPhaseTracker()
        for __ in range(3):
            feed(tracker, 1, True)    # always shared
        for __ in range(3):
            feed(tracker, 2, False)   # always private
        feed(tracker, 3, True)
        feed(tracker, 3, False)       # bimodal
        feed(tracker, 4, True)        # single residency
        stats = tracker.finalize()
        assert stats.blocks_always_shared == 1
        assert stats.blocks_always_private == 1
        assert stats.blocks_bimodal == 1
        assert stats.single_residency_blocks == 1
        assert stats.bimodal_block_fraction == pytest.approx(1 / 3)

    def test_transitions_are_per_block(self):
        tracker = SharingPhaseTracker()
        feed(tracker, 1, True)
        feed(tracker, 2, False)   # different block: no transition
        assert tracker.finalize().transitions == 0

    def test_finalize_idempotent(self):
        tracker = SharingPhaseTracker()
        for shared in (True, False):
            feed(tracker, 1, shared)
        first = tracker.finalize()
        second = tracker.finalize()
        assert first.blocks_bimodal == second.blocks_bimodal == 1

    def test_empty(self):
        stats = SharingPhaseTracker().finalize()
        assert stats.transitions == 0
        assert stats.last_value_accuracy == 0.0
        assert stats.bimodal_block_fraction == 0.0
