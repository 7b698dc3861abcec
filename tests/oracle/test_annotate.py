"""Tests for the oracle annotation passes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.oracle.annotate import (
    _build_stream_annotation_python,
    build_sharing_annotation,
    build_stream_annotation,
    oracle_hint_source,
)
from tests.conftest import make_stream


def naive_stream_annotation(accesses, horizon, cap=127):
    """O(n^2) reference implementation of the future-sharing budget."""
    budgets = [0] * (len(accesses) + 1)
    for i, (core, __, block, __w) in enumerate(accesses):
        count = 0
        for j in range(i + 1, min(i + horizon + 1, len(accesses))):
            other_core, __, other_block, __w2 = accesses[j]
            if other_block == block and other_core != core:
                count += 1
        budgets[i + 1] = min(count, cap)
    return budgets


GEOMETRY = CacheGeometry(2 * 2 * 64, 2)  # 4 blocks capacity

stream_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.just(0),
        st.integers(min_value=0, max_value=6),
        st.booleans(),
    ),
    max_size=60,
)


class TestStreamAnnotation:
    def test_simple_future_sharing(self):
        accesses = [
            (0, 0, 5, False),   # core 0 fills block 5
            (1, 0, 5, False),   # core 1 reads it -> fill budget 1
            (0, 0, 5, False),   # same-core -> not counted toward ordinal 2
        ]
        budgets = build_stream_annotation(make_stream(accesses), GEOMETRY,
                                          horizon_factor=8)
        assert budgets[1] == 1   # ordinal 1: one future access by core 1
        assert budgets[2] == 1   # ordinal 2 (core 1): core 0 at ordinal 3
        assert budgets[3] == 0

    def test_private_stream_gets_zero(self):
        accesses = [(0, 0, b % 3, False) for b in range(20)]
        budgets = build_stream_annotation(make_stream(accesses), GEOMETRY)
        assert max(budgets) == 0

    def test_horizon_cuts_far_sharing(self):
        # Block 9 reused by the other core far beyond the horizon window.
        accesses = [(0, 0, 9, False)]
        accesses += [(0, 0, 100 + i, False) for i in range(50)]
        accesses += [(1, 0, 9, False)]
        stream = make_stream(accesses)
        wide = build_stream_annotation(stream, GEOMETRY, horizon_factor=30)
        narrow = build_stream_annotation(stream, GEOMETRY, horizon_factor=1)
        assert wide[1] == 1
        assert narrow[1] == 0

    def test_cap_saturates(self):
        accesses = [(0, 0, 5, False)] + [(1, 0, 5, False)] * 20
        budgets = build_stream_annotation(make_stream(accesses), GEOMETRY, cap=3)
        assert budgets[1] == 3

    def test_rejects_bad_parameters(self):
        stream = make_stream([])
        with pytest.raises(ConfigError):
            build_stream_annotation(stream, GEOMETRY, horizon_factor=0)
        with pytest.raises(ConfigError):
            build_stream_annotation(stream, GEOMETRY, cap=0)

    @settings(max_examples=50)
    @given(stream_entries, st.integers(min_value=1, max_value=5))
    def test_matches_naive_reference(self, accesses, horizon_factor):
        stream = make_stream(accesses)
        budgets = build_stream_annotation(stream, GEOMETRY,
                                          horizon_factor=horizon_factor)
        expected = naive_stream_annotation(
            accesses, horizon_factor * GEOMETRY.num_blocks
        )
        assert list(budgets) == expected


class TestStreamAnnotationVectorized:
    """The numpy annotation kernel is bit-identical to the reference scan."""

    def both(self, accesses, horizon_factor=3, cap=127):
        stream = make_stream(accesses)
        python = _build_stream_annotation_python(
            stream, GEOMETRY, horizon_factor, cap
        )
        vectorized = build_stream_annotation(
            stream, GEOMETRY, horizon_factor=horizon_factor, cap=cap,
        )
        assert list(vectorized) == list(python)
        return python

    @settings(max_examples=50)
    @given(stream_entries, st.integers(min_value=1, max_value=5))
    def test_random_streams_agree(self, accesses, horizon_factor):
        self.both(accesses, horizon_factor=horizon_factor)

    def test_empty_stream(self):
        assert list(self.both([])) == [0]

    def test_cap_saturation_agrees(self):
        accesses = [(0, 0, 5, False)] + [(1, 0, 5, False)] * 30
        budgets = self.both(accesses, horizon_factor=8, cap=3)
        assert budgets[1] == 3

    def test_wide_block_ids_take_factorization_path(self):
        # (block * num_cores + core) no longer fits beside the position
        # bits, so the kernel must factorize to dense ids first.
        accesses = [
            (i % 2, 0, (1 << 50) + (i % 3), False) for i in range(32)
        ]
        self.both(accesses, horizon_factor=4)

    def test_long_stream_auto_path(self):
        accesses = [
            ((i // 7) % 4, 0, (i * 31) % 11, False) for i in range(6_000)
        ]
        self.both(accesses, horizon_factor=2)


class TestPolicyAnnotation:
    def test_budget_recorded_at_fill_ordinal(self):
        accesses = [
            (0, 0, 5, False),   # ordinal 1: fill
            (1, 0, 5, False),   # ordinal 2: cross-core hit
            (1, 0, 5, False),   # ordinal 3: another (same core 1)
            (0, 0, 5, True),    # ordinal 4: filler again
        ]
        budgets = build_sharing_annotation(make_stream(accesses), GEOMETRY)
        assert budgets[1] == 2   # two hits by cores != fill core
        assert budgets[2] == 0   # ordinal 2 was a hit, not a fill

    def test_private_residencies_zero(self):
        accesses = [(0, 0, b, False) for b in (1, 2, 1, 2)]
        budgets = build_sharing_annotation(make_stream(accesses), GEOMETRY)
        assert max(budgets) == 0

    def test_accepts_policy_instance(self):
        from repro.policies.lru import LruPolicy

        budgets = build_sharing_annotation(
            make_stream([(0, 0, 1, False)]), GEOMETRY, policy=LruPolicy()
        )
        assert len(budgets) == 2


class TestHintSource:
    def test_reads_by_access_ordinal(self):
        from array import array

        budgets = array("i", [0, 0, 7])

        class FakeLlc:
            access_count = 2

        hint = oracle_hint_source(budgets)
        assert hint(FakeLlc(), 0, 0, 0) == 7
