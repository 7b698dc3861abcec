"""Tests for Belady's OPT and next-use computation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.opt import (
    NO_NEXT_USE,
    BeladyOptPolicy,
    _compute_next_use_python,
    compute_next_use,
)
from repro.policies.registry import make_policy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.multipass import run_opt, run_policy_on_stream
from tests.conftest import read_stream


class TestComputeNextUse:
    def test_simple_sequence(self):
        next_use = compute_next_use([5, 6, 5, 6, 7])
        assert list(next_use) == [2, 3, NO_NEXT_USE, NO_NEXT_USE, NO_NEXT_USE]

    def test_empty(self):
        assert len(compute_next_use([])) == 0

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=60))
    def test_matches_naive_reference(self, blocks):
        next_use = compute_next_use(blocks)
        for i, block in enumerate(blocks):
            try:
                expected = blocks.index(block, i + 1)
            except ValueError:
                expected = NO_NEXT_USE
            assert next_use[i] == expected


class TestComputeNextUseVectorized:
    """The numpy kernel must be bit-identical to the reference scan."""

    def both(self, blocks):
        python = _compute_next_use_python(blocks)
        vectorized = compute_next_use(blocks)
        assert list(vectorized) == list(python)
        return python

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=200))
    def test_random_streams_agree(self, blocks):
        self.both(blocks)

    def test_no_next_use_edges(self):
        # Every edge that produces the sentinel: empty input, a singleton,
        # all-distinct blocks (everything is a last use), and a final
        # access that is also a first use.
        assert list(compute_next_use([])) == []
        assert list(compute_next_use([7])) == [NO_NEXT_USE]
        distinct = self.both(list(range(10)))
        assert set(distinct) == {NO_NEXT_USE}
        tail_first = self.both([1, 1, 2])
        assert tail_first[-1] == NO_NEXT_USE

    def test_single_hot_block(self):
        next_use = self.both([3] * 50)
        assert list(next_use[:-1]) == list(range(1, 50))
        assert next_use[-1] == NO_NEXT_USE

    def test_wide_block_ids_take_factorization_path(self):
        # Ids too wide to pack directly next to positions: the kernel must
        # factorize to dense ids and still agree with the Python scan.
        blocks = [(1 << 50) + (i % 3) for i in range(64)]
        self.both(blocks)

    def test_negative_ids(self):
        self.both([-5, 3, -5, -9, 3, -5])

    def test_large_stream_smoke(self):
        blocks = [(i * 2654435761) % 997 for i in range(10_000)]
        self.both(blocks)


def brute_force_min_misses(blocks, capacity):
    """Exact minimum misses for a fully-associative cache via BFS over
    reachable cache states (exponential; tiny inputs only)."""
    best = {frozenset(): 0}
    for block in blocks:
        new_best = {}
        for state, misses in best.items():
            if block in state:
                candidates = [(state, misses)]
            else:
                filled = misses + 1
                base = set(state)
                base.add(block)
                if len(base) <= capacity:
                    candidates = [(frozenset(base), filled)]
                else:
                    candidates = [
                        (frozenset(base - {victim}), filled)
                        for victim in state
                    ]
            for new_state, new_misses in candidates:
                if new_best.get(new_state, 1 << 30) > new_misses:
                    new_best[new_state] = new_misses
        best = new_best
    return min(best.values())


class TestBeladyOpt:
    def test_classic_example(self):
        # One fully-associative set of 3 ways.
        blocks = [0, 1, 2, 3, 0, 1, 4, 0, 1, 2, 3, 4]
        stream = read_stream([b * 1 for b in blocks])
        # Geometry: 1 set x 3 ways => all blocks collide; use block numbers
        # multiplied by num_sets(=1).
        result = run_opt(stream, CacheGeometry(3 * 64, 3))
        assert result.misses == brute_force_min_misses(blocks, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=16))
    def test_optimality_against_brute_force(self, blocks):
        stream = read_stream(blocks)
        result = run_opt(stream, CacheGeometry(2 * 64, 2))  # 1 set x 2 ways
        assert result.misses == brute_force_min_misses(blocks, 2)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
        st.sampled_from(["lru", "srrip", "ship", "dip", "nru", "random"]),
    )
    def test_never_worse_than_any_policy(self, blocks, policy_name):
        stream = read_stream(blocks)
        geometry = CacheGeometry(4 * 4 * 64, 4)  # 4 sets x 4 ways
        opt = run_opt(stream, geometry)
        other = run_policy_on_stream(stream, geometry, policy_name, seed=1)
        assert opt.misses <= other.misses

    def test_replay_past_stream_rejected(self):
        stream = read_stream([0, 1])
        policy = BeladyOptPolicy(compute_next_use(stream.blocks))
        simulator = LlcOnlySimulator(CacheGeometry(2 * 64, 2), policy)
        simulator.run(stream, flush=False)
        with pytest.raises(SimulationError):
            simulator.llc.access(0, 0, 5, False)

    def test_requires_attached_llc(self):
        policy = BeladyOptPolicy(compute_next_use([0]))
        policy.bind(CacheGeometry(2 * 64, 2))
        with pytest.raises(SimulationError):
            policy.on_fill(0, 0, 0, 0, 0, False)

    def test_rank_victims_farthest_first(self):
        policy = BeladyOptPolicy(compute_next_use([0]))
        policy.bind(CacheGeometry(4 * 64, 4))
        policy._way_next[0] = [5, NO_NEXT_USE, 2, 9]
        assert policy.rank_victims(0) == [1, 3, 0, 2]
