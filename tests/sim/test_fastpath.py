"""Equivalence tests for the exact stack-distance LRU fast path.

The load-bearing property is *bit-identity*: for every stream and geometry,
:func:`replay_lru_fastpath` must produce exactly what the scalar
``LlcOnlySimulator(geometry, LruPolicy(), observers)`` replay produces —
same hit/miss counts, same observer callbacks with the same arguments in
the same order (victim-ended before fill-started, forced flushes in
(set, way) order). Hypothesis drives random streams of 0-300 accesses
across geometries through the numpy metadata reconstruction.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization.hits import SharingClassifier
from repro.characterization.phases import SharingPhaseTracker
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.oracle.residency import FillSharingLog
from repro.policies.lru import LruPolicy
from repro.policies.rrip import SrripPolicy
from repro.predictors.harness import PredictorHarness
from repro.predictors.registry import make_predictor
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import (
    FASTPATH_ENV,
    _histogram_walk,
    fastpath_eligible,
    fastpath_enabled,
    reconstruct_lru_replay,
    replay_lru_fastpath,
)
from repro.sim.multipass import run_policy_on_stream
from repro.sim.probes import run_probed_replay
from repro.sim.setpath import reconstruct_setpath_replay
from tests.conftest import RecordingObserver, make_stream
from tests.strategies import replay_stream_lists


GEOMETRIES = [
    CacheGeometry(1 * 1 * 64, 1),    # 1 set x 1 way (degenerate)
    CacheGeometry(4 * 2 * 64, 2),    # 4 sets x 2 ways
    CacheGeometry(2 * 4 * 64, 4),    # 2 sets x 4 ways
    CacheGeometry(8 * 8 * 64, 8),    # 8 sets x 8 ways
]


def scalar_replay(stream, geometry, observers=()):
    return LlcOnlySimulator(geometry, LruPolicy(), observers=observers).run(stream)


accesses_strategy = replay_stream_lists(max_block=40, min_size=0, max_size=300)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_counts_and_callbacks_bit_identical(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)

        slow_obs, fast_obs = RecordingObserver(), RecordingObserver()
        slow = scalar_replay(stream, geometry, observers=(slow_obs,))
        fast = replay_lru_fastpath(stream, geometry, observers=(fast_obs,))

        assert (fast.accesses, fast.hits, fast.misses) \
            == (slow.accesses, slow.hits, slow.misses)
        assert fast.policy == slow.policy == "lru"
        assert fast_obs.events == slow_obs.events

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_numpy_kernel_matches_python(self, accesses, geometry_index):
        # The numpy metadata pass against the Python object model: every
        # residency's masks and hit counts, keyed by its fill ordinal.
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)
        walk = reconstruct_lru_replay(stream, geometry)
        slow_obs = RecordingObserver()
        scalar_replay(stream, geometry, observers=(slow_obs,))
        expected = {
            event[3]: event[7:11]
            for event in slow_obs.events if event[0] == "ended"
        }
        actual = {
            walk.res_fill[rid] + 1: (
                walk.res_core_mask[rid], walk.res_write_mask[rid],
                walk.res_hits[rid], walk.res_other_hits[rid],
            )
            for rid in range(walk.residencies)
        }
        assert actual == expected

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy, geometry_index=st.integers(0, 3))
    def test_no_observer_counts_match_scalar(self, accesses, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        stream = make_stream(accesses)
        slow = scalar_replay(stream, geometry)
        fast = replay_lru_fastpath(stream, geometry)
        assert fast == slow  # LlcSimResult equality excludes timing

    def test_wide_core_ids_defer_to_python(self):
        # Core 63 overflows the int64 mask kernel: observer-carrying
        # replays must run on the Python object model, not build wrong
        # masks on a fast tier.
        stream = make_stream(
            [(63, 0x100, b, False) for b in range(8)]
            + [(c, 0x100, b, c == 2) for b in range(8) for c in (0, 2, 63)]
        )
        geometry = CacheGeometry(2 * 4 * 64, 4)
        for policy in ("lru", "srrip"):
            obs_entry, obs_model = RecordingObserver(), RecordingObserver()
            result = run_policy_on_stream(
                stream, geometry, policy, observers=(obs_entry,)
            )
            run_policy_on_stream(
                stream, geometry, policy, observers=(obs_model,),
                fastpath=False,
            )
            assert result.tier == "scalar", policy
            assert obs_entry.events == obs_model.events, policy
            assert any(e[0] == "ended" and e[7] >> 63 for e in
                       obs_entry.events), policy
            # Without observers there are no masks: the fast tier stays.
            assert run_policy_on_stream(
                stream, geometry, policy
            ).tier != "scalar"

    def test_wide_core_ids_rejected_by_reconstruction(self):
        stream = make_stream([(63, 0x100, b, False) for b in range(4)])
        geometry = CacheGeometry(2 * 4 * 64, 4)
        with pytest.raises(SimulationError, match="core ids"):
            reconstruct_lru_replay(stream, geometry)
        policy = SrripPolicy()
        with pytest.raises(SimulationError, match="core ids"):
            reconstruct_setpath_replay(stream, geometry, policy)
        assert policy.geometry is None  # rejected before binding
        with pytest.raises(SimulationError, match="core ids"):
            replay_lru_fastpath(stream, geometry,
                                observers=(RecordingObserver(),))
        report = run_probed_replay(stream, geometry, "lru",
                                   ["sharing", "reuse"])
        assert report.tier == "scalar"


class TestStackDistances:
    """The capped-distance histogram the LRU grid thresholds against."""

    def brute_force(self, blocks, num_sets, ways):
        """Distance by definition: distinct same-set blocks since last use."""
        out = []
        for i, block in enumerate(blocks):
            prev = None
            for j in range(i - 1, -1, -1):
                if blocks[j] == block:
                    prev = j
                    break
            if prev is None:
                out.append(ways)
                continue
            distinct = {
                blocks[j] for j in range(prev + 1, i)
                if (blocks[j] & (num_sets - 1)) == (block & (num_sets - 1))
                and blocks[j] != block
            }
            out.append(min(len(distinct), ways))
        return out

    @settings(max_examples=60, deadline=None)
    @given(blocks=st.lists(st.integers(0, 30), max_size=120),
           geometry_index=st.integers(0, 3))
    def test_matches_brute_force(self, blocks, geometry_index):
        geometry = GEOMETRIES[geometry_index]
        ways = geometry.ways
        expected = [0] * (ways + 1)
        for d in self.brute_force(blocks, geometry.num_sets, ways):
            expected[d] += 1
        got = _histogram_walk(blocks, geometry.num_sets, ways)
        assert got == expected

    def test_hit_iff_distance_below_ways(self, small_geometry):
        blocks = [0, 8, 16, 24, 32, 0, 8, 99, 0]
        stream = make_stream([(0, 0x1, b, False) for b in blocks])
        ways = small_geometry.ways
        hist = _histogram_walk(blocks, small_geometry.num_sets, ways)
        slow = scalar_replay(stream, small_geometry)
        assert sum(hist[:ways]) == slow.hits
        assert hist[ways] == slow.misses


class TestRealObservers:
    """The observers the pipeline actually attaches see identical state."""

    def _stream(self):
        import random

        rng = random.Random(7)
        return make_stream([
            (rng.randrange(4), rng.choice([0x10, 0x20, 0x30]),
             rng.randrange(60), rng.random() < 0.3)
            for __ in range(4000)
        ])

    def test_sharing_classifier_breakdown(self, small_geometry):
        stream = self._stream()
        slow_c, fast_c = SharingClassifier(), SharingClassifier()
        scalar_replay(stream, small_geometry, observers=(slow_c,))
        replay_lru_fastpath(stream, small_geometry, observers=(fast_c,))
        assert fast_c.breakdown == slow_c.breakdown

    def test_fill_sharing_log(self, small_geometry):
        stream = self._stream()
        slow_log = FillSharingLog(len(stream))
        fast_log = FillSharingLog(len(stream))
        scalar_replay(stream, small_geometry, observers=(slow_log,))
        replay_lru_fastpath(stream, small_geometry, observers=(fast_log,))
        assert fast_log.total_fills == slow_log.total_fills
        assert fast_log.shared_fills == slow_log.shared_fills

    def test_predictor_harness_matrix(self, small_geometry):
        stream = self._stream()
        slow_h = PredictorHarness(make_predictor("hybrid"))
        fast_h = PredictorHarness(make_predictor("hybrid"))
        scalar_replay(stream, small_geometry, observers=(slow_h,))
        replay_lru_fastpath(stream, small_geometry, observers=(fast_h,))
        assert fast_h.matrix == slow_h.matrix

    def test_phase_tracker_stats(self, small_geometry):
        stream = self._stream()
        slow_t, fast_t = SharingPhaseTracker(), SharingPhaseTracker()
        scalar_replay(stream, small_geometry, observers=(slow_t,))
        replay_lru_fastpath(stream, small_geometry, observers=(fast_t,))
        assert fast_t.finalize() == slow_t.finalize()


class TestGates:
    def test_eligibility_is_narrow(self):
        assert fastpath_eligible("lru")
        assert not fastpath_eligible("lip")
        assert not fastpath_eligible("srrip")
        # Unbound instances inherit the class's declared tier; a *bound*
        # instance may carry pre-seeded state and never qualifies.
        assert fastpath_eligible(LruPolicy())
        bound = LruPolicy()
        bound.bind(CacheGeometry(4 * 2 * 64, 2))
        assert not fastpath_eligible(bound)

    def test_enabled_three_state(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert fastpath_enabled(None)
        assert fastpath_enabled(True)
        assert not fastpath_enabled(False)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert not fastpath_enabled(None)   # env disables auto...
        assert fastpath_enabled(True)       # ...but an explicit True wins
        monkeypatch.setenv(FASTPATH_ENV, "")
        assert fastpath_enabled(None)       # empty value = unset

    def test_run_policy_on_stream_identical_either_path(self, small_geometry):
        stream = make_stream([(0, 0x1, b % 37, False) for b in range(2000)])
        fast = run_policy_on_stream(stream, small_geometry, "lru")
        slow = run_policy_on_stream(
            stream, small_geometry, "lru", fastpath=False
        )
        assert fast == slow

    def test_env_escape_hatch(self, small_geometry, monkeypatch):
        stream = make_stream([(0, 0x1, b % 37, False) for b in range(500)])
        monkeypatch.setenv(FASTPATH_ENV, "1")
        disabled = run_policy_on_stream(stream, small_geometry, "lru")
        monkeypatch.delenv(FASTPATH_ENV)
        enabled = run_policy_on_stream(stream, small_geometry, "lru")
        assert disabled == enabled

    def test_policy_instance_bypasses_fastpath(self, small_geometry):
        # A pre-built LruPolicy must replay through the scalar model even
        # with the gate wide open; the result is the same either way, so
        # assert on behaviour: instance and name paths agree.
        stream = make_stream([(0, 0x1, b % 23, False) for b in range(800)])
        by_name = run_policy_on_stream(stream, small_geometry, "lru")
        by_instance = run_policy_on_stream(stream, small_geometry, LruPolicy())
        assert (by_name.hits, by_name.misses) \
            == (by_instance.hits, by_instance.misses)


class TestPipelineEquivalence:
    """Fastpath on vs off through the high-level study entry points."""

    def _stream(self):
        import random

        rng = random.Random(3)
        return make_stream([
            (rng.randrange(2), rng.choice([0x10, 0x20]),
             rng.randrange(50), rng.random() < 0.25)
            for __ in range(3000)
        ])

    def test_oracle_study_invariant(self, small_geometry):
        from repro.oracle.runner import run_oracle_study

        stream = self._stream()
        fast = run_oracle_study(stream, small_geometry, fastpath=True)
        slow = run_oracle_study(stream, small_geometry, fastpath=False)
        assert fast.base == slow.base
        assert fast.oracle == slow.oracle
        assert fast.shared_fill_fraction == slow.shared_fill_fraction
        assert fast.horizon_factor == slow.horizon_factor

    def test_characterize_invariant(self, small_geometry):
        from repro.characterization.report import characterize_stream

        stream = self._stream()
        fast = characterize_stream(stream, small_geometry, fastpath=True)
        slow = characterize_stream(stream, small_geometry, fastpath=False)
        assert fast.result == slow.result
        assert fast.breakdown == slow.breakdown
        assert fast.phases == slow.phases
