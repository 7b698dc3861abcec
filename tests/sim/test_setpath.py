"""Unit and equivalence tests for the set-partitioned replay engine.

The big differential matrix (every policy, real streams, numpy kernels
against their references, PSEL reconstruction) lives in
``tests/test_differential.py``; this file pins the engine's own
contracts:

* tier resolution — double eligibility (declared tier *and* an
  exact-type kernel), bound-instance demotion, undeclared subclasses;
* the stream partition — a stable per-set grouping of positions;
* observer exactness — the residency table rebuilt from the kernels'
  fill record equals the scalar model's row for row, for every kernel
  family, under hypothesis-driven adversarial streams of 0-300 accesses
  and on the small-stream edge cases (empty, one access, no hits, one
  miss, dueling followers with no leader miss, fewer accesses than
  ways);
* the table's accounting: one row per miss, every other access a hit;
* dispatch — :func:`run_policy_on_stream` takes eligible tiers, declines
  scalar-tier policies, and honours the gate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.oracle.annotate import build_stream_annotation, oracle_hint_source
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LruPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.multipass import run_policy_on_stream
from repro.sim.setpath import (
    partition_stream,
    reconstruct_psel_series,
    reconstruct_setpath_replay,
    replay_setpath,
    replay_tier_table,
    setpath_tier_of,
)
from tests.conftest import TableRecorder, make_stream
from tests.strategies import replay_stream_lists

SETPATH_POLICIES = (
    "lip", "bip", "dip", "srrip", "brrip", "drrip", "nru", "random",
)

GEOMETRIES = [
    CacheGeometry(2 * 1 * 64, 1),    # 2 sets x 1 way (degenerate)
    CacheGeometry(4 * 2 * 64, 2),    # 4 sets x 2 ways
    CacheGeometry(2 * 4 * 64, 4),    # 2 sets x 4 ways
    CacheGeometry(8 * 8 * 64, 8),    # 8 sets x 8 ways
    CacheGeometry(128 * 4 * 64, 4),  # 64 dueling leader + 64 follower sets
]


def mixed_stream(n=4000, spread=160):
    """A deterministic multi-core read/write stream with reuse."""
    accesses = []
    for i in range(n):
        block = (i * 7 + (i // 13) * 3) % spread
        accesses.append((i % 4, 0x100 + (i % 3) * 0x10, block, i % 5 == 0))
    return make_stream(accesses)


accesses_strategy = replay_stream_lists()

# Small streams on the 128-set x 4-way geometry (GEOMETRIES[-1]). Set 1 is
# a dueling follower (leaders sit at offsets 0 and 2 of every 4 sets).
EDGE_STREAMS = {
    "empty": [],
    "single": [(1, 0x10, 7, True)],
    "no-hits": [(i % 4, 0x10, 3 * i, i % 3 == 0) for i in range(40)],
    "one-miss": [(i % 4, 0x20, 9, i % 2 == 0) for i in range(30)],
    "follower-only": [
        (i % 4, 0x30, 1 + 128 * (i % 7), i % 5 == 0) for i in range(60)
    ],
    "below-ways": [(0, 0x10, 0, False), (1, 0x10, 128, True),
                   (2, 0x10, 0, False)],
}


class TestTierResolution:
    def test_table_covers_every_registered_policy(self):
        table = replay_tier_table()
        for name in POLICY_NAMES:
            assert name in table
        assert all(
            tier in ("stack", "set", "dueling", "scalar")
            for tier in table.values()
        )

    def test_name_class_and_instance_agree(self):
        assert setpath_tier_of("srrip") == "set"
        assert setpath_tier_of(SrripPolicy) == "set"
        assert setpath_tier_of(SrripPolicy()) == "set"
        assert setpath_tier_of("lru") == "stack"
        assert setpath_tier_of("ship") == "scalar"
        assert setpath_tier_of("nope") == "scalar"

    def test_bound_instance_demotes_to_scalar(self):
        policy = SrripPolicy()
        policy.bind(CacheGeometry(4 * 2 * 64, 2))
        assert setpath_tier_of(policy) == "scalar"

    def test_undeclared_subclass_demotes_to_scalar(self):
        # Declarations never inherit: a subclass may override hooks the
        # kernels do not model, and the kernel table is exact-type keyed.
        class TweakedSrrip(SrripPolicy):
            name = "tweaked-srrip"

        assert setpath_tier_of(TweakedSrrip) == "scalar"
        assert setpath_tier_of(TweakedSrrip()) == "scalar"

    def test_declared_tier_without_kernel_demotes_to_scalar(self):
        # Even an explicit declaration is not enough without an
        # exact-type kernel in the family table.
        class Declared(ReplacementPolicy):
            name = "declared"
            REPLAY_TIER = "set"

        assert Declared.replay_tier() == "set"
        assert setpath_tier_of(Declared) == "scalar"


class TestPartition:
    def test_partition_is_stable_per_set_grouping(self):
        stream = mixed_stream(n=3000)
        num_sets = 8
        part = partition_stream(stream.blocks, num_sets)
        assert sorted(part.order) == list(range(len(stream)))
        assert part.starts[0] == 0 and part.starts[-1] == len(stream)
        for s in range(num_sets):
            lo, hi = part.starts[s], part.starts[s + 1]
            positions = part.order[lo:hi]
            # ... every access of set s, in original stream order.
            assert positions == sorted(positions)
            for p in positions:
                assert stream.blocks[p] & (num_sets - 1) == s
            assert part.blocks[lo:hi] == [stream.blocks[p] for p in positions]


class TestObserverExactness:
    @pytest.mark.parametrize("policy", sorted(SETPATH_POLICIES))
    def test_callback_sequence_identical_to_scalar(self, policy):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        slow = TableRecorder()
        LlcOnlySimulator(
            geometry, make_policy(policy, seed=11), observers=(slow,)
        ).run(stream)
        fast = TableRecorder()
        result = replay_setpath(
            stream, geometry, make_policy(policy, seed=11), observers=(fast,)
        )
        assert fast.rows == slow.rows
        assert result.tier in ("set", "dueling")

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_counts_identical_across_geometries(self, geometry):
        # Count mode runs one kernel per family in every role: plain
        # SRRIP (the synchronous numpy kernel), BRRIP and LIP/BIP, and
        # DIP/DRRIP leaders and (at 128 sets) followers, on streams
        # either side of 4096 accesses.
        for n in (2048, 8192):
            stream = mixed_stream(n=n, spread=geometry.num_blocks * 3)
            for policy in sorted(SETPATH_POLICIES):
                fast = replay_setpath(
                    stream, geometry, make_policy(policy, seed=5)
                )
                slow = LlcOnlySimulator(
                    geometry, make_policy(policy, seed=5)
                ).run(stream)
                assert (fast.hits, fast.misses) == (slow.hits, slow.misses), (
                    policy, n,
                )
                assert fast.backend == "numpy"

    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(sorted(SETPATH_POLICIES)),
        seed=st.integers(0, 5),
        accesses=accesses_strategy,
    )
    def test_random_streams_bit_identical(self, policy, seed, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        slow = TableRecorder()
        ref = LlcOnlySimulator(
            geometry, make_policy(policy, seed=seed), observers=(slow,)
        ).run(stream)
        fast = TableRecorder()
        result = replay_setpath(
            stream, geometry, make_policy(policy, seed=seed), observers=(fast,)
        )
        assert (result.hits, result.misses) == (ref.hits, ref.misses)
        assert fast.rows == slow.rows

    @settings(max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(sorted(SETPATH_POLICIES)),
        seed=st.integers(0, 5),
        accesses=replay_stream_lists(min_size=0, max_size=300),
        observed=st.booleans(),
    )
    def test_random_streams_with_followers_bit_identical(
        self, policy, seed, accesses, observed
    ):
        # 128 sets: the dueling policies get follower sets, so both
        # phases of the two-phase replay run; count mode too. Block b
        # maps to tag b % 8 of set b // 8, so sets 0-5 (A leaders,
        # B leaders and followers) each see up to 8 blocks over 4 ways.
        stream = make_stream([
            (core, pc, (block % 8) * 128 + block // 8, write)
            for core, pc, block, write in accesses
        ])
        geometry = GEOMETRIES[-1]
        slow, fast = TableRecorder(), TableRecorder()
        ref = LlcOnlySimulator(
            geometry, make_policy(policy, seed=seed),
            observers=(slow,) if observed else (),
        ).run(stream)
        result = replay_setpath(
            stream, geometry, make_policy(policy, seed=seed),
            observers=(fast,) if observed else (),
        )
        assert (result.hits, result.misses) == (ref.hits, ref.misses)
        assert fast.rows == slow.rows

    @pytest.mark.parametrize("case", sorted(EDGE_STREAMS))
    @pytest.mark.parametrize(
        "policy", ("lru",) + tuple(sorted(SETPATH_POLICIES)) + ("opt",)
    )
    def test_edge_streams_match_model(self, policy, case):
        stream = make_stream(EDGE_STREAMS[case])
        geometry = GEOMETRIES[-1]

        def run(fastpath):
            observer = TableRecorder()
            instance = (
                BeladyOptPolicy(compute_next_use(stream.blocks))
                if policy == "opt" else make_policy(policy, seed=3)
            )
            result = run_policy_on_stream(
                stream, geometry, instance, observers=(observer,),
                fastpath=fastpath,
            )
            return result, observer.rows

        fast, fast_events = run(True)
        slow, slow_events = run(False)
        assert fast.tier in ("stack", "set", "dueling")
        assert fast == slow
        assert fast_events == slow_events

    def test_follower_only_stream_has_no_leader_miss(self):
        stream = make_stream(EDGE_STREAMS["follower-only"])
        positions, values = reconstruct_psel_series(
            stream, GEOMETRIES[-1], make_policy("drrip", seed=3)
        )
        assert positions == [] and len(values) == 1

    def test_opt_walk_matches_scalar(self):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        next_use = compute_next_use(stream.blocks)
        slow = TableRecorder()
        LlcOnlySimulator(
            geometry, BeladyOptPolicy(next_use), observers=(slow,)
        ).run(stream)
        fast = TableRecorder()
        replay_setpath(
            stream, geometry, BeladyOptPolicy(next_use), observers=(fast,)
        )
        assert fast.rows == slow.rows


class TestWalkContract:
    def test_table_accounts_for_every_access(self):
        # One row per fill (= miss); every other access is one row's hit.
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        table = reconstruct_setpath_replay(
            stream, geometry, make_policy("srrip", seed=1)
        )
        result = replay_setpath(stream, geometry, make_policy("srrip", seed=1))
        assert len(table) == result.misses
        assert int(table.hits.sum()) == result.hits
        assert sorted(table.fill.tolist()) == sorted(set(table.fill.tolist()))

    def test_ineligible_policy_is_rejected(self):
        stream = mixed_stream(n=200)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        with pytest.raises(SimulationError):
            reconstruct_setpath_replay(
                stream, geometry, make_policy("ship", seed=1)
            )


class TestDispatch:
    def test_gate_disables_every_tier(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("lru", "srrip", "drrip"):
            result = run_policy_on_stream(
                stream, geometry, policy, fastpath=False
            )
            assert (result.tier, result.backend) == ("scalar", "model")

    def test_env_escape_hatch(self, monkeypatch):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert run_policy_on_stream(stream, geometry, "srrip").tier == "scalar"
        assert run_policy_on_stream(
            stream, geometry, "srrip", fastpath=True
        ).tier == "set"
        monkeypatch.delenv(FASTPATH_ENV)
        assert run_policy_on_stream(stream, geometry, "srrip").tier == "set"

    def test_scalar_tier_takes_native_backend(self, monkeypatch):
        # SHiP resolves to the scalar tier but is covered by the native
        # scalar backend: dispatch returns a scalar-tier result whose
        # backend records the native kernel, not the object model.
        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = run_policy_on_stream(stream, geometry, "ship")
        assert result.tier == "scalar"
        assert result.backend == "compact"

    def test_scalar_tier_declines_without_native(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = run_policy_on_stream(stream, geometry, "ship", native=False)
        assert result.backend == "model"

    def test_uncovered_scalar_policies_decline(self, monkeypatch):
        # The oracle kernel records no residencies, so an observed oracle
        # replay falls through to the model; bound instances carry state
        # no offline kernel reconstructs. Observed SHiP stays native.
        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        wrapper = SharingAwareWrapper(
            make_policy("lru"),
            oracle_hint_source(build_stream_annotation(stream, geometry)),
        )
        result = run_policy_on_stream(
            stream, geometry, wrapper, observers=(TableRecorder(),)
        )
        assert (result.backend, result.fallback) == ("model", "observers")
        assert run_policy_on_stream(
            stream, geometry, "ship", observers=(TableRecorder(),)
        ).backend == "compact"
        # The model binds the instance itself, so a pre-bound one reaching
        # it fails loudly instead of replaying on a fast tier.
        bound = make_policy("ship", seed=1)
        bound.bind(geometry)
        with pytest.raises(SimulationError, match="bound twice"):
            run_policy_on_stream(stream, geometry, bound)

    def test_tiers_are_recorded_on_results(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        assert run_policy_on_stream(stream, geometry, "lru").tier == "stack"
        assert run_policy_on_stream(stream, geometry, "srrip").tier == "set"
        assert run_policy_on_stream(stream, geometry, "dip").tier == "dueling"

    def test_unbound_instance_passes_through(self):
        stream = mixed_stream(n=500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = run_policy_on_stream(stream, geometry, LruPolicy())
        assert result.tier == "stack"
        result = run_policy_on_stream(stream, geometry, SrripPolicy())
        assert result.tier == "set"

    def test_replay_twice_is_deterministic(self):
        # Per-set RNG streams are pure functions of (seed, set): two
        # replays of the same stochastic policy are bit-identical.
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("random", "bip", "brrip"):
            first = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            second = replay_setpath(stream, geometry, make_policy(policy, seed=9))
            assert first == second
