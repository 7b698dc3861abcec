"""Differential matrix: every accelerated path against its reference.

Two axes, each promising *bit-identical* results:

* fast tiers vs scalar — the accelerated replays against the scalar
  ``LlcOnlySimulator`` model, checked for **every registered policy**
  plus OPT. Each policy declares a replay tier (``stack`` for plain LRU's
  stack-distance walk, ``set``/``dueling`` for the set-partitioned
  kernels, ``scalar`` for SHiP and wrapped policies); eligible tiers must
  match the scalar model exactly *and* record the tier that ran, while
  scalar-tier policies must be rejected by the dispatch (taking a fast
  tier for a policy it does not model would be the bug).
* numpy vs pure Python — every dual-implementation kernel
  (:func:`compute_next_use`, :func:`reconstruct_lru_replay`,
  :func:`replay_lru_fastpath`, :func:`build_stream_annotation`,
  :func:`partition_stream`, :func:`replay_setpath`) with the backend
  forced each way.

The set-dueling tier additionally pins its PSEL reconstruction: the
two-phase replay rebuilds the PSEL time-series from leader misses alone,
and a hypothesis-driven differential checks that series against the PSEL
value the scalar model holds after every single access.

Streams come from real workload models (not synthetic toys), so the
comparison covers sharing, writes, and multi-core interleavings;
hypothesis adds adversarial small streams on top.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.oracle.annotate import build_stream_annotation
from repro.policies.opt import compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.sim.experiment import ExperimentContext
from repro.sim.fastpath import (
    fastpath_eligible,
    reconstruct_lru_replay,
    replay_lru_fastpath,
)
from repro.sim.multipass import run_opt, run_policy_on_stream
from repro.sim.setpath import (
    partition_stream,
    reconstruct_psel_series,
    replay_setpath,
    replay_tier_table,
    setpath_tier_of,
)
from tests.conftest import make_stream


@pytest.fixture(scope="module")
def stream(request):
    """One real recorded LLC stream (dedup: shared hash tables, writes)."""
    from repro.common.config import CacheGeometry, MachineConfig

    machine = MachineConfig(
        name="diff", num_cores=4,
        l1=CacheGeometry(512, 4), l2=CacheGeometry(1024, 4),
        llc=CacheGeometry(8192, 8), scale=1024,
    )
    context = ExperimentContext(
        machine, target_accesses=12_000, seed=9, workloads=["dedup"],
    )
    return context.artifacts("dedup").stream


@pytest.fixture(scope="module")
def geometry():
    from repro.common.config import CacheGeometry

    return CacheGeometry(8192, 8, 64)  # 16 sets x 8 ways


EXPECTED_TIERS = {
    "lru": "stack",
    "lip": "set",
    "bip": "set",
    "dip": "dueling",
    "srrip": "set",
    "brrip": "set",
    "drrip": "dueling",
    "nru": "set",
    "random": "set",
    "ship": "scalar",
}


class TestFastTiersVsScalar:
    @pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
    def test_policy_fast_tier_matches_scalar(self, stream, geometry, policy):
        fast = run_policy_on_stream(
            stream, geometry, policy, seed=0, fastpath=True
        )
        scalar = run_policy_on_stream(
            stream, geometry, policy, seed=0, fastpath=False
        )
        # LlcSimResult equality covers accesses/hits/misses/evictions and
        # excludes wall-clock and tier fields.
        assert fast == scalar
        # The tier that actually ran is recorded on the result: declared
        # fast tiers must not silently fall back, and scalar-only
        # policies (SHiP: globally-coupled SHCT) must demonstrably have
        # replayed through the scalar model.
        assert fast.tier == EXPECTED_TIERS[policy]
        assert scalar.tier == "scalar"

    def test_opt_fast_tier_matches_scalar(self, stream, geometry):
        fast = run_opt(stream, geometry, fastpath=True)
        scalar = run_opt(stream, geometry, fastpath=False)
        assert fast == scalar
        assert fast.tier == "set"
        assert scalar.tier == "scalar"

    def test_replay_tier_table_is_total_and_pinned(self):
        table = replay_tier_table()
        assert table == dict(EXPECTED_TIERS, opt="set")
        assert set(POLICY_NAMES) <= set(table)

    def test_stack_gate_is_exactly_lru_by_name(self):
        assert fastpath_eligible("lru")
        for policy in sorted(POLICY_NAMES):
            if policy != "lru":
                assert not fastpath_eligible(policy)
        # Bound instances may carry pre-seeded state: every tier demotes
        # them to scalar.
        from repro.common.config import CacheGeometry

        bound = make_policy("srrip")
        bound.bind(CacheGeometry(4 * 2 * 64, 2))
        assert setpath_tier_of(bound) == "scalar"

    def test_fastpath_replay_matches_scalar_directly(self, stream, geometry):
        fast = replay_lru_fastpath(stream, geometry)
        scalar = run_policy_on_stream(
            stream, geometry, "lru", seed=0, fastpath=False
        )
        assert fast == scalar


def _scalar_psel_trace(stream, geometry, policy):
    """PSEL after every access, from the scalar reference model."""
    from repro.cache.llc import SharedLlc

    llc = SharedLlc(geometry, policy)
    access = llc.access
    trace = []
    for core, pc, block, write in zip(*stream.columns()):
        access(core, pc, block, write != 0)
        trace.append(policy.duel.psel)
    return trace


class TestPselReconstruction:
    """The dueling tier's PSEL series vs the scalar model, access by access."""

    @pytest.mark.parametrize("policy", ["dip", "drrip"])
    def test_series_matches_scalar_on_real_stream(
        self, stream, geometry, policy
    ):
        trace = _scalar_psel_trace(stream, geometry, make_policy(policy, seed=3))
        positions, values = reconstruct_psel_series(
            stream, geometry, make_policy(policy, seed=3)
        )
        assert len(values) == len(positions) + 1
        assert positions == sorted(positions)
        for p in range(0, len(trace), 97):  # stride keeps the check O(n/97)
            assert values[bisect_right(positions, p)] == trace[p], p
        assert values[-1] == trace[-1]

    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(["dip", "drrip"]),
        seed=st.integers(0, 7),
        accesses=st.lists(
            st.tuples(
                st.integers(0, 3),           # core
                st.sampled_from([0x10, 0x20, 0x30]),  # pc
                st.integers(0, 63),          # block
                st.booleans(),               # write
            ),
            min_size=1, max_size=300,
        ),
    )
    def test_series_matches_scalar_on_random_streams(
        self, policy, seed, accesses
    ):
        from repro.common.config import CacheGeometry

        geometry = CacheGeometry(8 * 2 * 64, 2)  # 8 sets x 2 ways
        small = make_stream(accesses)
        trace = _scalar_psel_trace(small, geometry, make_policy(policy, seed=seed))
        positions, values = reconstruct_psel_series(
            small, geometry, make_policy(policy, seed=seed)
        )
        for p, expected in enumerate(trace):
            assert values[bisect_right(positions, p)] == expected, p


class TestNumpyVsPython:
    def test_compute_next_use(self, stream):
        vectorized = compute_next_use(stream.blocks, use_numpy=True)
        scalar = compute_next_use(stream.blocks, use_numpy=False)
        assert list(vectorized) == list(scalar)

    def test_replay_lru_fastpath(self, stream, geometry):
        vectorized = replay_lru_fastpath(stream, geometry, use_numpy=True)
        scalar = replay_lru_fastpath(stream, geometry, use_numpy=False)
        assert vectorized == scalar

    def test_reconstruct_lru_replay(self, stream, geometry):
        vectorized = reconstruct_lru_replay(stream, geometry, use_numpy=True)
        scalar = reconstruct_lru_replay(stream, geometry, use_numpy=False)
        assert vectorized.hits == scalar.hits
        assert vectorized.misses == scalar.misses
        assert vectorized.evictions == scalar.evictions
        for column in ("distances", "rids", "res_block", "res_fill",
                       "res_end", "res_way", "res_hits", "res_other_hits",
                       "res_core_mask", "res_write_mask", "evicted_rid",
                       "live_rids"):
            assert list(getattr(vectorized, column)) == \
                list(getattr(scalar, column)), column

    def test_partition_stream(self, stream, geometry):
        vectorized = partition_stream(
            stream.blocks, geometry.num_sets, use_numpy=True
        )
        scalar = partition_stream(
            stream.blocks, geometry.num_sets, use_numpy=False
        )
        assert vectorized.order == scalar.order
        assert vectorized.starts == scalar.starts
        assert vectorized.blocks == scalar.blocks

    @pytest.mark.parametrize("policy", ["srrip", "drrip", "nru", "random"])
    def test_replay_setpath(self, stream, geometry, policy):
        def run(use_numpy):
            return replay_setpath(
                stream, geometry, make_policy(policy, seed=1),
                use_numpy=use_numpy,
            )

        assert run(True) == run(False)

    def test_reconstruct_psel_series(self, stream, geometry):
        for policy in ("dip", "drrip"):
            vectorized = reconstruct_psel_series(
                stream, geometry, make_policy(policy, seed=2), use_numpy=True
            )
            scalar = reconstruct_psel_series(
                stream, geometry, make_policy(policy, seed=2), use_numpy=False
            )
            assert vectorized == scalar

    def test_build_stream_annotation(self, stream, geometry):
        vectorized = build_stream_annotation(stream, geometry, use_numpy=True)
        scalar = build_stream_annotation(stream, geometry, use_numpy=False)
        assert list(vectorized) == list(scalar)
