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
* numpy vs pure Python — every vectorized step against a pure-Python
  reference: :func:`compute_next_use` and :func:`build_stream_annotation`
  against their named reference scans, :func:`partition_stream` against
  a stable sort, and the replays that use the numpy reconstruction
  (:func:`reconstruct_lru_replay`, :func:`replay_lru_fastpath`,
  :func:`replay_setpath`, :func:`reconstruct_psel_series`) against the
  object model, residency tables included.

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

from repro.oracle.annotate import (
    BUDGET_CAP,
    DEFAULT_HORIZON_FACTOR,
    _build_stream_annotation_python,
    build_stream_annotation,
)
from repro.policies.opt import _compute_next_use_python, compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.sim.engine import LlcOnlySimulator
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
from tests.conftest import TableRecorder, make_stream


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


def _model_events(stream, geometry, policy):
    """Result and residency-table rows of the object-model replay."""
    observer = TableRecorder()
    result = LlcOnlySimulator(geometry, policy, observers=(observer,)).run(
        stream
    )
    return result, observer.rows


class TestNumpyVsPython:
    """Each vectorized step against its pure-Python reference."""

    def test_compute_next_use(self, stream):
        vectorized = compute_next_use(stream.blocks)
        scalar = _compute_next_use_python(stream.blocks)
        assert list(vectorized) == list(scalar)

    def test_replay_lru_fastpath(self, stream, geometry):
        observer = TableRecorder()
        vectorized = replay_lru_fastpath(stream, geometry,
                                         observers=(observer,))
        scalar, rows = _model_events(stream, geometry,
                                     make_policy("lru", seed=0))
        assert vectorized == scalar
        assert observer.rows == rows

    def test_reconstruct_lru_replay(self, stream, geometry):
        table = reconstruct_lru_replay(stream, geometry)
        scalar, rows = _model_events(stream, geometry,
                                     make_policy("lru", seed=0))
        assert len(table) == scalar.misses
        assert int(table.hits.sum()) == scalar.hits
        assert table.rows() == rows

    def test_partition_stream(self, stream, geometry):
        vectorized = partition_stream(stream.blocks, geometry.num_sets)
        mask = geometry.num_sets - 1
        order = sorted(range(len(stream)),
                       key=lambda i: stream.blocks[i] & mask)
        assert vectorized.order == order
        assert vectorized.blocks == [stream.blocks[i] for i in order]
        assert vectorized.starts[-1] == len(stream)

    @pytest.mark.parametrize("policy", ["srrip", "drrip", "nru", "random"])
    def test_replay_setpath(self, stream, geometry, policy):
        observer = TableRecorder()
        vectorized = replay_setpath(
            stream, geometry, make_policy(policy, seed=1),
            observers=(observer,),
        )
        scalar, rows = _model_events(stream, geometry,
                                     make_policy(policy, seed=1))
        assert vectorized == scalar
        assert observer.rows == rows
        assert replay_setpath(
            stream, geometry, make_policy(policy, seed=1)
        ) == scalar

    def test_reconstruct_psel_series(self, stream, geometry):
        for policy in ("dip", "drrip"):
            positions, values = reconstruct_psel_series(
                stream, geometry, make_policy(policy, seed=2)
            )
            trace = _scalar_psel_trace(stream, geometry,
                                       make_policy(policy, seed=2))
            assert [values[bisect_right(positions, p)]
                    for p in range(len(trace))] == trace

    def test_build_stream_annotation(self, stream, geometry):
        vectorized = build_stream_annotation(stream, geometry)
        scalar = _build_stream_annotation_python(
            stream, geometry, DEFAULT_HORIZON_FACTOR, BUDGET_CAP
        )
        assert list(vectorized) == list(scalar)
