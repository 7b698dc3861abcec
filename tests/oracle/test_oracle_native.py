"""Differential tests for the native oracle-tier backend.

The oracle lowering extends the nativepath contract across a composition:
a :class:`SharingAwareWrapper` over an exact-type {LRU, SRRIP, SHiP} base,
fed by an :class:`AnnotationHintSource`, replayed through the compact
oracle kernel must reproduce the scalar object model bit for bit —
hit/miss counts *and* the wrapper's study counters (``protected_fills``,
``exemptions_applied``, ``releases``) — across every protection mode and
release policy. Anything the spec guard cannot prove safe (bound
instances, undeclared subclasses, closure hint sources, misaligned
annotations, observers) must land on the object model, recorded as
``backend == "model"``.
"""

import gc

import pytest
from hypothesis import given, settings

from repro.common.config import CacheGeometry
from repro.oracle.annotate import (
    AnnotationHintSource,
    build_stream_annotation,
    oracle_hint_source,
)
from repro.oracle.runner import (
    ANNOTATION_MEMO_CAPACITY,
    annotation_memo_clear,
    annotation_memo_stats,
    run_oracle_study,
    stream_annotation,
)
from repro.oracle.wrapper import (
    PROTECTION_MODES,
    RELEASE_POLICIES,
    SharingAwareWrapper,
)
from repro.policies.base import REPLAY_SCALAR
from repro.policies.registry import make_policy
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import (
    NO_NATIVE_ENV,
    oracle_native_spec,
    replay_oracle_nativepath,
    try_native_replay,
)
from tests.conftest import make_stream
from tests.strategies import SIGNATURE_PCS, replay_stream_lists

SEED = 23
BASES = ("lru", "srrip", "ship")
GEOMETRY = CacheGeometry(16 * 4 * 64, 4)


@pytest.fixture(autouse=True)
def _auto_native_gates(monkeypatch):
    """Pin the native env gate to its unset-auto default."""
    monkeypatch.delenv(NO_NATIVE_ENV, raising=False)


def shared_stream(n=2500, spread=130, cores=4):
    """A deterministic multi-core stream with genuine cross-core reuse."""
    accesses = []
    for i in range(n):
        block = (i * 5 + (i // 11) * 2) % spread
        pc = 0x400000 + ((i * 13) % 6) * 0x1C
        accesses.append((i % cores, pc, block, i % 7 == 0))
    return make_stream(accesses)


def make_wrapper(base, budgets, mode="both", release="budget"):
    return SharingAwareWrapper(
        make_policy(base, seed=SEED), oracle_hint_source(budgets),
        mode, release=release,
    )


def counters(wrapper):
    return (
        wrapper.protected_fills,
        wrapper.exemptions_applied,
        wrapper.releases,
    )


class TestOracleBitIdentity:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("mode", PROTECTION_MODES)
    @pytest.mark.parametrize("release", RELEASE_POLICIES)
    def test_matches_scalar_model(self, base, mode, release):
        stream = shared_stream()
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        native_wrapper = make_wrapper(base, budgets, mode, release)
        model_wrapper = make_wrapper(base, budgets, mode, release)
        native = run_policy_on_stream(
            stream, GEOMETRY, native_wrapper, seed=SEED, native=True
        )
        model = run_policy_on_stream(
            stream, GEOMETRY, model_wrapper, seed=SEED, native=False
        )
        assert native == model, (base, mode, release)
        assert counters(native_wrapper) == counters(model_wrapper)
        assert native.tier == REPLAY_SCALAR
        assert native.backend == "compact"
        assert model.backend == "model"

    def test_counters_are_exercised(self):
        # The identity above is vacuous if the stream never protects or
        # exempts anything; pin that the canonical stream drives all
        # three counters (releases requires the budget release policy).
        stream = shared_stream()
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        wrapper = make_wrapper("lru", budgets, "both", "budget")
        run_policy_on_stream(stream, GEOMETRY, wrapper, seed=SEED, native=True)
        assert wrapper.protected_fills > 0
        assert wrapper.exemptions_applied > 0
        assert wrapper.releases > 0

    def test_single_set_geometry(self):
        stream = shared_stream(800, 40)
        geometry = CacheGeometry(1 * 4 * 64, 4)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=4)
        native = run_policy_on_stream(
            stream, geometry, make_wrapper("srrip", budgets), seed=SEED,
            native=True,
        )
        model = run_policy_on_stream(
            stream, geometry, make_wrapper("srrip", budgets), seed=SEED,
            native=False,
        )
        assert native == model
        assert native.backend == "compact"

    def test_empty_stream(self):
        stream = make_stream([])
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        result = replay_oracle_nativepath(
            stream, GEOMETRY, make_wrapper("lru", budgets)
        )
        assert (result.accesses, result.hits, result.misses) == (0, 0, 0)

    def test_base_instance_left_unbound(self):
        stream = shared_stream(900, 50)
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        wrapper = make_wrapper("ship", budgets)
        shct_before = list(wrapper.base._shct)
        replay_oracle_nativepath(stream, GEOMETRY, wrapper)
        assert wrapper.geometry is None
        assert wrapper.base.geometry is None
        assert wrapper.base._shct == shct_before

    @settings(max_examples=25, deadline=None)
    @given(accesses=replay_stream_lists(pcs=SIGNATURE_PCS))
    def test_hypothesis_streams(self, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=2)
        for base in BASES:
            native_wrapper = make_wrapper(base, budgets)
            model_wrapper = make_wrapper(base, budgets)
            native = run_policy_on_stream(
                stream, geometry, native_wrapper, seed=SEED, native=True
            )
            model = run_policy_on_stream(
                stream, geometry, model_wrapper, seed=SEED, native=False
            )
            assert native == model, base
            assert counters(native_wrapper) == counters(model_wrapper)

    @pytest.mark.parametrize("base", BASES)
    def test_study_native_toggle_is_invisible(self, base):
        stream = shared_stream()
        native = run_oracle_study(
            stream, GEOMETRY, base=base, seed=SEED, native=True
        )
        model = run_oracle_study(
            stream, GEOMETRY, base=base, seed=SEED, native=False
        )
        assert native.oracle == model.oracle
        assert native.base == model.base
        assert native.protected_fills == model.protected_fills
        assert native.exemptions == model.exemptions
        assert native.oracle.backend == "compact"
        assert model.oracle.backend == "model"

    @pytest.mark.parametrize("base", BASES)
    def test_large_cap_replays_natively(self, base):
        # Budgets above 127 read straight from the int32 annotation: three
        # hot blocks shared across cores, interleaved with streaming fills
        # that force evictions, saturate far beyond int8 range.
        accesses = []
        for i in range(3000):
            j = i // 2
            block = (j % 3) * 16 if i % 2 == 0 else 1000 + (i * 7) % 500
            accesses.append((j % 4, 0x400000 + (i % 5) * 0x1C, block, False))
        stream = make_stream(accesses)
        budgets = build_stream_annotation(
            stream, GEOMETRY, horizon_factor=32, cap=300
        )
        assert max(budgets) > 127

        def wrapper():
            return SharingAwareWrapper(
                make_policy(base, seed=SEED),
                AnnotationHintSource(budgets, cap=300), "both",
            )

        native_wrapper, model_wrapper = wrapper(), wrapper()
        native = run_policy_on_stream(
            stream, GEOMETRY, native_wrapper, seed=SEED, native=True
        )
        model = run_policy_on_stream(
            stream, GEOMETRY, model_wrapper, seed=SEED, native=False
        )
        assert native.backend == "compact"
        assert model.backend == "model"
        assert (native.hits, native.misses) == (model.hits, model.misses)
        assert counters(native_wrapper) == counters(model_wrapper)
        assert min(counters(native_wrapper)) > 0


class TestOracleFallbackChain:
    def _budgets(self, stream, geometry=GEOMETRY):
        return build_stream_annotation(stream, geometry, horizon_factor=4)

    def test_spec_covers_supported_bases(self):
        stream = shared_stream(400, 30)
        budgets = self._budgets(stream)
        for base in BASES:
            assert oracle_native_spec(make_wrapper(base, budgets)) is not None

    def test_unsupported_base_declines(self):
        stream = shared_stream(400, 30)
        budgets = self._budgets(stream)
        wrapper = make_wrapper("drrip", budgets)
        assert oracle_native_spec(wrapper) is None
        result = run_policy_on_stream(
            stream, GEOMETRY, wrapper, seed=SEED, native=True
        )
        assert result.backend == "model"

    def test_bound_wrapper_declines(self):
        stream = shared_stream(400, 30)
        wrapper = make_wrapper("lru", self._budgets(stream))
        wrapper.bind(GEOMETRY)
        assert oracle_native_spec(wrapper) is None
        assert try_native_replay(stream, GEOMETRY, wrapper) is None

    def test_bound_base_declines(self):
        stream = shared_stream(400, 30)
        wrapper = make_wrapper("lru", self._budgets(stream))
        wrapper.base.bind(GEOMETRY)
        assert oracle_native_spec(wrapper) is None

    def test_subclassed_wrapper_declines(self):
        class TweakedWrapper(SharingAwareWrapper):
            pass

        stream = shared_stream(400, 30)
        wrapper = TweakedWrapper(
            make_policy("lru", seed=SEED),
            oracle_hint_source(self._budgets(stream)), "both",
        )
        assert oracle_native_spec(wrapper) is None
        result = run_policy_on_stream(
            stream, GEOMETRY, wrapper, seed=SEED, native=True
        )
        assert result.backend == "model"

    def test_subclassed_hint_source_declines(self):
        class TweakedSource(AnnotationHintSource):
            pass

        stream = shared_stream(400, 30)
        wrapper = SharingAwareWrapper(
            make_policy("lru", seed=SEED),
            TweakedSource(self._budgets(stream)), "both",
        )
        assert oracle_native_spec(wrapper) is None

    def test_closure_hint_source_declines(self):
        wrapper = SharingAwareWrapper(
            make_policy("lru", seed=SEED), lambda llc, c, b, pc: 0, "both"
        )
        assert oracle_native_spec(wrapper) is None

    def test_misaligned_annotation_declines(self):
        # An annotation built for a different stream length cannot be
        # laid down as a per-access hint column.
        short = shared_stream(200, 30)
        stream = shared_stream(400, 30)
        wrapper = make_wrapper("lru", self._budgets(short))
        assert replay_oracle_nativepath(stream, GEOMETRY, wrapper) is None

    def test_observers_decline(self):
        class Observer:
            def residency_started(self, *args): pass
            def residency_ended(self, *args): pass

        stream = shared_stream(400, 30)
        wrapper = make_wrapper("lru", self._budgets(stream))
        assert try_native_replay(
            stream, GEOMETRY, wrapper, observers=(Observer(),)
        ) is None

    def test_env_escape_hatch_lands_on_model(self, monkeypatch):
        stream = shared_stream(600, 40)
        budgets = self._budgets(stream)
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        gated_wrapper = make_wrapper("srrip", budgets)
        gated = run_policy_on_stream(
            stream, GEOMETRY, gated_wrapper, seed=SEED
        )
        assert gated.backend == "model"
        monkeypatch.delenv(NO_NATIVE_ENV)
        auto = run_policy_on_stream(
            stream, GEOMETRY, make_wrapper("srrip", budgets), seed=SEED
        )
        assert auto.backend == "compact"
        assert gated == auto

    def test_no_fastpath_still_means_pure_model(self):
        stream = shared_stream(400, 30)
        wrapper = make_wrapper("lru", self._budgets(stream))
        result = run_policy_on_stream(
            stream, GEOMETRY, wrapper, fastpath=False
        )
        assert result.backend == "model"

    def test_profile_records_native_stages(self):
        stream = shared_stream(600, 40)
        profile = {}
        replay_oracle_nativepath(
            stream, GEOMETRY, make_wrapper("lru", self._budgets(stream)),
            profile=profile,
        )
        assert profile["native_prepare"] >= 0.0
        assert profile["native_kernel"] >= 0.0
        assert profile["native_backend"] == "compact"


class TestAnnotationMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        annotation_memo_clear()
        yield
        annotation_memo_clear()

    def test_hit_and_miss_counters(self):
        stream = shared_stream(300, 30)
        first = stream_annotation(stream, GEOMETRY, 4)
        again = stream_annotation(stream, GEOMETRY, 4)
        assert again is first
        stats = annotation_memo_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == ANNOTATION_MEMO_CAPACITY

    def test_window_collision_shares_and_distinct_windows_do_not(self):
        # Same window product (factor * num_blocks) -> one computation;
        # a different factor -> a fresh entry.
        stream = shared_stream(300, 30)
        doubled = CacheGeometry(
            GEOMETRY.size_bytes * 2, GEOMETRY.ways, GEOMETRY.block_bytes
        )
        a = stream_annotation(stream, GEOMETRY, 4)
        b = stream_annotation(stream, doubled, 2)
        assert b is a
        c = stream_annotation(stream, GEOMETRY, 2)
        assert c is not a
        assert annotation_memo_stats()["entries"] == 2

    def test_lru_bound_and_eviction_counter(self):
        stream = shared_stream(200, 20)
        for cap in range(ANNOTATION_MEMO_CAPACITY + 8):
            stream_annotation(stream, GEOMETRY, 2, cap=cap + 1)
        stats = annotation_memo_stats()
        assert stats["entries"] == ANNOTATION_MEMO_CAPACITY
        assert stats["evictions"] == 8

    def test_lru_order_evicts_least_recent(self):
        stream = shared_stream(200, 20)
        first = stream_annotation(stream, GEOMETRY, 2, cap=1)
        for cap in range(2, ANNOTATION_MEMO_CAPACITY + 1):
            stream_annotation(stream, GEOMETRY, 2, cap=cap)
        # Touch the oldest entry, then overflow: the touched entry must
        # survive and the second-oldest go instead.
        assert stream_annotation(stream, GEOMETRY, 2, cap=1) is first
        stream_annotation(stream, GEOMETRY, 2, cap=ANNOTATION_MEMO_CAPACITY + 1)
        assert stream_annotation(stream, GEOMETRY, 2, cap=1) is first
        assert annotation_memo_stats()["evictions"] == 1

    def test_dead_streams_are_purged(self):
        stream = shared_stream(200, 20)
        stream_annotation(stream, GEOMETRY, 2)
        assert annotation_memo_stats()["entries"] == 1
        del stream
        gc.collect()
        # The weakref callback fires on referent death; a later insert
        # must not resurrect the dead key.
        other = shared_stream(100, 10)
        stream_annotation(other, GEOMETRY, 2)
        assert annotation_memo_stats()["entries"] == 1

    def test_clear_resets_counters(self):
        stream = shared_stream(200, 20)
        stream_annotation(stream, GEOMETRY, 2)
        stream_annotation(stream, GEOMETRY, 2)
        annotation_memo_clear()
        stats = annotation_memo_stats()
        assert stats == {
            "entries": 0, "capacity": ANNOTATION_MEMO_CAPACITY,
            "hits": 0, "misses": 0, "evictions": 0,
        }
