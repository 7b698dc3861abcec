"""The residency table: one per replay, identical on every tier.

Two properties carry every sharing figure of the paper:

* **tier equality** — the table a fast tier rebuilds from its fill record
  (stack walk, set and dueling kernels, the compact SHiP kernel) equals
  the object model's end-order log row for row: fill and end ordinals,
  forced flags, core and write masks, hit counts. Hypothesis streams of
  0-300 accesses run on 128 sets, so dueling followers take part; the
  small-stream edge cases and the perfbench apps at a small size run too.
* **reductions** — each observer's numpy reduction equals the plain
  per-row fold kept in ``tests/conftest.py`` (the pre-table callback
  logic), including the predictor harness in both of its modes: the
  ordered fill/end loop over a fast-tier table, and live training through
  the model's one end hook when the harness's predictor drives the
  policy.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.residency import ResidencyTable
from repro.characterization.hits import SharingClassifier
from repro.characterization.pc_profile import PcSharingProfiler
from repro.characterization.phases import SharingPhaseTracker
from repro.common.config import CacheGeometry
from repro.oracle.residency import FillSharingLog
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.lru import LruPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import make_policy
from repro.predictors.harness import PredictorHarness, predictor_hint_source
from repro.predictors.registry import PREDICTOR_NAMES, make_predictor
from repro.sim.multipass import run_policy_on_stream
from repro.sim.probes import EvictionReasonProbe, SetStatsProbe
from tests.conftest import (
    TableRecorder,
    make_stream,
    reference_breakdown,
    reference_eviction_reasons,
    reference_fill_log,
    reference_harness,
    reference_pc_counts,
    reference_phases,
    reference_set_stats,
)
from tests.sim.test_setpath import EDGE_STREAMS
from tests.strategies import replay_stream_lists

GEOMETRY = CacheGeometry(128 * 4 * 64, 4)  # 64 leader + 64 follower sets
TIERS = {
    "lru": ("stack", "python"),
    "lip": ("set", "numpy"),
    "srrip": ("set", "numpy"),
    "brrip": ("set", "numpy"),
    "nru": ("set", "numpy"),
    "random": ("set", "numpy"),
    "dip": ("dueling", "numpy"),
    "drrip": ("dueling", "numpy"),
    "ship": ("scalar", "compact"),
    "opt": ("set", "numpy"),
}


def tables(stream, geometry, policy, seed=3):
    """``(fast result, fast rows, model rows)`` for one policy."""
    def run(fastpath):
        recorder = TableRecorder()
        instance = (
            BeladyOptPolicy(compute_next_use(stream.blocks))
            if policy == "opt" else make_policy(policy, seed=seed)
        )
        result = run_policy_on_stream(
            stream, geometry, instance, observers=(recorder,),
            fastpath=fastpath,
        )
        return result, recorder.rows

    fast, fast_rows = run(None)
    model, model_rows = run(False)
    assert fast == model
    return fast, fast_rows, model_rows


@pytest.fixture(autouse=True)
def _native_on(monkeypatch):
    """These tests pin which backend runs, so the native gate stays on
    even in a job that sets REPRO_SIM_NO_NATIVE for the rest."""
    monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)


class TestTierEquality:
    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(sorted(TIERS)),
        seed=st.integers(0, 3),
        accesses=replay_stream_lists(min_size=0, max_size=300),
    )
    def test_hypothesis_streams_on_128_sets(self, policy, seed, accesses):
        # Block b lands in set b // 8 with tag b % 8: the low sets mix A
        # leaders, B leaders and followers, each seeing up to 8 blocks.
        stream = make_stream([
            (core, pc, (block % 8) * 128 + block // 8, write)
            for core, pc, block, write in accesses
        ])
        fast, fast_rows, model_rows = tables(stream, GEOMETRY, policy, seed)
        assert (fast.tier, fast.backend) == TIERS[policy]
        assert fast_rows == model_rows

    @pytest.mark.parametrize("case", sorted(EDGE_STREAMS))
    @pytest.mark.parametrize("policy", sorted(TIERS))
    def test_edge_streams(self, policy, case):
        stream = make_stream(EDGE_STREAMS[case])
        fast, fast_rows, model_rows = tables(stream, GEOMETRY, policy)
        assert (fast.tier, fast.backend) == TIERS[policy]
        assert fast_rows == model_rows
        assert len(fast_rows) == fast.misses

    def test_perfbench_apps_at_small_size(self):
        from repro.sim.experiment import ExperimentContext
        from repro.common.config import profile

        apps = ("streamcluster", "canneal", "ferret", "swaptions",
                "barnes", "radix", "ocean", "equake")
        context = ExperimentContext(profile("scaled-4mb"),
                                    target_accesses=3000, seed=42,
                                    workloads=list(apps), cache_dir=None)
        for app in apps:
            stream = context.artifacts(app).stream
            for policy in ("lru", "srrip", "drrip", "ship", "opt"):
                __, fast_rows, model_rows = tables(
                    stream, context.geometry, policy
                )
                assert fast_rows == model_rows, (app, policy)
                # End order: evictions by end ordinal, then the flush.
                ends = [row[3] for row in fast_rows if not row[10]]
                assert ends == sorted(ends)

    def test_columns_are_int64(self):
        stream = make_stream(EDGE_STREAMS["one-miss"] * 3)
        recorder = TableRecorder()
        run_policy_on_stream(stream, GEOMETRY, "lru", observers=(recorder,))
        (table,) = recorder.tables
        for name in ResidencyTable.__slots__:
            assert getattr(table, name).dtype == np.int64, name


def random_rows(rng, count, num_sets=8):
    """Synthetic end-order rows with every column exercised."""
    rows = []
    for i in range(count):
        forced = int(i >= count - 4)
        fill = rng.randrange(1, 50)
        rows.append((
            rng.randrange(12), rng.randrange(num_sets), fill,
            fill + rng.randrange(0, 9), rng.choice((0x10, 0x20, 0x30)),
            rng.randrange(4), rng.randrange(1, 16), rng.choice((0, 0, 4, 9)),
            rng.randrange(0, 4), rng.randrange(0, 3), forced,
        ))
    return rows


class TestReductions:
    @pytest.mark.parametrize("seed", range(6))
    def test_classifier_phases_and_pc_profile(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, 200)
        classifier, tracker, profiler = (
            SharingClassifier(), SharingPhaseTracker(), PcSharingProfiler()
        )
        # Several tables into one observer: state carries across them.
        for lo in range(0, 200, 37):
            table = ResidencyTable.from_rows(rows[lo:lo + 37])
            for observer in (classifier, tracker, profiler):
                observer.consume(table)
        assert classifier.breakdown == reference_breakdown(rows)
        assert list(classifier.breakdown.degree_residencies) == list(
            reference_breakdown(rows).degree_residencies
        )
        assert tracker.finalize() == reference_phases(rows)
        assert profiler.per_pc_counts() == reference_pc_counts(rows)

    def test_fill_log(self):
        rows = [(0, 0, f, f + 1, 0, 0, 0b101, 0, 2, 1 + f % 3, 0)
                for f in range(1, 20, 2)]
        log = FillSharingLog(25)
        log.consume(ResidencyTable.from_rows(rows))
        assert (list(log.budgets), log.shared_fills,
                log.total_fills) == reference_fill_log(rows, 25)

    def test_probes(self):
        rows = random_rows(random.Random(9), 120)
        table = ResidencyTable.from_rows(rows)
        sets, reasons = SetStatsProbe(), EvictionReasonProbe()
        sets.bind(CacheGeometry(8 * 2 * 64, 2), None)
        sets.consume(table)
        reasons.consume(table)
        assert (sets._misses, sets._hits, sets._evictions, sets._live) \
            == reference_set_stats(rows, 8)
        for reason, (count, dead, shared, lifetimes) in \
                reference_eviction_reasons(rows).items():
            assert reasons._count[reason] == count
            assert reasons._dead[reason] == dead
            assert reasons._shared[reason] == shared
            stats = reasons._lifetime[reason]
            assert (stats.count, stats.total) == (len(lifetimes),
                                                  sum(lifetimes))

    def test_wide_masks_classify(self):
        rows = [(1, 0, 1, 2, 0, 63, (1 << 63) | 1, 0, 1, 1, 1)]
        table = ResidencyTable.from_rows(rows)
        assert table.core_mask.dtype == object
        classifier = SharingClassifier()
        classifier.consume(table)
        assert classifier.breakdown == reference_breakdown(rows)


def sharing_stream(n=3000, seed=7):
    rng = random.Random(seed)
    return make_stream([
        (rng.randrange(4), rng.choice((0x10, 0x20, 0x30, 0x40)),
         rng.randrange(90), rng.random() < 0.25)
        for __ in range(n)
    ])


class TestPredictorHarness:
    @pytest.mark.parametrize("name", PREDICTOR_NAMES)
    @pytest.mark.parametrize("policy", ("lru", "drrip", "ship"))
    def test_ordered_loop_matches_reference(self, name, policy):
        stream = sharing_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        recorder, harness = TableRecorder(), PredictorHarness(
            make_predictor(name), warmup_fills=10
        )
        result = run_policy_on_stream(
            stream, geometry, policy, observers=(recorder, harness)
        )
        assert result.fallback is None
        assert harness.matrix == reference_harness(
            recorder.rows, make_predictor(name), warmup_fills=10
        )
        assert harness.matrix.total == result.misses - 10

    @pytest.mark.parametrize("name", ("address", "pc", "hybrid", "lastvalue"))
    def test_driven_wrapper_trains_live(self, name):
        # The wrapper reads the harness's predictor at every fill, so the
        # replay stays on the model, trains through the live end hook,
        # and scores the hints the wrapper took.
        stream = sharing_stream()
        geometry = CacheGeometry(8 * 4 * 64, 4)
        predictor = make_predictor(name)
        recorder, harness = TableRecorder(), PredictorHarness(predictor)
        wrapper = SharingAwareWrapper(LruPolicy(),
                                      predictor_hint_source(predictor))
        result = run_policy_on_stream(stream, geometry, wrapper,
                                      observers=(recorder, harness))
        assert (result.backend, result.fallback) == ("model", "hint-source")
        replica = make_predictor(name)
        assert harness.matrix == reference_harness(recorder.rows, replica)
        assert harness.matrix.total == result.misses
        assert wrapper.hint_source.log is None  # released after the replay
        # The live predictor went through the same trains as the replica.
        for row in recorder.rows[:200]:
            assert predictor.predict(row[0], row[4], row[5]) == \
                replica.predict(row[0], row[4], row[5])

    def test_undriven_harness_on_a_driven_replay(self):
        # A second harness over another predictor only watches: it takes
        # the ordered loop after the replay, not the live hook.
        stream = sharing_stream(1500)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        hinting = make_predictor("address")
        recorder = TableRecorder()
        watcher = PredictorHarness(make_predictor("pc"))
        wrapper = SharingAwareWrapper(LruPolicy(),
                                      predictor_hint_source(hinting))
        run_policy_on_stream(stream, geometry, wrapper,
                             observers=(recorder, watcher,
                                        PredictorHarness(hinting)))
        assert watcher.matrix == reference_harness(recorder.rows,
                                                   make_predictor("pc"))
