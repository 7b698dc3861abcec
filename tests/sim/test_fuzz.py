"""Tests for the scenario-fuzzing harness (:mod:`repro.sim.fuzz`).

Four layers, mirroring the pipeline:

* config — validation, serialisation round-trip, corpus embedding;
* scenario sampling — pure functions of ``(seed, index)``, valid machines,
  and (via hypothesis) every draw in the generator space is runnable;
* sampled-fidelity execution — the per-cell record shape and the
  determinism claim (same cell twice -> bit-identical counts);
* inversion mining and full-fidelity replay — synthetic frontiers flag
  the right flips, and the differential law of satellite (b): every cell
  surfaced at sampled fidelity reproduces its hit/miss counts
  bit-identically at full fidelity through the tiered fast path, the
  ``--no-fastpath`` scalar model, and the reference sampled simulator.
"""

import json

import pytest
from hypothesis import given, settings

from repro.common.errors import ConfigError
from repro.sim.fuzz import (
    FuzzConfig,
    corpus_scenario,
    detect_inversions,
    load_corpus,
    replay_corpus_cell,
    replay_scenario_full,
    run_fuzz_campaign,
    run_fuzz_scenario,
    sample_scenario,
    scenario_machine,
    scenario_stream,
    scenario_trace,
)
from tests.strategies import fuzz_scenarios

SMALL = FuzzConfig(seed=7, scenarios=6, accesses=1200, max_full=2)
"""A campaign tiny enough to run inline in every test that needs one."""


class TestFuzzConfig:
    def test_defaults_are_valid(self):
        config = FuzzConfig()
        assert config.total_scenarios == config.scenarios == 100

    @pytest.mark.parametrize("kwargs", [
        {"scenarios": -1},
        {"sample_ratio": 0},
        {"policies": ("lru",)},
        {"mix_fraction": 1.5},
        {"mix_fraction": -0.1},
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            FuzzConfig(**kwargs)

    def test_dict_round_trip(self):
        config = FuzzConfig(
            seed=3, scenarios=10, policies=("lru", "ship"),
            trace_files=(("/tmp/a.bin", "champsim"),),
        )
        assert FuzzConfig.from_dict(config.as_dict()) == config

    def test_from_dict_ignores_unknown_fields(self):
        payload = FuzzConfig().as_dict()
        payload["corpus_only_extra"] = True
        assert FuzzConfig.from_dict(payload) == FuzzConfig()

    def test_trace_files_extend_scenario_range(self):
        config = FuzzConfig(
            scenarios=4, trace_files=(("t.bin", "champsim"),)
        )
        assert config.total_scenarios == 5


class TestScenarioSampling:
    def test_sampling_is_deterministic(self):
        for index in range(SMALL.total_scenarios):
            assert sample_scenario(SMALL, index) == \
                sample_scenario(SMALL, index)

    def test_out_of_range_index_raises(self):
        with pytest.raises(ConfigError):
            sample_scenario(SMALL, SMALL.total_scenarios)
        with pytest.raises(ConfigError):
            sample_scenario(SMALL, -1)

    def test_ids_encode_the_index(self):
        scenario = sample_scenario(SMALL, 3)
        assert scenario["id"] == "s00003"
        assert scenario["index"] == 3

    def test_trace_indices_map_onto_trace_files(self, tmp_path):
        config = FuzzConfig(
            scenarios=2, trace_files=((str(tmp_path / "x.bin"), "pin"),)
        )
        scenario = sample_scenario(config, 2)
        assert scenario["kind"] == "trace"
        assert scenario["trace_path"] == str(tmp_path / "x.bin")
        assert scenario["trace_format"] == "pin"

    def test_seed_changes_the_draw(self):
        a = [sample_scenario(FuzzConfig(seed=1, scenarios=8), i)
             for i in range(8)]
        b = [sample_scenario(FuzzConfig(seed=2, scenarios=8), i)
             for i in range(8)]
        assert a != b

    @settings(max_examples=20, deadline=None)
    @given(scenario=fuzz_scenarios(seed=5, scenarios=64))
    def test_every_draw_builds_a_valid_machine(self, scenario):
        machine = scenario_machine(scenario)
        assert machine.num_cores == scenario["cores"]
        assert machine.llc.num_sets == scenario["llc_sets"]
        assert machine.llc.ways == scenario["llc_ways"]
        # Inclusion floor the sampler must honour.
        assert machine.llc.size_bytes >= \
            machine.num_cores * machine.l2.size_bytes
        assert scenario["kind"] in ("mix", "kernelmix")

    @settings(max_examples=5, deadline=None)
    @given(scenario=fuzz_scenarios(seed=5, scenarios=64))
    def test_every_draw_generates_a_trace(self, scenario):
        config = FuzzConfig(seed=5, scenarios=64, accesses=400)
        trace = scenario_trace(config, scenario)
        assert len(trace) > 0
        assert trace.num_threads <= scenario["cores"]


class TestRunFuzzScenario:
    def test_record_shape(self):
        record = run_fuzz_scenario(SMALL, sample_scenario(SMALL, 0))
        assert record["sample_ratio"] == SMALL.sample_ratio
        assert 0 <= record["sample_offset"] < SMALL.sample_ratio
        assert record["sampled_accesses"] <= record["llc_accesses"]
        assert set(record["policies"]) == set(SMALL.policies)
        for cell in record["policies"].values():
            assert cell["hits"] + cell["misses"] == cell["accesses"]
        assert 0.0 <= record["oracle_gain"] <= 1.0

    def test_cell_is_reproducible_bit_identically(self):
        scenario = sample_scenario(SMALL, 1)
        first = run_fuzz_scenario(SMALL, scenario)
        second = run_fuzz_scenario(SMALL, scenario)
        assert first == second

    def test_stream_and_offset_are_seed_derived(self):
        scenario = sample_scenario(SMALL, 2)
        stream_a, _ = scenario_stream(SMALL, scenario)
        stream_b, _ = scenario_stream(SMALL, scenario)
        assert list(stream_a.blocks) == list(stream_b.blocks)


class TestDetectInversions:
    @staticmethod
    def _record(ratios, gain=0.0):
        return {
            "id": "x",
            "policies": {
                policy: {"miss_ratio": ratio, "accesses": 100,
                         "hits": 50, "misses": 50}
                for policy, ratio in ratios.items()
            },
            "oracle_gain": gain,
        }

    def test_frontier_orders_by_mean(self):
        config = FuzzConfig(policies=("lru", "ship"), flip_margin=0.02)
        records = [
            self._record({"lru": 0.5, "ship": 0.3}),
            self._record({"lru": 0.4, "ship": 0.2}),
        ]
        frontier, means = detect_inversions(config, records)
        assert frontier == ["ship", "lru"]
        assert means["lru"] == pytest.approx(0.45)
        assert not any(r["interesting"] for r in records)

    def test_flip_against_the_frontier_is_flagged(self):
        config = FuzzConfig(policies=("lru", "ship"), flip_margin=0.02)
        records = [
            self._record({"lru": 0.2, "ship": 0.5}),  # inverted cell
            self._record({"lru": 0.5, "ship": 0.1}),
            self._record({"lru": 0.5, "ship": 0.1}),
        ]
        frontier, _ = detect_inversions(config, records)
        assert frontier == ["ship", "lru"]
        assert records[0]["interesting"]
        flip = records[0]["flips"][0]
        assert flip["expected_better"] == "ship"
        assert flip["expected_worse"] == "lru"
        assert flip["delta"] == pytest.approx(0.3)
        assert not records[1]["flips"]

    def test_sub_margin_flips_are_ignored(self):
        config = FuzzConfig(policies=("lru", "ship"), flip_margin=0.1)
        records = [
            self._record({"lru": 0.31, "ship": 0.30}),
            self._record({"lru": 0.30, "ship": 0.31}),
        ]
        detect_inversions(config, records)
        assert not any(r["flips"] for r in records)

    def test_oracle_spike_is_interesting_on_its_own(self):
        config = FuzzConfig(policies=("lru", "ship"), spike_threshold=0.08)
        records = [self._record({"lru": 0.4, "ship": 0.3}, gain=0.12)]
        detect_inversions(config, records)
        assert records[0]["oracle_spike"]
        assert records[0]["interesting"]

    def test_empty_records_return_config_order(self):
        config = FuzzConfig(policies=("srrip", "lru"))
        frontier, means = detect_inversions(config, [])
        assert frontier == ["srrip", "lru"]
        assert means == {}


class TestFullFidelityDifferential:
    """Satellite (b): sampled cells reproduce bit-identically at full
    fidelity through both the tiered fast path and the scalar model."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_sampled_counts_survive_full_replay(self, index):
        scenario = sample_scenario(SMALL, index)
        campaign = run_fuzz_scenario(SMALL, scenario)
        full = replay_scenario_full(
            SMALL, scenario, campaign_policies=campaign["policies"],
            probes=(),
        )
        assert full["sampled_match"], "campaign counts not reproduced"
        assert full["sampled_reference_match"], \
            "substream replay != reference SampledLlcSimulator"
        assert full["fastpath_match"], "tiered replay != scalar model"
        assert full["recorder_match"], "recorder != object hierarchy"
        for policy in SMALL.policies:
            assert full["sampled"][policy]["reference_match"]
            assert full["full"][policy]["fastpath_match"]
            assert full["full"][policy]["scalar_tier"] == "scalar"

    def test_probe_evidence_attaches(self):
        scenario = sample_scenario(SMALL, 0)
        full = replay_scenario_full(SMALL, scenario, probes=("sharing",))
        assert "probe_report" in full
        assert full["oracle_gain_full"] >= 0.0

    def test_recorder_divergence_is_caught(self, monkeypatch):
        from repro.sim import multipass

        record = multipass.record_inclusive_lru

        def off_by_one(trace, machine):
            stream, stats = record(trace, machine)
            stats.writebacks += 1
            return stream, stats

        monkeypatch.setattr(multipass, "record_inclusive_lru", off_by_one)
        full = replay_scenario_full(SMALL, sample_scenario(SMALL, 0),
                                    probes=())
        assert not full["recorder_match"]
        assert full["fastpath_match"]

    def test_classification_divergence_is_caught(self, monkeypatch):
        # A fast tier whose hit/miss counts are right but whose residency
        # table is not: one extra shared residency reaches the classifier.
        from repro.cache.residency import ResidencyTable
        from repro.sim import multipass

        fast = multipass._try_fast_replay
        extra = ResidencyTable.from_rows([(0, 0, 1, 2, 0, 0, 0b11, 0, 1, 1, 1)])

        def misclassifying(stream, geometry, policy, observers, *args):
            result, reason = fast(stream, geometry, policy, observers, *args)
            if result is not None:
                for observer in observers:
                    observer.consume(extra)
            return result, reason

        monkeypatch.setattr(multipass, "_try_fast_replay", misclassifying)
        full = replay_scenario_full(SMALL, sample_scenario(SMALL, 0),
                                    probes=())
        assert not full["fastpath_match"]
        assert full["recorder_match"]

    def test_stale_campaign_counts_are_caught(self):
        scenario = sample_scenario(SMALL, 0)
        campaign = run_fuzz_scenario(SMALL, scenario)
        doctored = json.loads(json.dumps(campaign["policies"]))
        doctored["lru"]["hits"] += 1
        full = replay_scenario_full(
            SMALL, scenario, campaign_policies=doctored, probes=(),
        )
        assert not full["sampled_match"]
        assert not full["sampled"]["lru"]["campaign_match"]


class TestCampaign:
    @pytest.fixture(scope="class")
    def corpus(self):
        return run_fuzz_campaign(SMALL)

    def test_corpus_shape(self, corpus):
        assert corpus["format_version"] == 1
        assert corpus["config"] == SMALL.as_dict()
        assert len(corpus["scenarios"]) == SMALL.total_scenarios
        assert sorted(corpus["frontier"]) == sorted(SMALL.policies)
        assert not corpus["failures"]
        assert not corpus["mismatches"]

    def test_corpus_is_json_serialisable(self, corpus):
        round_tripped = json.loads(json.dumps(corpus, sort_keys=True))
        assert round_tripped["interesting"] == corpus["interesting"]

    def test_full_rerun_honours_max_full(self, corpus):
        assert len(corpus["full"]) <= SMALL.max_full
        assert corpus["full_truncated"] == \
            len(corpus["interesting"]) - len(corpus["full"])
        for record in corpus["full"].values():
            assert record["sampled_match"]
            assert record["sampled_reference_match"]
            assert record["fastpath_match"]
            assert record["recorder_match"]

    def test_campaign_is_deterministic(self, corpus):
        # Everything except wall-clock profile timings inside probe
        # reports must be bit-identical run to run.
        def scrub(node):
            if isinstance(node, dict):
                return {k: scrub(v) for k, v in node.items()
                        if k != "profile"}
            if isinstance(node, list):
                return [scrub(item) for item in node]
            return node

        again = run_fuzz_campaign(SMALL)
        assert json.dumps(scrub(again), sort_keys=True) == \
            json.dumps(scrub(corpus), sort_keys=True)

    def test_replay_corpus_cell_reproduces(self, corpus):
        target = (corpus["interesting"] or
                  [corpus["scenarios"][0]["id"]])[0]
        replayed = replay_corpus_cell(corpus, target, probes=())
        assert replayed["sampled_match"]
        assert replayed["sampled_reference_match"]
        assert replayed["fastpath_match"]

    def test_replay_unknown_cell_raises(self, corpus):
        with pytest.raises(ConfigError):
            corpus_scenario(corpus, "s99999")
        with pytest.raises(ConfigError):
            replay_corpus_cell(corpus, "s99999")

    def test_replay_rejects_doctored_scenarios(self, corpus):
        doctored = json.loads(json.dumps(corpus))
        doctored["scenarios"][0]["cores"] = 99
        with pytest.raises(ConfigError, match="re-sampled differently"):
            replay_corpus_cell(doctored, doctored["scenarios"][0]["id"])

    def test_load_corpus_checks_the_format(self, corpus, tmp_path):
        path = tmp_path / "inversions.json"
        path.write_text(json.dumps(corpus), encoding="utf-8")
        assert load_corpus(path)["config"] == SMALL.as_dict()
        path.write_text(json.dumps({"format_version": 99}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="corpus format"):
            load_corpus(path)


class TestTraceScenarios:
    def test_ingested_trace_runs_through_the_pipeline(self, tmp_path):
        lines = [f"{0x400 + i % 3 * 4:#x}: {'W' if i % 5 == 0 else 'R'} "
                 f"{(i * 64) % 4096:#x}" for i in range(600)]
        path = tmp_path / "fuzz.pin.out"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = FuzzConfig(
            seed=7, scenarios=0, accesses=600,
            trace_files=((str(path), "pin"),),
        )
        corpus = run_fuzz_campaign(config)
        assert len(corpus["scenarios"]) == 1
        record = corpus["scenarios"][0]
        assert record["kind"] == "trace"
        assert record["llc_accesses"] > 0
        assert not corpus["failures"]
