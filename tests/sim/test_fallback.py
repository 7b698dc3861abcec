"""Every model replay says why no faster path ran (``result.fallback``).

One test per reason of :data:`repro.sim.results.FALLBACK_REASONS`, plus
the two paths the sharing study leans on: observed SHiP replays stay on
the compact kernel (no ``observers`` fallback), and predictor-driven
wrappers land on the model with ``hint-source``. The reason also rides
the replay's telemetry span.
"""

import random

import pytest

from repro.common.config import CacheGeometry
from repro.oracle.annotate import build_stream_annotation, oracle_hint_source
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.policies.ship import ShipPolicy
from repro.predictors.harness import PredictorHarness, predictor_hint_source
from repro.predictors.registry import make_predictor
from repro.sim import multipass, telemetry
from repro.sim.multipass import run_policy_on_stream
from repro.sim.results import FALLBACK_REASONS
from tests.conftest import TableRecorder, make_stream

GEOMETRY = CacheGeometry(8 * 4 * 64, 4)


def stream_of(n=1200, cores=4, seed=1):
    rng = random.Random(seed)
    return make_stream([
        (rng.randrange(cores), rng.choice((0x10, 0x20)), rng.randrange(70),
         rng.random() < 0.2)
        for __ in range(n)
    ])


def oracle(stream):
    return SharingAwareWrapper(
        LruPolicy(), oracle_hint_source(build_stream_annotation(stream,
                                                                GEOMETRY))
    )


@pytest.fixture(autouse=True)
def _native_on(monkeypatch):
    """These tests pin which backend runs, so the native gate stays on
    even in a job that sets REPRO_SIM_NO_NATIVE for the rest."""
    monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)


class TestFallbackReasons:
    def test_vocabulary_is_fixed(self):
        assert FALLBACK_REASONS == (
            "observers", "bound-instance", "subclass", "hint-source",
            "wide-cores", "gate-off",
        )

    def test_observers(self):
        stream = stream_of()
        result = run_policy_on_stream(stream, GEOMETRY, oracle(stream),
                                      observers=(TableRecorder(),))
        assert (result.backend, result.fallback) == ("model", "observers")
        plain = run_policy_on_stream(stream, GEOMETRY, oracle(stream))
        assert (plain.backend, plain.fallback) == ("compact", None)

    def test_bound_instance(self):
        # The model refuses to bind twice, so the reason is read off the
        # dispatch itself.
        stream = stream_of()
        for policy in (ShipPolicy(), make_policy("lru")):
            policy.bind(GEOMETRY)
            assert multipass._try_fast_replay(
                stream, GEOMETRY, policy, (), None, None
            ) == (None, "bound-instance")

    def test_subclass(self):
        class TweakedShip(ShipPolicy):
            pass

        result = run_policy_on_stream(stream_of(), GEOMETRY, TweakedShip())
        assert (result.backend, result.fallback) == ("model", "subclass")
        wrapped_drrip = SharingAwareWrapper(
            make_policy("drrip"), oracle(stream_of()).hint_source
        )
        assert run_policy_on_stream(
            stream_of(), GEOMETRY, wrapped_drrip
        ).fallback == "subclass"

    def test_hint_source(self):
        stream = stream_of()
        predictor = make_predictor("address")
        wrapper = SharingAwareWrapper(LruPolicy(),
                                      predictor_hint_source(predictor))
        result = run_policy_on_stream(stream, GEOMETRY, wrapper,
                                      observers=(PredictorHarness(predictor),))
        assert (result.backend, result.fallback) == ("model", "hint-source")
        # An annotation built for another stream cannot be read by ordinal.
        misaligned = oracle(stream_of(n=2000))
        assert run_policy_on_stream(
            stream, GEOMETRY, misaligned
        ).fallback == "hint-source"

    def test_wide_cores(self):
        stream = make_stream([(63 if i % 3 else 1, 0x10, i % 40, False)
                              for i in range(300)])
        for policy in ("lru", "drrip", "ship"):
            result = run_policy_on_stream(stream, GEOMETRY, policy,
                                          observers=(TableRecorder(),))
            assert result.fallback == "wide-cores", policy
            assert run_policy_on_stream(
                stream, GEOMETRY, policy
            ).fallback is None, policy

    def test_gate_off(self, monkeypatch):
        stream = stream_of()
        assert run_policy_on_stream(
            stream, GEOMETRY, "lru", fastpath=False
        ).fallback == "gate-off"
        assert run_policy_on_stream(
            stream, GEOMETRY, "ship", native=False
        ).fallback == "gate-off"
        monkeypatch.setenv("REPRO_SIM_NO_NATIVE", "1")
        assert run_policy_on_stream(
            stream, GEOMETRY, oracle(stream)
        ).fallback == "gate-off"


class TestSharingStudyRouting:
    @pytest.mark.parametrize("policy", ("lru", "srrip", "drrip", "ship"))
    def test_observed_replays_never_fall_back(self, policy):
        result = run_policy_on_stream(stream_of(), GEOMETRY, policy,
                                      observers=(TableRecorder(),))
        assert result.fallback is None
        assert result.backend != "model"

    def test_span_carries_the_reason(self, tmp_path):
        run = telemetry.create_run(tmp_path, command="test")
        stream = stream_of(n=400)
        with telemetry.activate(run):
            run_policy_on_stream(stream, GEOMETRY, "ship", native=False)
            run_policy_on_stream(stream, GEOMETRY, "ship")
        spans = [e for e in telemetry.read_events(run.run_dir)
                 if e["kind"] == "span" and e.get("stage") == "replay"]
        assert [(e["backend"], e["fallback"]) for e in spans] == [
            ("model", "gate-off"), ("compact", None),
        ]
