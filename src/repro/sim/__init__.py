"""Simulation engines and experiment orchestration.

* :class:`LlcOnlySimulator` — the object-model replay of a recorded LLC
  stream against one policy (the reference every faster tier matches).
* ``multipass`` — records the LLC stream once per workload and exposes
  :func:`run_policy_on_stream`, the one replay entry point (fast tier,
  then native backend, then the object model), plus :func:`run_opt`.
* ``experiment`` — caches per-workload streams so the benches and examples
  pay the expensive hierarchy pass once.
"""

from repro.sim.engine import LlcOnlySimulator
from repro.sim.results import LlcSimResult, PolicyComparison
from repro.sim.multipass import (
    record_llc_stream,
    run_opt,
    run_policy_on_stream,
)
from repro.sim.experiment import ExperimentContext, WorkloadArtifacts
from repro.sim.sampling import (
    SampledLlcSimulator,
    SampledResult,
    sampled_geometry,
    sampled_substream,
)
from repro.sim.fuzz import (
    FuzzConfig,
    detect_inversions,
    replay_corpus_cell,
    replay_scenario_full,
    run_fuzz_campaign,
    run_fuzz_scenario,
    sample_scenario,
)

__all__ = [
    "LlcOnlySimulator",
    "LlcSimResult",
    "PolicyComparison",
    "record_llc_stream",
    "run_opt",
    "run_policy_on_stream",
    "ExperimentContext",
    "WorkloadArtifacts",
    "SampledLlcSimulator",
    "SampledResult",
    "sampled_geometry",
    "sampled_substream",
    "FuzzConfig",
    "detect_inversions",
    "replay_corpus_cell",
    "replay_scenario_full",
    "run_fuzz_campaign",
    "run_fuzz_scenario",
    "sample_scenario",
]
