"""F8 — Predictor-driven replacement vs. the oracle.

Paper analogue (pinned qualitatively): a realistic implementation of the
oracle needs a fill-time predictor; this bench drives the identical
protection mechanism from the history predictors instead of the annotation
and measures how much of the oracle's gain survives. The paper's
conclusion — not enough to be useful — shows up as predictor-driven gains
far below the oracle's (and sometimes negative).
"""

from benchmarks.conftest import GEOMETRY_8MB, emit, once
from repro.analysis.aggregate import amean
from repro.oracle.runner import run_oracle_study
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.registry import make_policy
from repro.predictors.harness import PredictorHarness, predictor_hint_source
from repro.predictors.registry import make_predictor
from repro.sim.multipass import run_policy_on_stream

PREDICTORS = ("address", "pc", "hybrid")


def predictor_driven_reduction(stream, geometry, predictor_name):
    baseline = run_policy_on_stream(stream, geometry, "lru")
    predictor = make_predictor(predictor_name)
    harness = PredictorHarness(predictor)
    wrapper = SharingAwareWrapper(
        make_policy("lru"), predictor_hint_source(predictor)
    )
    driven = run_policy_on_stream(stream, geometry, wrapper,
                                  observers=(harness,))
    return driven.miss_reduction_vs(baseline)


def test_f8_predictor_policy_vs_oracle(benchmark, context):
    def build_rows():
        rows = []
        for name in context.workload_list:
            stream = context.artifacts(name).stream
            oracle = run_oracle_study(stream, GEOMETRY_8MB).miss_reduction
            row = [name, oracle]
            for predictor_name in PREDICTORS:
                row.append(
                    predictor_driven_reduction(stream, GEOMETRY_8MB,
                                               predictor_name)
                )
            rows.append(row)
        return rows

    rows = once(benchmark, build_rows)
    rows.append(["mean", *[amean([r[i] for r in rows])
                           for i in range(1, 2 + len(PREDICTORS))]])
    emit(
        "f8_predictor_policy",
        ["workload", "oracle", *[f"driven({p})" for p in PREDICTORS]],
        rows,
        title="[F8] Miss reduction over LRU: oracle vs predictor-driven "
              "protection (8MB)",
    )

    mean_row = rows[-1]
    oracle_mean = mean_row[1]
    # The negative result: every realistic predictor captures well under
    # half of the oracle's average gain.
    for driven_mean in mean_row[2:]:
        assert driven_mean < oracle_mean * 0.5
