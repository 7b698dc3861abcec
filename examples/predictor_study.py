#!/usr/bin/env python
"""Reproduce the paper's negative result: fill-time sharing predictability.

Evaluates the block-address-indexed and PC-indexed history predictors (and
their tournament hybrid) online — predict at fill, score and train at
eviction — and then drives the sharing-aware replacement wrapper from each
predictor to show how little of the oracle's gain a realistic design
captures.

Run:  python examples/predictor_study.py [--accesses N]
"""

import argparse

from repro import ExperimentContext, profile
from repro.analysis.tables import render_table
from repro.oracle.runner import run_oracle_study
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.registry import make_policy
from repro.predictors.harness import PredictorHarness, predictor_hint_source
from repro.predictors.registry import make_predictor
from repro.sim.multipass import run_policy_on_stream

WORKLOADS = ("streamcluster", "canneal", "dedup", "bodytrack", "barnes", "water")
PREDICTORS = ("address", "pc", "hybrid")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=100_000)
    args = parser.parse_args()

    context = ExperimentContext(profile("scaled-8mb"),
                                target_accesses=args.accesses,
                                workloads=list(WORKLOADS))
    geometry = context.geometry

    accuracy_rows, policy_rows = [], []
    for name in WORKLOADS:
        stream = context.artifacts(name).stream
        baseline = run_policy_on_stream(stream, geometry, "lru")
        oracle_gain = run_oracle_study(stream, geometry).miss_reduction
        policy_row = [name, oracle_gain]
        for predictor_name in PREDICTORS:
            # Pure predictability measurement (no policy impact).
            predictor = make_predictor(predictor_name)
            harness = PredictorHarness(predictor)
            run_policy_on_stream(stream, geometry, "lru", observers=(harness,))
            matrix = harness.matrix
            accuracy_rows.append([
                f"{name}/{predictor_name}", matrix.base_rate, matrix.accuracy,
                matrix.precision, matrix.recall,
            ])
            # Predictor-driven replacement (the realistic oracle).
            driven_predictor = make_predictor(predictor_name)
            driven_harness = PredictorHarness(driven_predictor)
            wrapper = SharingAwareWrapper(
                make_policy("lru"), predictor_hint_source(driven_predictor)
            )
            driven = run_policy_on_stream(
                stream, geometry, wrapper, observers=(driven_harness,)
            )
            policy_row.append(driven.miss_reduction_vs(baseline))
        policy_rows.append(policy_row)
        print(f"  studied {name}")

    print()
    print(render_table(
        ["workload/predictor", "base_rate", "accuracy", "precision", "recall"],
        accuracy_rows,
        title="Online fill-time prediction accuracy (LRU ground truth, 8MB)",
    ))
    print()
    print(render_table(
        ["workload", "oracle_gain", *[f"driven({p})" for p in PREDICTORS]],
        policy_rows,
        title="Miss reduction over LRU: oracle vs predictor-driven (8MB)",
    ))
    print()
    print("The paper's conclusion, reproduced: accuracy barely beats the")
    print("majority-class baseline, and the predictor-driven policies capture")
    print("only a sliver of the oracle's gain — usable sharing prediction")
    print("needs richer features than addresses and PCs.")


if __name__ == "__main__":
    main()
