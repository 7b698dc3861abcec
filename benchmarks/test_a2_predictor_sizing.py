"""A2 — Ablation: predictor table sizing and tagging.

Extension experiment: is the predictors' poor accuracy a capacity artefact?
Sweeping the table index bits (and adding partial tags to remove aliasing)
shows accuracy saturating well below usefulness — the failure is in the
feature, not the budget, which is exactly the paper's conclusion.

Predictor harnesses are passive observers of one and the same base replay,
so the whole sizing grid rides a *single* replay per workload: every
config's harness attaches to one observers tuple and they all consume the
identical residency table a dedicated replay would deliver.
"""

from benchmarks.conftest import GEOMETRY_4MB, emit, once
from repro.analysis.aggregate import amean
from repro.predictors.harness import PredictorHarness
from repro.predictors.tables import AddressSharingPredictor, PcSharingPredictor
from repro.sim.multipass import run_policy_on_stream

WORKLOADS = ("streamcluster", "dedup", "canneal", "bodytrack", "water")

CONFIGS = [
    ("address/10b", lambda: AddressSharingPredictor(index_bits=10)),
    ("address/14b", lambda: AddressSharingPredictor(index_bits=14)),
    ("address/18b", lambda: AddressSharingPredictor(index_bits=18)),
    ("address/14b+tag", lambda: AddressSharingPredictor(index_bits=14,
                                                        tag_bits=8)),
    ("pc/10b", lambda: PcSharingPredictor(index_bits=10)),
    ("pc/14b", lambda: PcSharingPredictor(index_bits=14)),
    ("pc/18b", lambda: PcSharingPredictor(index_bits=18)),
]


def test_a2_predictor_sizing(benchmark, context):
    def build_rows():
        accuracies = [[] for __ in CONFIGS]
        storage = [0] * len(CONFIGS)
        for name in WORKLOADS:
            stream = context.artifacts(name).stream
            harnesses = []
            for idx, (__, factory) in enumerate(CONFIGS):
                predictor = factory()
                storage[idx] = predictor.storage_bits()
                harnesses.append(PredictorHarness(predictor))
            run_policy_on_stream(
                stream, GEOMETRY_4MB, "lru", observers=tuple(harnesses)
            )
            for idx, harness in enumerate(harnesses):
                accuracies[idx].append(harness.matrix.accuracy)
        return [
            [label, storage[idx] // 8, amean(accuracies[idx])]
            for idx, (label, __) in enumerate(CONFIGS)
        ]

    rows = once(benchmark, build_rows)
    emit(
        "a2_predictor_sizing",
        ["config", "storage_bytes", "avg_accuracy"],
        rows,
        title="[A2] Predictor accuracy vs table budget (sharing-heavy "
              "workloads, 4MB)",
    )

    by_label = {row[0]: row for row in rows}
    # 256x more storage must buy only a marginal accuracy improvement —
    # the feature, not the capacity, is the bottleneck.
    for family in ("address", "pc"):
        small = by_label[f"{family}/10b"][2]
        large = by_label[f"{family}/18b"][2]
        assert large - small < 0.15
        assert large < 0.9
