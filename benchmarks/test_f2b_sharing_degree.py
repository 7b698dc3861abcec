"""F2b — Sharing-degree distribution of residencies and hits.

Companion to F2: how many distinct cores touch a block during one LLC
residency. Characterization papers of this era report that sharing is
mostly pairwise/low-degree with a small high-degree tail (locks, global
counters, broadcast structures) — which matters because protecting a
degree-2 block buys one extra hit while protecting a degree-8 block buys
seven.
"""

from benchmarks.conftest import GEOMETRY_4MB, emit, once
from repro.characterization.hits import SharingClassifier
from repro.common.stats import ratio
from repro.policies.registry import make_policy
from repro.sim.multipass import run_policy_on_stream

MAX_DEGREE = 8


def test_f2b_sharing_degree_distribution(benchmark, context):
    def build_rows():
        rows = []
        for name in context.workload_list:
            stream = context.artifacts(name).stream
            classifier = SharingClassifier()
            run_policy_on_stream(
                stream, GEOMETRY_4MB, make_policy("lru"),
                observers=(classifier,),
            )
            breakdown = classifier.breakdown
            shared_total = breakdown.shared_residencies
            if shared_total == 0:
                continue
            degree_2 = breakdown.degree_residencies.get(2, 0)
            high = sum(
                count for degree, count in breakdown.degree_residencies.items()
                if degree >= 4
            )
            high_hits = sum(
                hits for degree, hits in breakdown.degree_hits.items()
                if degree >= 4
            )
            rows.append([
                name,
                shared_total,
                ratio(degree_2, shared_total),
                ratio(high, shared_total),
                ratio(high_hits, breakdown.shared_hits),
                max(breakdown.degree_residencies),
            ])
        return rows

    rows = once(benchmark, build_rows)
    emit(
        "f2b_sharing_degree",
        ["workload", "shared_res", "frac_degree2", "frac_degree4plus",
         "hit_share_degree4plus", "max_degree"],
        rows,
        title="[F2b] Sharing-degree distribution of shared residencies "
              "(4MB, LRU)",
    )

    assert rows
    # Pairwise sharing dominates the population in most apps...
    pairwise_dominant = sum(1 for row in rows if row[2] > 0.5)
    assert pairwise_dominant >= len(rows) // 2
    # ...but a high-degree tail exists somewhere (locks/broadcasts) and its
    # hit share exceeds its population share there.
    assert any(row[3] > 0.01 for row in rows)
    tails = [row for row in rows if row[3] > 0.01]
    assert any(row[4] > row[3] for row in tails)
