#!/usr/bin/env python
"""Capacity analysis: miss-ratio curves, set sampling, and the oracle sweep.

Shows the two acceleration tools the library provides for capacity
studies and validates them against full simulation:

1. a one-pass miss-ratio curve (Mattson stack distances) giving LRU miss
   ratios at every capacity at once,
2. set-sampled simulation (every Nth set) for cheap estimates of any
   policy at any geometry,

then uses full simulation for the quantity that actually needs it — the
sharing-oracle gain across LLC sizes (the paper's 4MB -> 8MB trend).

Run:  python examples/capacity_planning.py [--workload NAME]
"""

import argparse

from repro import ExperimentContext, profile
from repro.analysis.mrc import compute_mrc
from repro.analysis.tables import render_table
from repro.common.config import CacheGeometry
from repro.oracle.runner import run_oracle_study
from repro.policies.lru import LruPolicy
from repro.sim.multipass import run_policy_on_stream
from repro.sim.sampling import SampledLlcSimulator


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="streamcluster")
    parser.add_argument("--accesses", type=int, default=100_000)
    args = parser.parse_args()

    context = ExperimentContext(profile("scaled-4mb"),
                                target_accesses=args.accesses,
                                workloads=[args.workload])
    stream = context.artifacts(args.workload).stream
    base_geometry = context.geometry

    sizes = [base_geometry.num_blocks // 2, base_geometry.num_blocks,
             base_geometry.num_blocks * 2, base_geometry.num_blocks * 4]
    curve = compute_mrc(stream, sizes)

    rows = []
    for blocks in sizes:
        geometry = CacheGeometry(blocks * 64, base_geometry.ways)
        full = run_policy_on_stream(stream, geometry, "lru")
        sampled = SampledLlcSimulator(
            geometry, LruPolicy(), sample_ratio=min(8, geometry.num_sets)
        ).run(stream)
        oracle = run_oracle_study(stream, geometry)
        rows.append([
            geometry.describe(),
            curve.miss_ratio_at(blocks),
            full.miss_ratio,
            sampled.miss_ratio,
            oracle.miss_reduction,
        ])

    print(render_table(
        ["llc", "mrc_lru_mr", "simulated_lru_mr", "sampled_lru_mr",
         "oracle_reduction"],
        rows,
        title=f"Capacity analysis for {args.workload} "
              f"(MRC is fully-associative; simulated is 16-way)",
    ))
    print()
    print(f"Working-set knee (first capacity under 50% misses): "
          f"{curve.knee_capacity()} blocks")
    print("The MRC and the sampled estimate track full simulation; the")
    print("oracle column reproduces the paper's capacity trend for this app.")


if __name__ == "__main__":
    main()
