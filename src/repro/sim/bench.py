"""Tracked benchmark trajectory: ``repro-sim bench``.

Times a small canonical set of warm-sweep cells — the replay kernels every
experiment spends its wall time in — and writes one ``BENCH_<rev>.json``
per revision into a results directory kept in the repository. Successive
files form the performance trajectory of the codebase; the CI
benchmark-smoke job runs ``--quick`` on every change and fails when the
disabled-probe overhead on the golden warm-replay cell exceeds its bound
(the structural zero-cost claim of :mod:`repro.sim.probes`, measured).

Cells (all replay the same cached warm stream, so recording cost is paid
once and excluded):

* ``warm_replay_lru_fastpath`` — the exact stack-distance fast path.
* ``warm_replay_lru_scalar``   — the scalar cache model, plain LRU. The
  **golden cell**: baseline denominator of the overhead gate.
* ``warm_replay_srrip`` / ``warm_replay_drrip`` — the set-partitioned
  tiers (``set`` and ``dueling``) on their default auto gate, each with
  a ``_scalar`` twin forced through the scalar model. The CI smoke gate
  bounds each pair's speedup from below
  (:data:`SETPATH_GATE_PAIRS` / ``--min-setpath-speedup``): the
  partitioned kernels are bit-identical to the scalar model, so a cell
  that stops being *faster* than its twin has silently fallen back.
* ``warm_replay_ship``         — SHiP is scalar-tier by design (globally
  coupled SHCT); on its default auto gate it now takes the native scalar
  backend (:mod:`repro.sim.nativepath`, the compact pure-Python kernel).
  ``warm_replay_ship_native`` forces the native backend explicitly and
  ``warm_replay_ship_scalar`` forces the object model; the CI smoke gate bounds that pair's speedup
  from below (:data:`NATIVEPATH_GATE_PAIRS` /
  ``--min-nativepath-speedup``) — the native kernel is bit-identical to
  the model, so losing the speedup means the scalar tier silently
  regressed to model throughput.
* ``warm_replay_oracle_native`` / ``warm_replay_oracle_scalar`` — the
  sharing-oracle wrapper (:class:`repro.oracle.SharingAwareWrapper`
  over SHiP, ``mode="both"``) replayed through the native oracle
  kernels versus the scalar object model. The stream annotation is
  precomputed outside the timed window, so the pair times the wrapped
  replay alone — exactly what the oracle lowering accelerates. The CI
  smoke gate bounds the pair's speedup from below (it shares
  :data:`NATIVEPATH_GATE_PAIRS` with the SHiP pair): both backends are
  bit-identical, counters included, so losing the speedup means the
  oracle tier silently fell back to the model.
* ``warm_sweep_grid`` / ``warm_sweep_grid_percell`` — a whole
  configuration grid (four-associativity LRU capacity grid plus a
  four-point SRRIP ``rrpv_bits`` parameter grid) replayed in shared
  single passes through :mod:`repro.sim.gridpath`, against a twin that
  replays every cell independently through the per-cell fast paths. The
  CI smoke gate bounds the pair's speedup from below
  (:data:`GRIDPATH_GATE_PAIRS` / ``--min-gridpath-speedup``): grid
  results are bit-identical to per-cell replay, so the only thing that
  can regress is the sharing itself.
* ``probed_disabled``          — the golden cell executed through
  :func:`repro.sim.probes.run_probed_replay` with an **empty** probe list;
  its ratio to the golden cell is the disabled-probe overhead.
* ``probed_full_fastpath`` / ``probed_full_scalar`` — all four
  stream-level probes attached, on each tier (the enabled-probe price,
  reported but not gated).

Timing discipline: every cell runs ``repeats`` times and reports the
minimum (the standard noise-robust estimator for CI machines); the
overhead gate compares minima. Repeats are *interleaved round-robin*
across cells rather than run back-to-back — on shared CI machines
wall-clock drift between early and late cells routinely exceeds the 2%
bound being enforced, and interleaving spreads that drift evenly. The
golden/probed gate pair additionally gets alternating extra repeats up to
:data:`GATE_PAIR_MIN_REPEATS`: their *ratio* feeds a hard CI gate, so the
pair needs more draws than the trajectory cells.
"""

import gc
import json
import platform
import subprocess
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.stats import ratio
from repro.oracle.annotate import oracle_hint_source
from repro.oracle.runner import stream_annotation
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.registry import make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.gridpath import replay_lru_grid, replay_param_grid
from repro.sim.multipass import run_policy_on_stream
from repro.sim.probes import run_probed_replay

BENCH_FORMAT_VERSION = 1
"""Bump when the BENCH_<rev>.json shape changes incompatibly."""

DEFAULT_OUT_DIR = "benchmarks/results"
"""Where BENCH_<rev>.json files accumulate (committed to the repo)."""

DEFAULT_WORKLOAD = "streamcluster"
"""Canonical bench workload (PARSEC, heavily shared — exercises the
observer path, not just classification)."""

GOLDEN_CELL = "warm_replay_lru_scalar"
OVERHEAD_CELL = "probed_disabled"

REPLAY_PROBES = ("sets", "evictions", "sharing", "reuse")
"""The fastpath-safe probe set the full-probe cells attach."""

SETPATH_GATE_PAIRS = {
    "warm_replay_srrip": "warm_replay_srrip_scalar",
    "warm_replay_drrip": "warm_replay_drrip_scalar",
}
"""Set-partitioned cell -> its forced-scalar twin (speedup gate pairs)."""

GRIDPATH_GATE_PAIRS = {
    "warm_sweep_grid": "warm_sweep_grid_percell",
}
"""Grid-replay cell -> its independent per-cell twin (speedup gate pair)."""

NATIVEPATH_GATE_PAIRS = {
    "warm_replay_ship_native": "warm_replay_ship_scalar",
    "warm_replay_oracle_native": "warm_replay_oracle_scalar",
}
"""Native scalar-backend cell -> its forced-model twin (speedup gate)."""

ORACLE_HORIZON_FACTOR = 4
"""Fixed retention horizon (capacity multiples) of the bench oracle cells.

The auto horizon depends on the measured base miss ratio; pinning it keeps
the annotation — and therefore the timed work — identical across machines
and revisions."""

GRID_WAYS = (4, 8, 16, 32)
"""Associativity axis of the bench LRU capacity grid (fixed set count)."""

GRID_RRPV_BITS = (1, 2, 3, 4)
"""SRRIP ``rrpv_bits`` axis of the bench parameter grid."""

GATE_PAIR_MIN_REPEATS = 9
"""Minimum samples for the golden/probed overhead pair (see module doc)."""


def current_rev(repo_dir: Optional[str] = None) -> str:
    """Short git revision of the working tree (``unknown`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _summarize_walls(walls: List[float]) -> Dict:
    """Min/mean/max of one cell's wall-time samples."""
    return {
        "repeats": len(walls),
        "min_sec": min(walls),
        "mean_sec": sum(walls) / len(walls),
        "max_sec": max(walls),
    }


def bench_cells(context, workload: str, repeats: int) -> Dict[str, Dict]:
    """Run every bench cell against one warmed stream; keyed results.

    Repeats run round-robin over the whole matrix, and the overhead gate
    pair is topped up with alternating samples to
    :data:`GATE_PAIR_MIN_REPEATS` (timing discipline in the module doc).
    """
    artifacts = context.artifacts(workload)  # warm before any timing
    stream = artifacts.stream
    geometry = context.geometry
    seed = context.seed

    def replay(policy: str, fastpath: Optional[bool],
               native: Optional[bool] = None):
        return lambda: run_policy_on_stream(
            stream, geometry, policy, seed=seed, fastpath=fastpath,
            native=native,
        )

    # Oracle pair: the annotation is computed (and memoized) here, before
    # any timing, so the cells time only the wrapped replay. A fresh
    # wrapper per run — its budgets and study counters are replay state.
    budgets = stream_annotation(stream, geometry, ORACLE_HORIZON_FACTOR)

    def replay_oracle(native: bool):
        def run():
            wrapper = SharingAwareWrapper(
                make_policy("ship", seed=seed),
                oracle_hint_source(budgets), "both",
            )
            run_policy_on_stream(
                stream, geometry, wrapper, seed=seed, native=native,
            )
        return run

    def probed(probes: Tuple[str, ...], fastpath: Optional[bool]):
        return lambda: run_probed_replay(
            stream, geometry, "lru", list(probes), seed=seed,
            fastpath=fastpath,
        )

    # The bench grid: the LRU capacity grid walks every associativity of
    # GRID_WAYS at the context's set count, and the parameter grid steps
    # every SRRIP rrpv_bits variant at the context geometry. Instances are
    # rebuilt per run — gridpath requires fresh unbound policies.
    grid_geoms = [
        CacheGeometry(geometry.num_sets * w * geometry.block_bytes, w,
                      geometry.block_bytes)
        for w in GRID_WAYS
    ]

    def sweep_grid():
        replay_lru_grid(stream, grid_geoms)
        replay_param_grid(
            stream, geometry,
            [SrripPolicy(rrpv_bits=b) for b in GRID_RRPV_BITS],
            fastpath=True,
        )

    def sweep_grid_percell():
        for g in grid_geoms:
            run_policy_on_stream(stream, g, "lru", seed=seed, fastpath=True)
        for b in GRID_RRPV_BITS:
            run_policy_on_stream(
                stream, geometry, SrripPolicy(rrpv_bits=b), seed=seed,
                fastpath=True,
            )

    cells = {
        "warm_replay_lru_fastpath": replay("lru", True),
        GOLDEN_CELL: replay("lru", False),
        "warm_replay_srrip": replay("srrip", None),
        "warm_replay_srrip_scalar": replay("srrip", False),
        "warm_replay_drrip": replay("drrip", None),
        "warm_replay_drrip_scalar": replay("drrip", False),
        "warm_replay_ship": replay("ship", None),
        "warm_replay_ship_native": replay("ship", None, native=True),
        "warm_replay_ship_scalar": replay("ship", None, native=False),
        "warm_replay_oracle_native": replay_oracle(True),
        "warm_replay_oracle_scalar": replay_oracle(False),
        "warm_sweep_grid": sweep_grid,
        "warm_sweep_grid_percell": sweep_grid_percell,
        OVERHEAD_CELL: probed((), False),
        "probed_full_fastpath": probed(REPLAY_PROBES, True),
        "probed_full_scalar": probed(REPLAY_PROBES, False),
    }
    walls: Dict[str, List[float]] = {name: [] for name in cells}

    def sample(name: str) -> None:
        # Collect the previous sample's garbage *outside* the timed window
        # and keep the collector off inside it: every cell allocates a
        # full cache model whose teardown otherwise lands in whichever
        # sample runs next, which is exactly the kind of asymmetric noise
        # a 2% gate cannot live with.
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            cells[name]()
            walls[name].append(perf_counter() - start)
        finally:
            gc.enable()

    for __ in range(repeats):
        for name in cells:
            sample(name)
    for __ in range(max(GATE_PAIR_MIN_REPEATS - repeats, 0)):
        sample(GOLDEN_CELL)
        sample(OVERHEAD_CELL)

    accesses = len(stream)
    results = {}
    for name in cells:
        timing = _summarize_walls(walls[name])
        timing["accesses"] = accesses
        timing["accesses_per_sec"] = ratio(accesses, timing["min_sec"])
        results[name] = timing
    return results


def disabled_probe_overhead(cells: Dict[str, Dict]) -> float:
    """Fractional slowdown of the probe runner with zero probes attached.

    ``(probed_disabled / golden) - 1`` on minimum wall times: 0.0 means
    the probe layer is free when disabled, which is the structural claim
    the CI gate enforces (bound: 2%).
    """
    golden = cells[GOLDEN_CELL]["min_sec"]
    probed = cells[OVERHEAD_CELL]["min_sec"]
    return ratio(probed, golden) - 1.0 if golden else 0.0


def setpath_speedups(cells: Dict[str, Dict]) -> Dict[str, float]:
    """Min-wall speedup of each set-partitioned cell over its scalar twin.

    Keyed by the fast cell's name; the CI smoke gate fails when any value
    drops below ``--min-setpath-speedup`` (a partitioned replay that is
    no faster than its bit-identical scalar twin has silently fallen
    back to the scalar model).
    """
    return {
        fast: ratio(cells[twin]["min_sec"], cells[fast]["min_sec"])
        for fast, twin in SETPATH_GATE_PAIRS.items()
        if fast in cells and twin in cells
    }


def gridpath_speedups(cells: Dict[str, Dict]) -> Dict[str, float]:
    """Min-wall speedup of each grid-replay cell over its per-cell twin.

    Keyed by the grid cell's name; the CI smoke gate fails when any value
    drops below ``--min-gridpath-speedup`` (the grid pass is bit-identical
    to per-cell replay, so losing the speedup means the sharing — one
    capped stack walk per set count, one stacked parameter kernel —
    silently degenerated to independent replays).
    """
    return {
        fast: ratio(cells[twin]["min_sec"], cells[fast]["min_sec"])
        for fast, twin in GRIDPATH_GATE_PAIRS.items()
        if fast in cells and twin in cells
    }


def nativepath_speedups(cells: Dict[str, Dict]) -> Dict[str, float]:
    """Min-wall speedup of the native scalar backend over the model twin.

    Keyed by the native cell's name; the CI smoke gate fails when any
    value drops below ``--min-nativepath-speedup`` (the native kernel is
    bit-identical to the scalar model, so a native cell that is no faster
    than its forced-model twin has silently fallen back).
    """
    return {
        fast: ratio(cells[twin]["min_sec"], cells[fast]["min_sec"])
        for fast, twin in NATIVEPATH_GATE_PAIRS.items()
        if fast in cells and twin in cells
    }


def previous_bench(out_dir: Path, rev: str) -> Optional[Dict]:
    """The most recently written BENCH file of a *different* revision."""
    candidates = [
        path for path in sorted(
            out_dir.glob("BENCH_*.json"),
            key=lambda p: p.stat().st_mtime,
        )
        if path.stem != f"BENCH_{rev}"
    ]
    for path in reversed(candidates):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and isinstance(payload.get("cells"), dict):
            return payload
    return None


def run_bench(
    context,
    workload: str = DEFAULT_WORKLOAD,
    repeats: int = 3,
    out_dir: str = DEFAULT_OUT_DIR,
    rev: Optional[str] = None,
) -> Tuple[Dict, Path]:
    """Execute the bench matrix and persist ``BENCH_<rev>.json``.

    Returns ``(payload, path)``; the payload carries the trajectory
    comparison against the previous revision's file when one exists.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rev = rev or current_rev()
    cells = bench_cells(context, workload, repeats)
    overhead = disabled_probe_overhead(cells)
    payload: Dict = {
        "format_version": BENCH_FORMAT_VERSION,
        "rev": rev,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": context.machine.name,
        "llc": context.geometry.describe(),
        "workload": workload,
        "target_accesses": context.target_accesses,
        "seed": context.seed,
        "python_version": platform.python_version(),
        "numpy_available": True,
        "cells": cells,
        "disabled_probe_overhead": overhead,
        "setpath_speedups": setpath_speedups(cells),
        "gridpath_speedups": gridpath_speedups(cells),
        "nativepath_speedups": nativepath_speedups(cells),
        "golden_cell": GOLDEN_CELL,
        "overhead_cell": OVERHEAD_CELL,
    }
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    baseline = previous_bench(directory, rev)
    if baseline is not None:
        golden_now = cells[GOLDEN_CELL]["accesses_per_sec"]
        golden_then = (
            baseline["cells"].get(GOLDEN_CELL, {}).get("accesses_per_sec", 0.0)
        )
        payload["vs_previous"] = {
            "rev": baseline.get("rev"),
            "golden_speedup": ratio(golden_now, golden_then),
        }
    path = directory / f"BENCH_{rev}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return payload, path
