"""One-call characterization of a recorded LLC stream.

Bundles the classifier and phase tracker into a single replay under a
chosen policy and returns everything the characterization figures need.
Also renders probe reports (:func:`render_probe_report`) — rendering
lives here, beside the other human-readable characterization output,
and works purely from the JSON payload so ``repro-sim runs show`` can
render summaries loaded back from disk.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.stream import LlcStream
from repro.characterization.hits import HitBreakdown, SharingClassifier
from repro.characterization.phases import PhaseStats, SharingPhaseTracker
from repro.common.config import CacheGeometry
from repro.policies.registry import make_policy
from repro.sim.results import LlcSimResult


@dataclass(frozen=True)
class CharacterizationReport:
    """Everything one characterization replay produces."""

    result: LlcSimResult
    breakdown: HitBreakdown
    phases: PhaseStats


def characterize_stream(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy_name: str = "lru",
    seed: int = 0,
    track_phases: bool = True,
    fastpath: Optional[bool] = None,
) -> CharacterizationReport:
    """Replay ``stream`` under ``policy_name`` with characterization attached.

    Args:
        stream: recorded LLC demand stream.
        geometry: LLC geometry for the replay.
        policy_name: replacement policy governing residencies.
        seed: seed for stochastic policies.
        track_phases: also collect per-block phase statistics (costs memory
            proportional to the block footprint).
        fastpath: three-state gate for the exact replay fast paths
            (stack-distance for LRU, set-partitioned for the rest of the
            eligible matrix; None = auto; results are bit-identical
            either way).
    """
    # Imported here rather than at module level: repro.sim.experiment
    # imports this module, and pulling the replay entry point in lazily
    # keeps the package import graph acyclic whichever package is
    # imported first.
    from repro.sim.multipass import run_policy_on_stream

    classifier = SharingClassifier()
    observers = [classifier]
    phase_tracker = SharingPhaseTracker() if track_phases else None
    if phase_tracker is not None:
        observers.append(phase_tracker)
    # The instance (not the name) goes to the replay: this caller seeds
    # with the plain ``seed`` rather than a derived stream, and passing
    # the instance keeps that on every tier.
    result = run_policy_on_stream(
        stream, geometry, make_policy(policy_name, seed=seed),
        observers=tuple(observers), fastpath=fastpath,
    )
    phases = phase_tracker.finalize() if phase_tracker is not None else PhaseStats()
    return CharacterizationReport(
        result=result, breakdown=classifier.breakdown, phases=phases
    )


# ----------------------------------------------------------------------
# Probe-report rendering (repro-sim inspect / runs show)
# ----------------------------------------------------------------------

def _fraction(part, whole) -> float:
    return part / whole if whole else 0.0


def _render_sharing(summary: Dict, render_table) -> str:
    rows = [
        ["shared", summary["shared_residencies"], summary["shared_hits"],
         summary["shared_residency_fraction"], summary["shared_hit_fraction"]],
        ["  read-only", summary["ro_shared_residencies"],
         summary["ro_shared_hits"], "", ""],
        ["  read-write", summary["rw_shared_residencies"],
         summary["rw_shared_hits"], "", ""],
        ["private", summary["private_residencies"], summary["private_hits"],
         1.0 - summary["shared_residency_fraction"],
         1.0 - summary["shared_hit_fraction"]],
        ["total", summary["residencies"], summary["hits"], 1.0, 1.0],
    ]
    table = render_table(
        ["class", "residencies", "hits", "res frac", "hit frac"], rows,
        title="sharing breakdown (paper F1-F3):",
    )
    return (
        f"{table}\n"
        f"hit density ratio (shared/overall): "
        f"{summary['hit_density_ratio']:.4f}   "
        f"dead fills: {summary['dead_fill_fraction']:.4f}"
    )


def _render_sets(summary: Dict, render_table) -> str:
    rows = [
        [entry["set"], entry["misses"], entry["hits"], entry["evictions"],
         entry["live"]]
        for entry in summary["hottest_sets"]
    ]
    table = render_table(
        ["set", "misses", "hits", "evictions", "live"], rows,
        title=f"hottest sets (of {summary['num_sets']}):",
    )
    misses = summary["misses"]
    return (
        f"{table}\n"
        f"per-set misses: mean {misses['mean']:.1f}, min {misses['min']:.0f}, "
        f"max {misses['max']:.0f} (imbalance "
        f"{summary['miss_imbalance']:.2f}x)"
    )


def _render_evictions(summary: Dict, render_table) -> str:
    rows = []
    for reason, stats in summary["reasons"].items():
        lifetime = stats["lifetime_accesses"]
        rows.append([
            reason, stats["count"], stats["fraction"], stats["dead"],
            stats["shared"], lifetime["mean"],
        ])
    return render_table(
        ["reason", "count", "fraction", "dead", "shared", "mean lifetime"],
        rows, title="eviction reasons:",
    )


def _render_reuse(summary: Dict, render_table) -> str:
    rows = []
    for label in ("shared", "private"):
        side = summary[label]
        total = side["hits"] + side["misses"]
        rows.append([
            label, side["hits"], side["misses"],
            _fraction(side["hits"], total), side["mean_hit_distance"],
        ])
    return render_table(
        ["class", "hits", "misses", "hit ratio", "mean hit distance"],
        rows,
        title=f"reuse distances (lru-stack model, {summary['ways']} ways):",
    )


def _render_psel(summary: Dict, render_table) -> str:
    final = summary.get("final") or {}
    line = (
        f"set-dueling PSEL: final {final.get('psel')}"
        f"/{final.get('psel_max')} "
        f"(threshold {final.get('threshold')}, "
        f"winning {final.get('winning')!s}), "
        f"{len(summary['samples'])} samples every "
        f"{summary['sample_every']} accesses"
    )
    samples = summary["samples"]
    if samples:
        path = " -> ".join(str(psel) for __, psel in samples[:16])
        suffix = " ..." if len(samples) > 16 else ""
        line += f"\npsel trajectory: {path}{suffix}"
    return line


def _render_shct(summary: Dict, render_table) -> str:
    size = summary["shct_size"]
    histogram = summary["final_histogram"]
    dead = histogram.get("0", 0)
    rows = [[value, count, _fraction(count, size)]
            for value, count in histogram.items()]
    table = render_table(
        ["counter", "entries", "fraction"], rows,
        title=f"SHCT occupancy ({size} entries, max {summary['counter_max']}):",
    )
    return (
        f"{table}\n"
        f"dead signatures: {dead} ({_fraction(dead, size):.4f}), "
        f"{len(summary['samples'])} samples every "
        f"{summary['sample_every']} accesses"
    )


def _render_rrpv(summary: Dict, render_table) -> str:
    if not summary["histogram"]:
        return "rrpv: no evictions sampled"
    total = sum(summary["histogram"].values())
    rows = [[value, count, _fraction(count, total)]
            for value, count in summary["histogram"].items()]
    return render_table(
        ["rrpv", "ways", "fraction"], rows,
        title=(
            f"victim-set RRPV distribution at eviction "
            f"({summary['evictions_sampled']} evictions, "
            f"max {summary['rrpv_max']}):"
        ),
    )


def _render_coherence(summary: Dict, render_table) -> str:
    rows = [
        [kind, count, summary["distinct_blocks"].get(kind, 0)]
        for kind, count in summary["events"].items()
    ]
    if not rows:
        return "coherence: no events observed"
    return render_table(
        ["event", "count", "distinct blocks"], rows,
        title=f"coherence events ({summary['num_cores']} cores):",
    )


_PROBE_RENDERERS = {
    "sharing": _render_sharing,
    "sets": _render_sets,
    "evictions": _render_evictions,
    "reuse": _render_reuse,
    "psel": _render_psel,
    "shct": _render_shct,
    "rrpv": _render_rrpv,
    "coherence": _render_coherence,
}


def _render_generic(name: str, summary: Dict) -> str:
    lines = [f"{name}:"]
    for key, value in summary.items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def render_probe_report(payload) -> str:
    """Human-readable rendering of a probe report.

    Accepts a :class:`repro.sim.probes.ProbeReport` or its ``as_dict()``
    JSON payload (``runs show`` renders payloads read back from disk).
    Unknown probe names fall back to a generic key/value dump, so older
    renderers degrade gracefully on newer payloads.
    """
    from repro.analysis.tables import render_table

    if hasattr(payload, "as_dict"):
        payload = payload.as_dict()
    result = payload["result"]
    lines: List[str] = [
        f"probe report: workload {payload['workload']}, "
        f"policy {payload['policy']}, tier {payload['tier']}",
        f"replay: {result['accesses']} accesses, {result['hits']} hits, "
        f"{result['misses']} misses "
        f"(miss ratio {result['miss_ratio']:.4f})",
    ]
    profile = payload.get("profile") or {}
    stages = [
        (stage, wall) for stage, wall in profile.items()
        if isinstance(wall, (int, float)) and stage != "total"
    ]
    if stages:
        stages.sort(key=lambda item: -item[1])
        rendered = ", ".join(f"{stage} {wall:.3f}s" for stage, wall in stages)
        total = profile.get("total")
        if isinstance(total, (int, float)):
            rendered += f" (total {total:.3f}s)"
        lines.append(f"profile: {rendered}")
    for name, summary in payload.get("probes", {}).items():
        renderer = _PROBE_RENDERERS.get(name)
        lines.append("")
        if renderer is None:
            lines.append(_render_generic(name, summary))
        else:
            lines.append(renderer(summary, render_table))
    return "\n".join(lines)
