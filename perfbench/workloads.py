"""The benchmark's three workloads and the object-model reference run.

Every workload is one function over the app set. The measured run calls the
program's public entry points with their default routing (fast tiers and
native backends wherever the program picks them); the reference run calls
the very same functions with ``fastpath=False, native=False`` so every
replay lands on the object model. Each function returns ``(outcomes,
results)``: ``outcomes`` maps a check key to the simulated statistics of one
operation, ``results`` holds every ``LlcSimResult`` received, for the
accesses-replayed count and the tier/backend provenance.

Only stable entry points are driven — ``ExperimentContext.artifacts``,
``run_policy_on_stream``, ``run_opt``, ``replay_lru_grid``,
``replay_param_grid``, ``characterize_stream`` and ``run_oracle_study`` — so
a later change that re-routes replay tiers behind them is measured rather
than broken.
"""

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

from perfbench.spans import NO_TRACE
from repro.characterization.hits import SharingClassifier
from repro.characterization.report import characterize_stream
from repro.common.config import KB, CacheGeometry, profile
from repro.oracle.runner import run_oracle_study
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.registry import make_policy
from repro.policies.rrip import SrripPolicy
from repro.predictors.harness import PredictorHarness, predictor_hint_source
from repro.predictors.registry import make_predictor
from repro.sim.experiment import ExperimentContext, WorkloadArtifacts
from repro.sim.gridpath import replay_lru_grid, replay_param_grid
from repro.sim.multipass import run_opt, run_policy_on_stream

# One app per sharing regime across all three suites: shared-heavy
# (streamcluster, canneal, ocean, barnes), private or streaming (swaptions,
# radix, equake — the oracle gains nothing there) and a pipeline (ferret).
# Footprints run from 194 KB (fits the 256 KB scaled LLC) to 1.5 MB.
APPS = (
    "streamcluster", "canneal", "ferret", "swaptions",
    "barnes", "radix", "ocean", "equake",
)
MACHINE = "scaled-4mb"
GEOMETRIES = (
    ("4mb", profile("scaled-4mb").llc),
    ("8mb", profile("scaled-8mb").llc),
)
SWEEP_POLICIES = (
    "lru", "lip", "dip", "srrip", "brrip", "drrip", "nru", "random", "ship",
)
# The F7 capacity axis (scaled 128 KB .. 1 MB, i.e. full-size 2..16 MB).
CAPACITY_GRID = tuple(
    CacheGeometry(size * KB, 16) for size in (128, 256, 512, 1024)
)
RRPV_BITS = (1, 2, 3)
CLASSIFIED_POLICIES = ("lru", "srrip", "drrip", "ship")
ORACLE_BASES = ("lru", "ship")
# The paper's two history predictors: block address and program counter.
PREDICTORS = ("address", "pc")

MODEL = {"fastpath": False, "native": False}
"""Keyword arguments that pin a replay entry point to the object model."""


@dataclass(frozen=True)
class Config:
    """Input size of a run; tests shrink it, the benchmark never does."""

    accesses: int = 50_000
    apps: Tuple[str, ...] = APPS


DEFAULT_CONFIG = Config()


def context(config: Config, seed: int, cache_dir) -> ExperimentContext:
    """A fresh context; ``cache_dir=None`` keeps artifacts in memory only."""
    return ExperimentContext(
        profile(MACHINE), target_accesses=config.accesses, seed=seed,
        workloads=config.apps, cache_dir=cache_dir,
    )


def stream_digest(stream) -> str:
    """SHA-256 over the four stream columns, whatever loader built them."""
    digest = hashlib.sha256()
    for column in stream.columns():
        digest.update(column.tobytes())
    return digest.hexdigest()


def artifacts_outcome(artifacts) -> Dict:
    """Checked statistics of one workload's recorded artifacts."""
    return {
        "trace": dataclasses.asdict(artifacts.trace_stats),
        "hierarchy": dataclasses.asdict(artifacts.hierarchy_stats),
        "llc_stream": {
            "length": len(artifacts.stream),
            "sha256": stream_digest(artifacts.stream),
        },
    }


def _sim(result) -> Dict:
    return {"accesses": result.accesses, "hits": result.hits,
            "misses": result.misses}


def _replay(tracer, name, results, call):
    """Run one replay entry point under span ``name``; attrs carry tier."""
    with tracer.span(name) as attrs:
        produced = call()
        cells = produced if isinstance(produced, list) else [produced]
        attrs["tier"] = cells[0].tier
    results.extend(cells)
    return produced


def load_artifacts(config: Config, seed: int, cache_dir, tracer):
    """Artifacts of every app through one fresh context on ``cache_dir``."""
    ctx = context(config, seed, cache_dir)
    loaded = {}
    for app in config.apps:
        with tracer.span("cache.artifacts"):
            loaded[app] = ctx.artifacts(app)
    return ctx, loaded


def cold_record(config: Config, seed: int, cache_dir, tracer):
    """Record every app into an empty cache, then read it back.

    The first context runs generate -> trace stats -> hierarchy record ->
    store for each app; the second must serve every app as a disk hit.
    Outcome values are artifacts, turned into statistics by
    :func:`finalize` after the clock stops (hashing is not program work).
    """
    recorder, recorded = load_artifacts(config, seed, cache_dir, tracer)
    reader, reread = load_artifacts(config, seed, cache_dir, tracer)
    outcomes = {}
    for app in config.apps:
        outcomes[f"{app}/record"] = recorded[app]
        outcomes[f"{app}/reload"] = reread[app]
    outcomes["cache_stats/recorder"] = _cache_counts(recorder)
    outcomes["cache_stats/reader"] = _cache_counts(reader)
    return outcomes, []


def _cache_counts(ctx) -> Dict:
    stats = ctx.cache_stats
    return {"recordings": stats.recordings, "disk_hits": stats.disk_hits,
            "disk_stores": stats.disk_stores,
            "corrupt_entries": stats.corrupt_entries}


def cold_record_reference(config: Config, recorded) -> Dict:
    """What :func:`cold_record` must produce, from artifacts recorded in
    memory: one recording and store per app, then one disk hit per app."""
    outcomes = {}
    for app in config.apps:
        outcomes[f"{app}/record"] = artifacts_outcome(recorded[app])
        outcomes[f"{app}/reload"] = artifacts_outcome(recorded[app])
    count = len(config.apps)
    outcomes["cache_stats/recorder"] = {"recordings": count, "disk_hits": 0,
                                "disk_stores": count, "corrupt_entries": 0}
    outcomes["cache_stats/reader"] = {"recordings": 0, "disk_hits": count,
                                "disk_stores": 0, "corrupt_entries": 0}
    return outcomes


def policy_sweep(streams, seed: int, tracer, model: bool = False):
    """`repro-sim compare` plus the F4/F7 grids, with no observers."""
    replay_kw = MODEL if model else {}
    opt_kw = {"fastpath": False} if model else {}
    outcomes, results = {}, []
    for app, stream in streams.items():
        for gname, geometry in GEOMETRIES:
            for policy in SWEEP_POLICIES:
                result = _replay(
                    tracer, "sim.replay", results,
                    lambda: run_policy_on_stream(
                        stream, geometry, policy, seed=seed, **replay_kw),
                )
                outcomes[f"{app}/{gname}/{policy}"] = _sim(result)
            result = _replay(tracer, "sim.replay", results,
                             lambda: run_opt(stream, geometry, **opt_kw))
            outcomes[f"{app}/{gname}/opt"] = _sim(result)
        if model:
            # The grid entry point has no model switch: its reference is
            # one object-model LRU replay per capacity cell.
            cells = [run_policy_on_stream(stream, geometry, "lru", **MODEL)
                     for geometry in CAPACITY_GRID]
            results.extend(cells)
        else:
            cells = _replay(tracer, "sim.replay", results,
                            lambda: replay_lru_grid(stream, CAPACITY_GRID))
        for geometry, cell in zip(CAPACITY_GRID, cells):
            outcomes[f"{app}/lru_grid/{geometry.size_bytes}"] = _sim(cell)
        geometry = GEOMETRIES[0][1]
        cells = _replay(
            tracer, "sim.replay", results,
            lambda: replay_param_grid(
                stream, geometry,
                [SrripPolicy(rrpv_bits=bits) for bits in RRPV_BITS],
                **opt_kw),
        )
        for bits, cell in zip(RRPV_BITS, cells):
            outcomes[f"{app}/srrip_grid/{bits}"] = _sim(cell)
    return outcomes, results


def sharing_study(streams, seed: int, tracer, model: bool = False):
    """F1/F5/F6/F8/T3: the same replay layer driven with observers."""
    replay_kw = MODEL if model else {}
    opt_kw = {"fastpath": False} if model else {}
    g4, g8 = GEOMETRIES[0][1], GEOMETRIES[1][1]
    outcomes, results = {}, []
    for app, stream in streams.items():
        with tracer.span("characterization.observed_replay") as attrs:
            report = characterize_stream(stream, g4, "lru", seed=seed,
                                         **opt_kw)
            attrs["tier"] = report.result.tier
        results.append(report.result)
        outcomes[f"{app}/characterize/lru"] = {
            "result": _sim(report.result),
            "breakdown": dataclasses.asdict(report.breakdown),
            "phases": dataclasses.asdict(report.phases),
        }
        for policy in CLASSIFIED_POLICIES + ("opt",):
            classifier = SharingClassifier()
            if policy == "opt":
                call = lambda: run_opt(stream, g4, observers=(classifier,),
                                       **opt_kw)
            else:
                call = lambda: run_policy_on_stream(
                    stream, g4, policy, seed=seed, observers=(classifier,),
                    **replay_kw)
            result = _replay(tracer, "characterization.observed_replay",
                             results, call)
            outcomes[f"{app}/classify/{policy}"] = {
                "result": _sim(result),
                "breakdown": dataclasses.asdict(classifier.breakdown),
            }
        for base in ORACLE_BASES:
            with tracer.span("oracle.study"):
                study = run_oracle_study(stream, g8, base=base, seed=seed,
                                         **replay_kw)
            results.extend((study.base, study.oracle))
            outcomes[f"{app}/oracle/{base}"] = {
                "base": _sim(study.base),
                "oracle": _sim(study.oracle),
                "shared_fill_fraction": study.shared_fill_fraction,
                "protected_fills": study.protected_fills,
                "exemptions": study.exemptions,
                "horizon_factor": study.horizon_factor,
            }
        for name in PREDICTORS:
            harness = PredictorHarness(make_predictor(name))
            result = _replay(
                tracer, "predictors.harness", results,
                lambda: run_policy_on_stream(
                    stream, g4, "lru", seed=seed, observers=(harness,),
                    **replay_kw),
            )
            outcomes[f"{app}/harness/{name}"] = {
                "result": _sim(result),
                "matrix": dataclasses.asdict(harness.matrix),
            }
        for name in PREDICTORS:
            predictor = make_predictor(name)
            harness = PredictorHarness(predictor)
            wrapper = SharingAwareWrapper(
                make_policy("lru"), predictor_hint_source(predictor))
            result = _replay(
                tracer, "predictors.harness", results,
                lambda: run_policy_on_stream(
                    stream, g8, wrapper, observers=(harness,), **replay_kw),
            )
            outcomes[f"{app}/driven/{name}"] = {
                "result": _sim(result),
                "matrix": dataclasses.asdict(harness.matrix),
            }
    return outcomes, results


def warm_policy_sweep(config: Config, seed: int, cache_dir, tracer):
    """Load the recorded streams, then run :func:`policy_sweep`."""
    return _warm(policy_sweep, config, seed, cache_dir, tracer)


def warm_sharing_study(config: Config, seed: int, cache_dir, tracer):
    """Load the recorded streams, then run :func:`sharing_study`."""
    return _warm(sharing_study, config, seed, cache_dir, tracer)


def _warm(analysis, config, seed, cache_dir, tracer):
    __, loaded = load_artifacts(config, seed, cache_dir, tracer)
    outcomes, results = analysis(
        {app: loaded[app].stream for app in config.apps}, seed, tracer)
    for app in config.apps:
        outcomes[f"{app}/load"] = loaded[app]
    return outcomes, results


WORKLOADS = {
    "cold_record": cold_record,
    "warm_policy_sweep": warm_policy_sweep,
    "warm_sharing_study": warm_sharing_study,
}
WARM = {"warm_policy_sweep": policy_sweep, "warm_sharing_study": sharing_study}


def reference(workload: str, config: Config, seed: int, recorded) -> Dict:
    """Expected outcomes of ``workload``, from the object model replaying
    the streams as recorded in memory (no disk loader involved)."""
    if workload == "cold_record":
        return cold_record_reference(config, recorded)
    outcomes, __ = WARM[workload](
        {app: recorded[app].stream for app in config.apps}, seed, NO_TRACE,
        model=True)
    for app in config.apps:
        outcomes[f"{app}/load"] = artifacts_outcome(recorded[app])
    return outcomes


def finalize(outcomes: Dict) -> Dict:
    """Turn artifact outcome values into their checked statistics."""
    return {
        key: (artifacts_outcome(value)
              if isinstance(value, WorkloadArtifacts) else value)
        for key, value in outcomes.items()
    }
