"""Measurement loop, output checks, metrics and provenance.

One run measures one workload for one seed:

1. *Set-up* runs in one child interpreter, which this process waits for,
   so the parent's peak RSS covers only the measured work. The child records the app set
   :data:`SETUP_REPEATS` times (warm workloads: each time into a fresh
   private cache dir; ``cold_record``: in memory) and reports the median as
   ``setup_s``. Unless the
   committed golden values apply (seed 42 at the default size), it then
   replays the in-memory streams on the object model to get the expected
   outcomes.
2. *Measurement* runs whole iterations of the workload in this process until
   ``seconds`` have passed. With tracing on, untraced and traced iterations
   alternate; end-to-end figures come from untraced ones only.
3. *Checks* compare every iteration's outcomes with the expected ones after
   its clock stops. A mismatch, a missing outcome or an operation that
   raised counts as a failed check; nothing stops the run.
"""

import contextlib
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import workloads
from perfbench.spans import NO_TRACE, Tracer, wrapped_layers
from perfbench.workloads import DEFAULT_CONFIG, Config

log = logging.getLogger("perfbench")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden_seed42.json"
GOLDEN_SEED = 42
SETUP_REPEATS = 3
TIERS = ("stack", "set", "dueling", "grid", "scalar")
SPAN_METRICS = {
    "workloads.generate_s": "workloads.generate",
    "trace.stats_s": "trace.stats",
    "cache.hierarchy_record_s": "cache.hierarchy_record",
    "cache.stream_store_s": "cache.stream_store",
    "cache.stream_load_s": "cache.stream_load",
    "cache.artifacts_s": "cache.artifacts",
    "policies.opt.next_use_s": "policies.opt.next_use",
    "characterization.observed_replay_s": "characterization.observed_replay",
    "oracle.annotate_s": "oracle.annotate",
    "oracle.study_s": "oracle.study",
    "predictors.harness_s": "predictors.harness",
}


# ----------------------------------------------------------------------
# Set-up (child process)
# ----------------------------------------------------------------------

def setup(workload: str, config: Config, seed: int, work_dir: str,
          with_reference: bool) -> Dict:
    """Record the app set :data:`SETUP_REPEATS` times; keep the first.

    Warm workloads record into a fresh cache dir each time (the first one
    becomes the warm cache). ``cold_record`` records in memory: its set-up
    is only the reference recording.
    """
    times, kept_dir, recorded = [], None, None
    for __ in range(SETUP_REPEATS):
        cache_dir = None
        if workload != "cold_record":
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        start = perf_counter()
        __, artifacts = workloads.load_artifacts(config, seed, cache_dir,
                                                 NO_TRACE)
        times.append(perf_counter() - start)
        if recorded is None:
            kept_dir, recorded = cache_dir, artifacts
        elif cache_dir is not None:
            shutil.rmtree(cache_dir)
    expected = None
    if with_reference:
        expected = workloads.reference(workload, config, seed, recorded)
    return {"setup_s": times, "cache_dir": kept_dir,
            "expected": normalize(expected)}


def run_setup(workload, config, seed, work_dir, with_reference) -> Dict:
    """Run :func:`setup` in a child interpreter and wait for it to end.

    A plain child, not a multiprocessing pool: a pool leaves its resource
    tracker behind, to be reaped only after this process exits.
    ``subprocess.run`` kills and reaps the child on any way out of it.
    """
    request = {"workload": workload, "accesses": config.accesses,
               "apps": list(config.apps), "seed": seed, "work_dir": work_dir,
               "with_reference": with_reference}
    out_path = Path(work_dir) / "setup.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]))
    subprocess.run(
        [sys.executable, "-m", "perfbench.bench", json.dumps(request),
         str(out_path)],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=2, check=True,
    )
    done = json.loads(out_path.read_text())
    out_path.unlink()
    return done


def setup_main(argv) -> int:
    """Child side of :func:`run_setup`: ``REQUEST_JSON OUT_PATH``."""
    request, out_path = json.loads(argv[0]), argv[1]
    config = Config(accesses=request["accesses"],
                    apps=tuple(request["apps"]))
    done = setup(request["workload"], config, request["seed"],
                 request["work_dir"], request["with_reference"])
    Path(out_path).write_text(json.dumps(done))
    return 0


def normalize(outcomes):
    """The JSON view of outcomes, as the golden file stores them."""
    return json.loads(json.dumps(outcomes, sort_keys=True))


def golden(workload: str, config: Config, seed: int) -> Optional[Dict]:
    """Committed expected outcomes, when they apply to this run."""
    if seed != GOLDEN_SEED or config != DEFAULT_CONFIG:
        return None
    return json.loads(GOLDEN_PATH.read_text())["workloads"][workload]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def compare(expected: Dict, actual: Dict) -> int:
    """Number of failed checks; each one is logged."""
    failed = 0
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            log.error("check %s: no outcome", key)
        elif key not in expected:
            log.error("check %s: unexpected outcome", key)
        elif actual[key] != expected[key]:
            log.error("check %s: expected %s, got %s", key,
                      json.dumps(expected[key], sort_keys=True),
                      json.dumps(actual[key], sort_keys=True))
        else:
            continue
        failed += 1
    return failed


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir())


def iteration(workload, config, seed, warm_dir, work_dir, expected, traced):
    """One measured iteration; returns its record."""
    tracer = Tracer() if traced else NO_TRACE
    cache_dir = warm_dir
    if workload == "cold_record":
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=work_dir)
    layers = wrapped_layers(tracer) if traced else contextlib.nullcontext()
    outcomes, results = {}, []
    gc.collect()  # the previous iteration's garbage is not this one's cost
    with layers:
        start = perf_counter()
        try:
            outcomes, results = workloads.WORKLOADS[workload](
                config, seed, cache_dir, tracer)
        except Exception:  # counted as failed checks; the run goes on
            log.error("workload raised:\n%s", traceback.format_exc())
        wall = perf_counter() - start
    # Artifacts as first produced in this iteration: recorded (cold) or
    # loaded (warm); the cold read-back is not counted twice.
    produced = [v for k, v in outcomes.items()
                if k.endswith(("/record", "/load"))]
    record = {
        "wall": wall,
        "traced": traced,
        "tracer": tracer,
        "results": results,
        "llc_accesses": sum(len(a.stream) for a in produced),
        "stream_bytes": _dir_bytes(cache_dir),
    }
    if workload == "cold_record":
        record["accesses"] = sum(a.hierarchy_stats.accesses for a in produced)
        shutil.rmtree(cache_dir)
    else:
        record["accesses"] = sum(r.accesses for r in results)
    actual = normalize(workloads.finalize(outcomes))
    record["attempted"] = len(set(expected) | set(actual))
    record["failed"] = compare(expected, actual)
    return record


def measure(workload, config, seed, seconds, trace, warm_dir, work_dir,
            expected) -> List[Dict]:
    """Iterate until ``seconds`` have passed (with tracing: alternate
    untraced and traced iterations, at least one of each)."""
    records = []
    start = perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(iteration(workload, config, seed, warm_dir, work_dir,
                                 expected, traced))
        log.info("iteration %d (%s): %.3f s", len(records),
                 "traced" if traced else "untraced", records[-1]["wall"])
        if perf_counter() - start >= seconds and (
                not trace or len(records) >= 2):
            return records


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, setup_times) -> Dict:
    plain = [r for r in records if not r["traced"]]
    return {
        "wall_s": _metric(statistics.median(r["wall"] for r in plain), "s"),
        "accesses_per_s": _metric(
            statistics.median(r["accesses"] / r["wall"] for r in plain),
            "1/s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_values(record) -> Dict[str, float]:
    """Per-layer figures of one traced iteration."""
    tracer = record["tracer"]
    by_name = tracer.self_time_by_name()
    values = {metric: by_name.get(name, 0.0)
              for metric, name in SPAN_METRICS.items()}
    by_tier = dict.fromkeys(TIERS, 0.0)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.attrs.get("tier") in by_tier:
            by_tier[span.attrs["tier"]] += own
    for tier, seconds in by_tier.items():
        values[f"sim.replay.{tier}_s"] = seconds
    record_s = values["cache.hierarchy_record_s"]
    values["cache.hierarchy_accesses_per_s"] = (
        record["accesses"] / record_s if record_s else 0.0)
    values["cache.llc_accesses"] = record["llc_accesses"]
    values["cache.stream_bytes"] = record["stream_bytes"]
    replayed = sum(r.accesses for r in record["results"])
    on_model = sum(r.accesses for r in record["results"]
                   if r.backend == "model")
    values["sim.replay.model_share"] = on_model / replayed if replayed else 0.0
    covered = tracer.covered()
    values["unattributed_s"] = record["wall"] - covered
    values["trace_coverage"] = covered / record["wall"]
    return values


UNITS = {"cache.hierarchy_accesses_per_s": "1/s",
         "cache.llc_accesses": "count", "cache.stream_bytes": "bytes",
         "sim.replay.model_share": "ratio", "trace_coverage": "ratio"}


def per_layer(records) -> Dict:
    traced = [layer_values(r) for r in records if r["traced"]]
    metrics = {
        name: _metric(statistics.median(v[name] for v in traced),
                      UNITS.get(name, "s"))
        for name in traced[0]
    }
    walls = {flag: statistics.median(r["wall"] for r in records
                                     if r["traced"] == flag)
             for flag in (False, True)}
    metrics["tracing_overhead_s"] = _metric(walls[True] - walls[False], "s")
    return metrics


def attribution_table(workload, record) -> str:
    """Self time per span name of one traced iteration, plus the
    ``unattributed`` remainder of its wall."""
    wall = record["wall"]
    rows = sorted(record["tracer"].self_time_by_name().items(),
                  key=lambda item: -item[1])
    rows.append(("unattributed", wall - record["tracer"].covered()))
    lines = [f"attribution {workload} (traced wall {wall:.3f} s)"]
    lines += [f"  {name:<36} {seconds:9.4f} s {seconds / wall:7.2%}"
              for name, seconds in rows]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the program sources (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def provenance(workload, config, seed, records, expected_from) -> Dict:
    counts: Dict[str, int] = {}
    for result in records[-1]["results"]:
        key = f"{result.tier}/{result.backend}"
        counts[key] = counts.get(key, 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "numba": _version("numba"),
        "accesses_per_app": config.accesses,
        "apps": list(config.apps),
        "iterations": len(records),
        "expected_from": expected_from,
        "tier_backend_counts": dict(sorted(counts.items())),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        config: Config = DEFAULT_CONFIG,
        work_root: Optional[Path] = None) -> Dict:
    """Set up, measure and check one workload; returns the result object
    (with a ``provenance`` entry the caller prints separately)."""
    work_root = Path(work_root or Path.cwd() / ".perfbench_work")
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    saved_env = dict(os.environ)
    # No REPRO_SIM_* toggle reaches the program, and every cache it might
    # consult lives in this run's own dir.
    for name in [n for n in os.environ if n.startswith("REPRO_SIM_")]:
        del os.environ[name]
    os.environ["REPRO_SIM_CACHE_DIR"] = work_dir
    try:
        expected = golden(workload, config, seed)
        expected_from = "golden" if expected is not None else "model"
        done = run_setup(workload, config, seed, work_dir, expected is None)
        if expected is None:
            expected = done["expected"]
        log.info("setup: %s s (expected outcomes: %s)",
                 ", ".join(f"{t:.3f}" for t in done["setup_s"]),
                 expected_from)
        records = measure(workload, config, seed, seconds, trace,
                          done["cache_dir"], work_dir, expected)
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    log.info("checks: %d attempted, %d failed, error_rate %.6f",
             attempted, failed, failed / attempted)
    if trace:
        for record in records:
            if record["traced"]:
                log.info("%s", attribution_table(workload, record))
        metrics = per_layer(records)
    else:
        metrics = end_to_end(records, done["setup_s"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(workload, config, seed, records,
                                 expected_from),
    }


if __name__ == "__main__":
    sys.exit(setup_main(sys.argv[1:]))
