"""Experiment orchestration with per-workload caching.

Recording a workload's LLC stream (trace generation + the full hierarchy
pass) is the expensive step; every replay-based analysis after it is cheap.
:class:`ExperimentContext` caches those artifacts at two levels:

* **in memory**, per workload (optionally LRU-bounded so ``--full-size``
  sweeps don't hold every stream at once), and
* **on disk**, in a persistent machine-wide cache (default
  ``~/.cache/repro-sim``, overridable via the ``REPRO_SIM_CACHE_DIR``
  environment variable or an explicit ``cache_dir``), keyed by (workload,
  machine digest, producer digest, seed, target accesses, stream-format
  version) so the hierarchy recording pass is paid once per machine — not
  once per process — and an edit to the code that records streams can
  never replay a stale one.
  Loads are integrity-checked (stream checksum + stats cross-check); a
  corrupt entry is dropped and re-recorded rather than trusted.

:func:`shared_context` additionally memoises whole contexts process-wide,
letting independent pytest-benchmark files share them.
"""

import dataclasses
import functools
import hashlib
import json
import os
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cache.hierarchy import HierarchyStats
from repro.cache.stream import LlcStream
from repro.cache.stream_io import (
    STREAM_FORMAT_VERSION,
    read_llc_stream,
    write_llc_stream,
)
from repro.common.config import MachineConfig, profile
from repro.common.errors import ConfigError, TraceError
from repro.common.rng import derive_seed
from repro.sim import telemetry
from repro.sim.multipass import record_llc_stream, run_opt, run_policy_on_stream
from repro.sim.results import PolicyComparison
from repro.trace.stats import TraceStatistics, compute_trace_statistics
from repro.workloads.registry import get_workload, workload_names

DEFAULT_TARGET_ACCESSES = 300_000
DEFAULT_SEED = 42

CACHE_DIR_ENV = "REPRO_SIM_CACHE_DIR"
"""Environment variable overriding the default persistent cache location."""

AUTO_CACHE_DIR = "auto"
"""Sentinel ``cache_dir`` value selecting the machine-wide default."""


def default_cache_dir() -> Path:
    """The persistent artifact cache directory for this machine."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sim"


def resolve_cache_dir(
    cache_dir: Optional[Union[str, Path]]
) -> Optional[Path]:
    """Map a user-facing cache spec to a concrete directory (or None).

    ``None`` disables the disk cache, :data:`AUTO_CACHE_DIR` selects
    :func:`default_cache_dir`, anything else is taken as a path.
    """
    if cache_dir is None:
        return None
    if cache_dir == AUTO_CACHE_DIR:
        return default_cache_dir()
    return Path(cache_dir).expanduser()


def machine_digest(machine: MachineConfig) -> str:
    """Short stable digest of a full machine configuration.

    Part of every disk-cache key: two machines that happen to share a name
    (ad-hoc test configs, tweaked geometries) must never collide on
    recorded streams.
    """
    payload = repr(dataclasses.astuple(machine)).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


PRODUCER_PACKAGES = ("workloads", "trace", "cache", "coherence", "common")
"""Subpackages of :mod:`repro` whose code produces a recorded stream."""


@functools.lru_cache(maxsize=None)
def producer_digest() -> str:
    """Short digest of the source code that produces cached artifacts.

    SHA-256 over the relative path and contents of every ``.py`` file
    under :data:`PRODUCER_PACKAGES` (trace generators, trace statistics,
    the hierarchy and its recorder, coherence, shared config), in sorted
    path order. Contents only — no mtimes or absolute paths — so two
    checkouts of the same code agree. Part of every disk-cache key: an
    edit to any of those files makes older entries unreachable. Computed
    once per process.
    """
    root = Path(__file__).resolve().parent.parent
    files = sorted(
        path.relative_to(root).as_posix()
        for package in PRODUCER_PACKAGES
        for path in (root / package).rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative in files:
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update((root / relative).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:12]


@dataclass
class ArtifactCacheStats:
    """Counters for the two-level artifact cache of one context."""

    memory_hits: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    recordings: int = 0
    corrupt_entries: int = 0
    memory_evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (CLI/report friendly)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class WorkloadArtifacts:
    """Cached products of one workload's expensive simulation pass."""

    workload: str
    trace_stats: TraceStatistics
    hierarchy_stats: HierarchyStats
    stream: LlcStream


class ExperimentContext:
    """Caches streams and runs replay analyses for one machine profile.

    Args:
        machine: CMP configuration.
        target_accesses: per-workload trace budget.
        seed: base seed; every derived stream/policy seed hangs off it.
        workloads: workload subset (default: every registered workload).
        cache_dir: persistent cache location — ``None`` (memory only),
            :data:`AUTO_CACHE_DIR`, or a path.
        max_cached: LRU bound on in-memory :class:`WorkloadArtifacts`
            (``None`` = unbounded). Long full-size sweeps set this so the
            context doesn't hold every stream in RAM at once.
        fastpath: three-state gate for the exact stack-distance LRU fast
            path in this context's replay analyses (None = auto: enabled
            unless ``REPRO_SIM_NO_FASTPATH`` is set). Results are
            bit-identical either way.
    """

    def __init__(
        self,
        machine: MachineConfig,
        target_accesses: int = DEFAULT_TARGET_ACCESSES,
        seed: int = DEFAULT_SEED,
        workloads: Optional[Iterable[str]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_cached: Optional[int] = None,
        fastpath: Optional[bool] = None,
    ):
        if max_cached is not None and max_cached < 1:
            raise ConfigError(f"max_cached must be >= 1, got {max_cached}")
        if target_accesses < 1:
            raise ConfigError(
                f"target_accesses must be >= 1, got {target_accesses}"
            )
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.machine = machine
        self.geometry = machine.llc
        self.target_accesses = target_accesses
        self.seed = seed
        self.workload_list: List[str] = (
            list(workloads) if workloads is not None else workload_names()
        )
        self._artifacts: "OrderedDict[str, WorkloadArtifacts]" = OrderedDict()
        self.cache_dir = resolve_cache_dir(cache_dir)
        if (
            self.cache_dir is not None
            and self.cache_dir.exists()
            and not self.cache_dir.is_dir()
        ):
            raise ConfigError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            )
        self.max_cached = max_cached
        self.fastpath = fastpath
        self.cache_stats = ArtifactCacheStats()

    # ------------------------------------------------------------------
    # Disk cache
    # ------------------------------------------------------------------

    def _cache_paths(self, name: str) -> Tuple[Path, Path]:
        stem = (
            f"{name}-{self.machine.name}-{machine_digest(self.machine)}"
            f"-p{producer_digest()}-n{self.target_accesses}-s{self.seed}"
            f"-fv{STREAM_FORMAT_VERSION}"
        )
        return (
            self.cache_dir / f"{stem}.rllc.gz",
            self.cache_dir / f"{stem}.json",
        )

    def _load_cached(self, name: str) -> Optional[WorkloadArtifacts]:
        """Load one workload's artifacts from the disk cache, if present.

        Integrity policy: any malformed entry (bad checksum, truncated
        file, unparsable stats, or a stream/stats length mismatch) counts
        as corrupt, is removed, and triggers a fresh recording — a broken
        cache must never change results.
        """
        if self.cache_dir is None:
            return None
        stream_path, stats_path = self._cache_paths(name)
        if not (stream_path.exists() and stats_path.exists()):
            return None
        try:
            stats = json.loads(stats_path.read_text())
            trace_fields = dict(stats["trace"])
            trace_fields["per_thread_accesses"] = tuple(
                trace_fields["per_thread_accesses"]
            )
            trace_stats = TraceStatistics(**trace_fields)
            hierarchy_stats = HierarchyStats(**stats["hierarchy"])
            stream = read_llc_stream(stream_path)
            if len(stream) != hierarchy_stats.llc_accesses:
                raise TraceError(
                    f"{stream_path}: stream length {len(stream)} disagrees "
                    f"with cached stats ({hierarchy_stats.llc_accesses})"
                )
        except (TraceError, ValueError, KeyError, TypeError, OSError,
                EOFError):  # EOFError: truncated gzip member
            self.cache_stats.corrupt_entries += 1
            for path in (stream_path, stats_path):
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        self.cache_stats.disk_hits += 1
        return WorkloadArtifacts(
            workload=name,
            trace_stats=trace_stats,
            hierarchy_stats=hierarchy_stats,
            stream=stream,
        )

    def _store_cached(self, artifacts: WorkloadArtifacts) -> None:
        """Persist one workload's artifacts into the disk cache.

        Writes go to per-process temp names and land via atomic renames, so
        concurrent worker processes recording the same workload can never
        leave a half-written entry behind (last complete writer wins, and
        every writer produces identical bits anyway). The *stream* lands
        before the *stats*: ``_load_cached`` requires both files, so a
        crash between the two renames leaves a stream without stats (an
        ignorable orphan) rather than stats advertising a stream that
        never landed.
        """
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        stream_path, stats_path = self._cache_paths(artifacts.workload)
        # Prefix (not suffix) the temp marker so the .gz suffix — which
        # selects compression in write_llc_stream — is preserved.
        prefix = f"tmp{os.getpid()}-"
        stream_tmp = stream_path.with_name(prefix + stream_path.name)
        stats_tmp = stats_path.with_name(prefix + stats_path.name)
        write_llc_stream(artifacts.stream, stream_tmp)
        stats_tmp.write_text(json.dumps({
            "trace": dataclasses.asdict(artifacts.trace_stats),
            "hierarchy": dataclasses.asdict(artifacts.hierarchy_stats),
        }))
        os.replace(stream_tmp, stream_path)
        os.replace(stats_tmp, stats_path)
        self.cache_stats.disk_stores += 1

    # ------------------------------------------------------------------
    # In-memory cache
    # ------------------------------------------------------------------

    def _remember(self, name: str, artifacts: WorkloadArtifacts) -> None:
        self._artifacts[name] = artifacts
        self._artifacts.move_to_end(name)
        if self.max_cached is not None:
            while len(self._artifacts) > self.max_cached:
                self._artifacts.popitem(last=False)
                self.cache_stats.memory_evictions += 1

    def clear(self) -> None:
        """Drop every in-memory artifact (the disk cache is untouched).

        Long sweeps call this between capacity points to bound RSS.
        """
        self._artifacts.clear()

    def cached_workloads(self) -> List[str]:
        """Workloads currently held in memory, LRU-oldest first."""
        return list(self._artifacts)

    # ------------------------------------------------------------------
    # Artifact production
    # ------------------------------------------------------------------

    def record_artifacts(self, name: str) -> WorkloadArtifacts:
        """Generate + record one workload's artifacts (no caches consulted).

        The deterministic ground truth both cache levels are measured
        against: same machine/seed/budget always yields the same bits.
        """
        model = get_workload(name)
        with telemetry.span("trace_gen", workload=name) as info:
            trace = model.generate(
                num_threads=self.machine.num_cores,
                scale=self.machine.scale,
                target_accesses=self.target_accesses,
                seed=derive_seed(self.seed, "trace", name),
            )
            info["accesses"] = len(trace)
        trace_stats = compute_trace_statistics(trace)
        with telemetry.span("hierarchy_record", workload=name) as info:
            stream, hierarchy_stats = record_llc_stream(trace, self.machine)
            info["accesses"] = hierarchy_stats.accesses
            info["llc_accesses"] = hierarchy_stats.llc_accesses
            info["llc_misses"] = hierarchy_stats.llc_misses
        self.cache_stats.recordings += 1
        return WorkloadArtifacts(
            workload=name,
            trace_stats=trace_stats,
            hierarchy_stats=hierarchy_stats,
            stream=stream,
        )

    def artifacts(self, name: str) -> WorkloadArtifacts:
        """Trace stats + hierarchy stats + LLC stream for one workload."""
        if name not in self.workload_list:
            raise ConfigError(
                f"workload {name!r} not in this context ({self.workload_list})"
            )
        cached = self._artifacts.get(name)
        if cached is not None:
            self.cache_stats.memory_hits += 1
            self._artifacts.move_to_end(name)
            telemetry.emit("artifact", workload=name, tier="memory")
            return cached
        cached = self._load_cached(name)
        if cached is not None:
            self._remember(name, cached)
            telemetry.emit("artifact", workload=name, tier="disk")
            return cached
        artifacts = self.record_artifacts(name)
        self._remember(name, artifacts)
        self._store_cached(artifacts)
        telemetry.emit("artifact", workload=name, tier="recorded")
        return artifacts

    def all_artifacts(self) -> Dict[str, WorkloadArtifacts]:
        """Artifacts for every workload of the context."""
        return {name: self.artifacts(name) for name in self.workload_list}

    def prefetch(self, names: Optional[Iterable[str]] = None, jobs: int = 1) -> None:
        """Record (or load) artifacts for many workloads, optionally in
        parallel worker processes. After this, replay analyses are pure
        cache hits."""
        names = list(names) if names is not None else list(self.workload_list)
        if jobs <= 1:
            for name in names:
                self.artifacts(name)
            return
        from repro.sim.parallel import prefetch_artifacts
        from repro.sim.results import is_failure

        for record in prefetch_artifacts(self, names, jobs=jobs):
            if is_failure(record):
                continue  # graceful-mode cells; the failure is in the manifest
            name, artifacts = record
            if name not in self._artifacts:
                self._remember(name, artifacts)

    # ------------------------------------------------------------------
    # Replay analyses
    # ------------------------------------------------------------------

    def characterize(self, name: str, policy: str = "lru"):
        """Sharing characterization of one workload under ``policy``.

        Returns a :class:`repro.characterization.CharacterizationReport`
        (imported lazily — characterization sits above sim in the layering
        and importing it eagerly here would close an import cycle).
        """
        from repro.characterization.report import characterize_stream

        artifacts = self.artifacts(name)
        return characterize_stream(
            artifacts.stream, self.geometry, policy_name=policy,
            seed=self.seed, fastpath=self.fastpath,
        )

    def compare_policies(
        self, name: str, policies: Iterable[str], include_opt: bool = False
    ) -> PolicyComparison:
        """Replay one workload's stream under several policies."""
        artifacts = self.artifacts(name)
        results = {}
        for policy in policies:
            results[policy] = run_policy_on_stream(
                artifacts.stream, self.geometry, policy, seed=self.seed,
                fastpath=self.fastpath,
            )
        if include_opt:
            results["opt"] = run_opt(
                artifacts.stream, self.geometry, fastpath=self.fastpath
            )
        return PolicyComparison(stream_name=artifacts.stream.name, results=results)

    def sampled_replay(
        self, name: str, policy: str, sample_ratio: int = 16
    ):
        """Set-sampled replay of one workload under ``policy``.

        The sampled-set slice (which offset of every ``sample_ratio``-th
        set to simulate) derives from this context's seed and the
        workload name — never from module-level RNG state — so a sampled
        campaign is exactly reproducible from ``(seed, workload)`` alone.
        Returns a :class:`repro.sim.sampling.SampledResult`.
        """
        from repro.policies.registry import make_policy
        from repro.sim.sampling import SampledLlcSimulator

        artifacts = self.artifacts(name)
        simulator = SampledLlcSimulator.from_seed(
            self.geometry,
            make_policy(policy, seed=derive_seed(self.seed, "replay", policy)),
            self.seed, sample_ratio, name,
        )
        return simulator.run(artifacts.stream)

    def oracle_study(
        self, name: str, base: str = "lru", mode: str = "both",
        release: str = "budget", horizon_turnovers: float = 1.75,
    ):
        """Oracle-vs-base study for one workload.

        Returns a :class:`repro.oracle.OracleStudyResult` (imported lazily;
        the oracle package sits above sim in the layering).
        """
        from repro.oracle.runner import run_oracle_study

        artifacts = self.artifacts(name)
        with telemetry.span("oracle", workload=name, base=base,
                            mode=mode) as info:
            study = run_oracle_study(
                artifacts.stream, self.geometry, base=base, mode=mode,
                release=release, horizon_turnovers=horizon_turnovers,
                seed=self.seed, fastpath=self.fastpath,
            )
            info["accesses"] = study.base.accesses
            info["base_misses"] = study.base.misses
            info["oracle_misses"] = study.oracle.misses
        return study


_SHARED: Dict[tuple, ExperimentContext] = {}


def shared_context(
    profile_name: str = "scaled-4mb",
    target_accesses: int = DEFAULT_TARGET_ACCESSES,
    seed: int = DEFAULT_SEED,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ExperimentContext:
    """Process-wide memoised context (benches share streams through this)."""
    resolved = resolve_cache_dir(cache_dir)
    key = (profile_name, target_accesses, seed, resolved)
    context = _SHARED.get(key)
    if context is None:
        context = ExperimentContext(
            profile(profile_name), target_accesses=target_accesses, seed=seed,
            cache_dir=resolved,
        )
        _SHARED[key] = context
    return context


# ----------------------------------------------------------------------
# Cache maintenance (backs the ``repro-sim cache`` subcommand)
# ----------------------------------------------------------------------

_CACHE_PATTERNS = ("*.rllc.gz", "*.rllc", "*.json")

_TMP_MARKER = re.compile(r"^tmp\d+-")
"""Per-process temp prefix used by :meth:`ExperimentContext._store_cached`.

A worker killed between writing its temp files and the atomic renames
leaves ``tmp{pid}-*`` orphans behind; the maintenance helpers below report
and sweep them so a crashed sweep can't leak disk forever.
"""


def _scan_cache(directory: Path):
    """Split recognised cache files into (published, orphan-tmp) lists."""
    published, orphans = [], []
    for pattern in _CACHE_PATTERNS:
        for path in sorted(directory.glob(pattern)):
            entry = (path, path.stat().st_size)
            if _TMP_MARKER.match(path.name):
                orphans.append(entry)
            else:
                published.append(entry)
    return published, orphans


def cache_entries(cache_dir: Optional[Union[str, Path]] = AUTO_CACHE_DIR):
    """The (path, size) pairs of published artifact files in the cache.

    Orphaned ``tmp{pid}-*`` files from killed writers are excluded — see
    :func:`orphan_tmp_entries`.
    """
    directory = resolve_cache_dir(cache_dir)
    if directory is None or not directory.is_dir():
        return []
    published, __ = _scan_cache(directory)
    return published


def orphan_tmp_entries(cache_dir: Optional[Union[str, Path]] = AUTO_CACHE_DIR):
    """The (path, size) pairs of orphaned per-process temp files."""
    directory = resolve_cache_dir(cache_dir)
    if directory is None or not directory.is_dir():
        return []
    __, orphans = _scan_cache(directory)
    return orphans


def clear_cache(cache_dir: Optional[Union[str, Path]] = AUTO_CACHE_DIR) -> int:
    """Delete recognised artifact files from the cache; returns the count.

    Sweeps orphaned ``tmp{pid}-*`` files along with the published entries.
    Only files matching the artifact naming patterns are touched — the
    directory itself, and anything else in it, is left alone.
    """
    removed = 0
    for path, __ in cache_entries(cache_dir) + orphan_tmp_entries(cache_dir):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
