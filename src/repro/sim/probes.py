"""Microarchitectural probe layer: pluggable replay/hierarchy introspection.

Probes are **observability only**: they watch a simulation and accumulate
JSON-able summaries, and must never mutate cache or policy state. The layer
is built around three cost rules:

1. **Zero cost when disabled.** A replay with no probes attached executes
   the exact same bytecode as before this module existed: per-access probe
   dispatch is installed by *shadowing* :meth:`SharedLlc.access` with an
   instance attribute (:meth:`SharedLlc.attach_probe_bus`), so the
   disabled path carries no extra branch, lookup, or indirection. The CI
   benchmark-smoke job enforces a <2% bound on the golden warm-replay cell.
2. **Fastpath-compatible or scalar-only — provably.** Every probe declares
   ``fastpath_safe``. Safe probes produce **bit-identical** summaries
   whether the replay ran through the scalar :class:`SharedLlc` model or
   one of the exact fast tiers — the stack-distance LRU fast path
   (``"stack"``) or the set-partitioned kernels (``"set"``/``"dueling"``)
   — either because they consume only :class:`ResidencyObserver`
   callbacks, which every fast tier replays exactly, or because they
   reconstruct their state from a canonical-LRU
   :class:`LruReplayReconstruction` walk of the stream (a
   policy-independent model, so it serves every tier). Unsafe probes
   (policy-internal ones like PSEL/SHCT/RRPV samplers) force the scalar
   tier for the whole replay. ``tests/sim/test_probes.py`` holds the
   differential proof.
3. **Picklable summaries.** :class:`ProbeReport` crosses process
   boundaries (the parallel engine's ``inspect`` cells) and lands on disk
   under telemetry run directories, so everything in it is plain data.

Probe registry (``repro-sim inspect --probes ...``):

========== ===================================================== =========
name       what it measures                                      fastpath
========== ===================================================== =========
sets       per-set miss/hit/eviction/live-occupancy histograms   safe
evictions  eviction-reason breakdown (capacity vs forced flush)  safe
sharing    shared/private residency + hit breakdown (paper F1-3) safe
reuse      LRU stack-distance histogram by sharing class         safe
psel       DIP/DRRIP set-dueling PSEL time-series                scalar
shct       SHiP signature-table counter occupancy time-series    scalar
rrpv       RRPV distribution of victim sets at eviction          scalar
coherence  coherence events (upgrades/invalidations/writebacks)  hierarchy
========== ===================================================== =========

``coherence`` is special: replay has no coherence traffic (the recorded
stream already folded it in), so the probe attaches to a full
:class:`CmpHierarchy` pass instead (``needs_hierarchy``), driven by
:func:`inspect_workload`.
"""

import dataclasses
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.cache.hierarchy import CmpHierarchy
from repro.cache.llc import NO_BLOCK, ResidencyObserver
from repro.cache.stream import LlcStream
from repro.characterization.hits import SharingClassifier, popcount
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.common.stats import RunningStats, ratio
from repro.policies.registry import make_policy
from repro.sim import telemetry
from repro.sim.engine import LlcOnlySimulator
from repro.policies.base import REPLAY_SCALAR, REPLAY_STACK
from repro.sim.fastpath import (
    LruReplayReconstruction,
    _replay_observers,
    core_masks_fit,
    fastpath_enabled,
    reconstruct_lru_replay,
)
from repro.sim.results import LlcSimResult
from repro.sim.setpath import reconstruct_setpath_replay, setpath_tier_of

PROBE_FORMAT_VERSION = 1
"""Bump when the on-disk shape of :meth:`ProbeReport.as_dict` changes."""


class Probe:
    """Base class of all probes.

    Class attributes declare what a probe consumes; the runner uses them to
    pick the replay tier and wire the probe up:

    * ``fastpath_safe`` — summaries are bit-identical between the scalar
      model and the LRU fast path. Any unsafe probe in a replay forces the
      scalar tier (:func:`run_probed_replay` never silently degrades a
      probe).
    * ``wants_access_events`` — receives :meth:`on_access` per LLC access
      via the :class:`ProbeBus`; a *safe* access probe must also implement
      :meth:`consume_fastpath`.
    * ``wants_policy`` — :meth:`bind` requires a bound policy instance and
      may reject incompatible ones with :class:`ConfigError`.
    * ``needs_hierarchy`` — cannot run on a replay at all; it attaches to a
      full hierarchy pass via :meth:`bind_hierarchy`/``on_coherence``.
    """

    name = ""
    fastpath_safe = False
    wants_access_events = False
    wants_policy = False
    needs_hierarchy = False

    def bind(self, geometry: CacheGeometry, policy) -> None:
        """Attach to one replay. ``policy`` is ``None`` on the fast path."""

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        """Per-access callback (after the cache fully processed it)."""

    def consume_fastpath(
        self, walk: LruReplayReconstruction, stream: LlcStream,
        geometry: CacheGeometry,
    ) -> None:
        """Rebuild this probe's state from a fast-path walk.

        Only called for ``fastpath_safe`` access probes; must leave the
        probe in exactly the state the scalar :meth:`on_access` sequence
        would have.
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Post-replay pass (histogram folding etc.); default no-op."""

    def summary(self) -> Dict:
        """JSON-able summary of everything the probe observed."""
        raise NotImplementedError


class ProbeBus:
    """Fans one instrumentation event out to every interested probe.

    One bus serves both event families: per-access events from a probed
    :class:`SharedLlc` and coherence events from a probed
    :class:`CmpHierarchy`.
    """

    __slots__ = ("_access_probes", "_coherence_probes")

    def __init__(self, probes: Iterable[Probe]):
        probes = tuple(probes)
        self._access_probes = tuple(
            p for p in probes if p.wants_access_events
        )
        self._coherence_probes = tuple(
            p for p in probes if p.needs_hierarchy
        )

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        for probe in self._access_probes:
            probe.on_access(llc, core, pc, block, is_write, hit, evicted)

    def on_coherence(self, kind: str, core: int, block: int) -> None:
        for probe in self._coherence_probes:
            probe.on_coherence(kind, core, block)


# ----------------------------------------------------------------------
# Residency-observer probes (fastpath-safe via exact observer replay)
# ----------------------------------------------------------------------

class SetStatsProbe(Probe, ResidencyObserver):
    """Per-set miss/hit/eviction/live-occupancy accounting.

    Consumes only residency callbacks, which the fast path replays
    bit-identically — safe by construction.
    """

    name = "sets"
    fastpath_safe = True

    def __init__(self, top_n: int = 8):
        self._top_n = top_n
        self._misses = []
        self._hits = []
        self._evictions = []
        self._live = []

    def bind(self, geometry, policy) -> None:
        num_sets = geometry.num_sets
        self._misses = [0] * num_sets
        self._hits = [0] * num_sets
        self._evictions = [0] * num_sets
        self._live = [0] * num_sets

    def residency_started(self, block, set_index, fill_ordinal, pc, core):
        self._misses[set_index] += 1

    def residency_ended(
        self, block, set_index, fill_ordinal, end_ordinal, fill_pc, fill_core,
        core_mask, write_mask, hits, other_hits, forced,
    ) -> None:
        self._hits[set_index] += hits
        if forced:
            self._live[set_index] += 1
        else:
            self._evictions[set_index] += 1

    @staticmethod
    def _spread(values: List[int]) -> Dict:
        stats = RunningStats()
        for value in values:
            stats.add(value)
        return stats.as_dict()

    def summary(self) -> Dict:
        order = sorted(
            range(len(self._misses)),
            key=lambda s: (-self._misses[s], s),
        )
        hottest = [
            {
                "set": s,
                "misses": self._misses[s],
                "hits": self._hits[s],
                "evictions": self._evictions[s],
                "live": self._live[s],
            }
            for s in order[: self._top_n]
        ]
        miss_spread = self._spread(self._misses)
        return {
            "num_sets": len(self._misses),
            "misses": miss_spread,
            "hits": self._spread(self._hits),
            "evictions": self._spread(self._evictions),
            "live": self._spread(self._live),
            # max/mean miss ratio: 1.0 means perfectly balanced sets.
            "miss_imbalance": ratio(miss_spread["max"], miss_spread["mean"]),
            "hottest_sets": hottest,
        }


class EvictionReasonProbe(Probe, ResidencyObserver):
    """Why residencies end: capacity eviction vs end-of-run flush.

    Replay has no coherence-induced LLC kills (back-invalidation flows
    L2->L1, never into the LLC, and the recorded stream already folded
    coherence effects in), so the ``coherence`` bucket is structurally zero
    here; the :class:`CoherenceProbe` covers that traffic on a hierarchy
    pass. Kept as an explicit zero so reports state the model's shape
    rather than hiding it.
    """

    name = "evictions"
    fastpath_safe = True

    _REASONS = ("capacity", "coherence", "flush")

    def __init__(self):
        self._count = {reason: 0 for reason in self._REASONS}
        self._dead = {reason: 0 for reason in self._REASONS}
        self._shared = {reason: 0 for reason in self._REASONS}
        self._lifetime = {reason: RunningStats() for reason in self._REASONS}

    def residency_ended(
        self, block, set_index, fill_ordinal, end_ordinal, fill_pc, fill_core,
        core_mask, write_mask, hits, other_hits, forced,
    ) -> None:
        reason = "flush" if forced else "capacity"
        self._count[reason] += 1
        if hits == 0:
            self._dead[reason] += 1
        if popcount(core_mask) >= 2:
            self._shared[reason] += 1
        self._lifetime[reason].add(end_ordinal - fill_ordinal)

    def summary(self) -> Dict:
        total = sum(self._count.values())
        return {
            "residencies": total,
            "reasons": {
                reason: {
                    "count": self._count[reason],
                    "fraction": ratio(self._count[reason], total),
                    "dead": self._dead[reason],
                    "shared": self._shared[reason],
                    "lifetime_accesses": self._lifetime[reason].as_dict(),
                }
                for reason in self._REASONS
            },
        }


class SharingProbe(Probe, SharingClassifier):
    """Shared/private residency + hit breakdown (paper figures F1-F3).

    A thin probe shell over :class:`SharingClassifier` — by construction
    the probe-layer numbers are the *same object* the characterization
    report computes, so ``repro-sim inspect`` reproduces the paper-style
    breakdown from probe data alone, exactly.
    """

    name = "sharing"
    fastpath_safe = True

    def __init__(self):
        SharingClassifier.__init__(self)

    def summary(self) -> Dict:
        b = self.breakdown
        payload = dataclasses.asdict(b)
        payload.update({
            "private_residencies": b.private_residencies,
            "private_hits": b.private_hits,
            "shared_residency_fraction": b.shared_residency_fraction,
            "shared_hit_fraction": b.shared_hit_fraction,
            "hit_density_ratio": b.hit_density_ratio,
            "ro_fraction_of_shared_hits": b.ro_fraction_of_shared_hits,
            "dead_fill_fraction": b.dead_fill_fraction,
        })
        payload["degree_residencies"] = {
            str(k): v for k, v in sorted(b.degree_residencies.items())
        }
        payload["degree_hits"] = {
            str(k): v for k, v in sorted(b.degree_hits.items())
        }
        return payload


# ----------------------------------------------------------------------
# Access-event probes
# ----------------------------------------------------------------------

class ReuseDistanceProbe(Probe):
    """LRU stack-distance histogram split by sharing class of the residency.

    Distances are computed under the canonical per-set LRU stack model of
    the *stream* — a policy-independent property (the probe maintains its
    own stack, never reading cache or policy state), which is what makes it
    ``fastpath_safe``: on the fast path the identical quantities already
    exist in the walk (``distances``/``rids``/``res_core_mask``) and
    :meth:`consume_fastpath` just adopts them. Distance ``ways`` is the
    capped miss bucket (true distance >= ways, cold misses included); each
    access is attributed to the sharing class its residency *ends up* with.
    """

    name = "reuse"
    fastpath_safe = True
    wants_access_events = True

    def __init__(self):
        self._ways = 0
        self._set_mask = 0
        self._stacks: List[List[int]] = []
        self._rid_of: Dict[int, int] = {}
        self._core_mask: Sequence[int] = []
        self._acc_rids = array("q")
        self._acc_dists = array("i")
        self._shared_hist: List[int] = []
        self._private_hist: List[int] = []

    def bind(self, geometry, policy) -> None:
        self._ways = geometry.ways
        self._set_mask = geometry.num_sets - 1
        self._stacks = [[] for __ in range(geometry.num_sets)]
        self._rid_of = {}
        self._core_mask = []

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        # Mirrors fastpath._stack_walk exactly (the equivalence the
        # differential test pins down).
        st = self._stacks[block & self._set_mask]
        rid = self._rid_of.get(block)
        if rid is not None:
            idx = st.index(block)
            distance = len(st) - 1 - idx
            del st[idx]
            st.append(block)
            self._core_mask[rid] |= 1 << core
        else:
            distance = self._ways
            if len(st) == self._ways:
                del self._rid_of[st.pop(0)]
            st.append(block)
            rid = len(self._core_mask)
            self._rid_of[block] = rid
            self._core_mask.append(1 << core)
        self._acc_rids.append(rid)
        self._acc_dists.append(distance)

    def consume_fastpath(self, walk, stream, geometry) -> None:
        self._acc_rids = walk.rids
        self._acc_dists = walk.distances
        self._core_mask = walk.res_core_mask

    def finalize(self) -> None:
        buckets = self._ways + 1
        shared = [0] * buckets
        private = [0] * buckets
        core_mask = self._core_mask
        for rid, distance in zip(self._acc_rids, self._acc_dists):
            if popcount(core_mask[rid]) >= 2:
                shared[distance] += 1
            else:
                private[distance] += 1
        self._shared_hist = shared
        self._private_hist = private

    @staticmethod
    def _side(hist: List[int]) -> Dict:
        hits = sum(hist[:-1])
        weighted = sum(d * count for d, count in enumerate(hist[:-1]))
        return {
            "histogram": list(hist),
            "hits": hits,
            "misses": hist[-1],
            "mean_hit_distance": ratio(weighted, hits),
        }

    def summary(self) -> Dict:
        return {
            "model": "lru-stack",
            "ways": self._ways,
            "miss_bucket": self._ways,
            "shared": self._side(self._shared_hist),
            "private": self._side(self._private_hist),
        }


class DuelProbe(Probe):
    """PSEL time-series of a set-dueling policy (DIP / DRRIP).

    Policy-internal: meaningless on the LRU fast path, so it forces the
    scalar tier and rejects non-dueling policies at bind time.
    """

    name = "psel"
    wants_access_events = True
    wants_policy = True

    def __init__(self, sample_every: int = 4096):
        if sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
        self._sample_every = sample_every
        self._duel = None
        self._samples: List[List[int]] = []
        self._seen = 0

    def bind(self, geometry, policy) -> None:
        duel = getattr(policy, "duel", None)
        if duel is None:
            raise ConfigError(
                f"probe 'psel' needs a set-dueling policy (dip/drrip); "
                f"got {getattr(policy, 'name', policy)!r}"
            )
        self._duel = duel

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        self._seen += 1
        if self._seen % self._sample_every == 0:
            self._samples.append([self._seen, self._duel.psel])

    def summary(self) -> Dict:
        return {
            "sample_every": self._sample_every,
            "samples": self._samples,
            "final": self._duel.describe() if self._duel else None,
        }


class ShctProbe(Probe):
    """SHCT counter-occupancy time-series of a SHiP policy.

    Samples the fraction of dead (zero) and trained (moved off the initial
    value) signature counters as learning progresses, plus the final
    counter-value histogram.
    """

    name = "shct"
    wants_access_events = True
    wants_policy = True

    def __init__(self, sample_every: int = 16384):
        if sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
        self._sample_every = sample_every
        self._policy = None
        self._samples: List[List[int]] = []
        self._seen = 0

    def bind(self, geometry, policy) -> None:
        if not hasattr(policy, "shct_histogram"):
            raise ConfigError(
                f"probe 'shct' needs a SHiP-family policy; "
                f"got {getattr(policy, 'name', policy)!r}"
            )
        self._policy = policy

    def _sample(self) -> List[int]:
        histogram = self._policy.shct_histogram()
        initial = self._policy.counter_max // 2 + 1
        trained = self._policy.shct_size - histogram.get(initial, 0)
        return [self._seen, histogram.get(0, 0), trained]

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        self._seen += 1
        if self._seen % self._sample_every == 0:
            self._samples.append(self._sample())

    def summary(self) -> Dict:
        histogram = self._policy.shct_histogram()
        return {
            "sample_every": self._sample_every,
            "shct_size": self._policy.shct_size,
            "counter_max": self._policy.counter_max,
            "samples": self._samples,
            "final_histogram": {
                str(k): v for k, v in sorted(histogram.items())
            },
        }


class RrpvProbe(Probe):
    """RRPV distribution of the victim's set at each eviction.

    Snapshots the post-insertion RRPVs of the set that just evicted — the
    state the *next* victim selection in that set will see.
    """

    name = "rrpv"
    wants_access_events = True
    wants_policy = True

    def __init__(self):
        self._policy = None
        self._histogram: Dict[int, int] = {}
        self._evictions = 0

    def bind(self, geometry, policy) -> None:
        if not hasattr(policy, "rrpv_values"):
            raise ConfigError(
                f"probe 'rrpv' needs an RRIP-family policy; "
                f"got {getattr(policy, 'name', policy)!r}"
            )
        self._policy = policy

    def on_access(self, llc, core, pc, block, is_write, hit, evicted) -> None:
        if evicted == NO_BLOCK:
            return
        self._evictions += 1
        histogram = self._histogram
        for value in self._policy.rrpv_values(llc.set_index_of(block)):
            histogram[value] = histogram.get(value, 0) + 1

    def summary(self) -> Dict:
        return {
            "evictions_sampled": self._evictions,
            "rrpv_max": getattr(self._policy, "rrpv_max", None),
            "histogram": {
                str(k): v for k, v in sorted(self._histogram.items())
            },
        }


class CoherenceProbe(Probe):
    """Coherence-event accounting on a full hierarchy pass.

    Counts upgrades, invalidations, writebacks and inclusion victims per
    kind and per originating core, plus the distinct blocks involved.
    Replays cannot produce these events (the recorded stream folded
    coherence in), hence ``needs_hierarchy``.
    """

    name = "coherence"
    needs_hierarchy = True

    def __init__(self):
        self._num_cores = 0
        self._counts: Dict[str, int] = {}
        self._per_core: Dict[str, List[int]] = {}
        self._blocks: Dict[str, set] = {}

    def bind_hierarchy(self, machine) -> None:
        self._num_cores = machine.num_cores

    def on_coherence(self, kind: str, core: int, block: int) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + 1
        per_core = self._per_core.get(kind)
        if per_core is None:
            per_core = self._per_core[kind] = [0] * self._num_cores
            self._blocks[kind] = set()
        per_core[core] += 1
        self._blocks[kind].add(block)

    def summary(self) -> Dict:
        return {
            "num_cores": self._num_cores,
            "events": dict(sorted(self._counts.items())),
            "per_core": {
                kind: list(cores)
                for kind, cores in sorted(self._per_core.items())
            },
            "distinct_blocks": {
                kind: len(blocks)
                for kind, blocks in sorted(self._blocks.items())
            },
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

PROBE_FACTORIES = {
    SetStatsProbe.name: SetStatsProbe,
    EvictionReasonProbe.name: EvictionReasonProbe,
    SharingProbe.name: SharingProbe,
    ReuseDistanceProbe.name: ReuseDistanceProbe,
    DuelProbe.name: DuelProbe,
    ShctProbe.name: ShctProbe,
    RrpvProbe.name: RrpvProbe,
    CoherenceProbe.name: CoherenceProbe,
}

PROBE_NAMES = tuple(sorted(PROBE_FACTORIES))


def make_probe(name: str, **kwargs) -> Probe:
    """Instantiate one registered probe by name."""
    factory = PROBE_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown probe {name!r}; choose from {PROBE_NAMES}"
        )
    return factory(**kwargs)


def resolve_probes(
    specs: Iterable[Union[str, Probe]]
) -> List[Probe]:
    """Names and/or instances -> validated probe instances.

    Rejects duplicate probe names: summaries are keyed by name, and a
    silent overwrite would drop data.
    """
    probes: List[Probe] = []
    seen = set()
    for spec in specs:
        probe = make_probe(spec) if isinstance(spec, str) else spec
        if probe.name in seen:
            raise ConfigError(f"duplicate probe {probe.name!r}")
        seen.add(probe.name)
        probes.append(probe)
    return probes


def default_probe_names(policy_name: str = "lru") -> List[str]:
    """The probe set ``repro-sim inspect`` runs when none are named.

    Always the four stream-level probes plus the hierarchy coherence
    probe; policy-internal probes join only when the policy carries the
    matching state.
    """
    names = ["sets", "evictions", "sharing", "reuse", "coherence"]
    if policy_name in ("dip", "drrip"):
        names.append("psel")
    if policy_name == "ship":
        names.append("shct")
    if policy_name in ("srrip", "brrip", "drrip", "ship"):
        names.append("rrpv")
    return names


# ----------------------------------------------------------------------
# Report + runners
# ----------------------------------------------------------------------

@dataclass
class ProbeReport:
    """Everything one probed inspection produced (picklable, JSON-able)."""

    workload: str
    policy: str
    tier: str
    result: LlcSimResult
    profile: Dict = field(default_factory=dict)
    probes: Dict[str, Dict] = field(default_factory=dict)
    policy_state: Optional[Dict] = None
    hierarchy: Optional[Dict] = None

    def as_dict(self) -> Dict:
        """The on-disk/JSON shape (versioned via ``format_version``)."""
        return {
            "format_version": PROBE_FORMAT_VERSION,
            "workload": self.workload,
            "policy": self.policy,
            "tier": self.tier,
            "result": self.result.as_dict(),
            "profile": dict(self.profile),
            "probes": self.probes,
            "policy_state": self.policy_state,
            "hierarchy": self.hierarchy,
        }


def run_probed_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy_name: str,
    probes: Iterable[Union[str, Probe]],
    seed: int = 0,
    fastpath: Optional[bool] = None,
) -> ProbeReport:
    """Replay ``stream`` under ``policy_name`` with probes attached.

    Tier selection: the declared replay tier of the policy
    (:func:`repro.sim.setpath.setpath_tier_of`) engages only when the gate
    allows it **and every probe is fastpath-safe** — one scalar-only probe
    forces the whole replay scalar (probes are never silently degraded),
    as does a stream whose core ids do not fit the fast tiers' int64
    residency masks (:func:`repro.sim.fastpath.core_masks_fit`).
    The report's ``tier`` is the tier that actually ran: ``"stack"`` (LRU
    stack-distance fast path), ``"set"`` / ``"dueling"`` (set-partitioned
    kernels), or ``"scalar"``. Hit/miss counts are bit-identical across
    tiers, and match :func:`repro.sim.multipass.run_policy_on_stream` for
    the same ``(policy_name, seed)`` (identical seed derivation).

    Access probes stay policy-independent on the fast tiers: the reuse
    probe models canonical per-set LRU stacks of the *stream*, so on the
    set/dueling tiers it consumes a separate
    :func:`reconstruct_lru_replay` walk (the policy walk's distances are
    degenerate hit/miss markers), timed under ``profile["reuse_model"]``.

    ``profile`` in the returned report carries per-stage wall times from
    the replay profiler (stack walk or partition/set kernels /
    reconstruction / observer replay on the fast tiers; replay loop /
    flush on the scalar path), plus per-probe fast-path consumption times
    and ``total``.
    """
    probes = resolve_probes(probes)
    for probe in probes:
        if probe.needs_hierarchy:
            raise ConfigError(
                f"probe {probe.name!r} needs a full hierarchy pass; "
                f"run it through inspect_workload"
            )
    profile: Dict = {}
    observers = tuple(p for p in probes if isinstance(p, ResidencyObserver))
    tier = REPLAY_SCALAR
    if (
        fastpath_enabled(fastpath)
        and all(p.fastpath_safe for p in probes)
        and core_masks_fit(stream)
    ):
        tier = setpath_tier_of(policy_name)
    start = perf_counter()
    if tier != REPLAY_SCALAR:
        policy_state = None
        for probe in probes:
            probe.bind(geometry, None)
        if tier == REPLAY_STACK:
            walk = reconstruct_lru_replay(stream, geometry, profile=profile)
            lru_walk = walk
        else:
            policy = make_policy(
                policy_name, seed=derive_seed(seed, "replay", policy_name)
            )
            walk = reconstruct_setpath_replay(
                stream, geometry, policy, profile=profile
            )
            lru_walk = None
        if observers:
            phase_start = perf_counter()
            _replay_observers(walk, stream, observers)
            profile["observer_replay"] = perf_counter() - phase_start
        for probe in probes:
            if probe.wants_access_events:
                if lru_walk is None:
                    phase_start = perf_counter()
                    lru_walk = reconstruct_lru_replay(stream, geometry)
                    profile["reuse_model"] = perf_counter() - phase_start
                phase_start = perf_counter()
                probe.consume_fastpath(lru_walk, stream, geometry)
                profile[f"probe_{probe.name}"] = perf_counter() - phase_start
        result = LlcSimResult(
            policy=policy_name,
            stream_name=stream.name,
            accesses=walk.n,
            hits=walk.hits,
            misses=walk.misses,
            elapsed_sec=perf_counter() - start,
            tier=tier,
        )
    else:
        policy = make_policy(
            policy_name, seed=derive_seed(seed, "replay", policy_name)
        )
        simulator = LlcOnlySimulator(geometry, policy, observers=observers)
        for probe in probes:
            probe.bind(geometry, policy)
        access_probes = tuple(p for p in probes if p.wants_access_events)
        if access_probes:
            simulator.llc.attach_probe_bus(ProbeBus(access_probes))
        result = simulator.run(stream, profile=profile)
        policy_state = policy.introspect()
    finalize_start = perf_counter()
    for probe in probes:
        probe.finalize()
    profile["finalize"] = perf_counter() - finalize_start
    profile["total"] = perf_counter() - start
    summaries = {probe.name: probe.summary() for probe in probes}
    telemetry.emit(
        "span", stage="inspect_replay", policy=policy_name,
        stream=stream.name, tier=tier, probes=sorted(summaries),
        wall_sec=round(profile["total"], 6),
    )
    return ProbeReport(
        workload=stream.name,
        policy=policy_name,
        tier=tier,
        result=result,
        profile=profile,
        probes=summaries,
        policy_state=policy_state,
    )


def _run_hierarchy_probes(context, workload: str, probes: List[Probe]):
    """Regenerate the workload trace and run a probed hierarchy pass.

    Seeds match :meth:`ExperimentContext.record_artifacts` exactly, so the
    pass the coherence probe watches is bit-for-bit the pass that recorded
    the cached stream.
    """
    from repro.workloads.registry import get_workload

    model = get_workload(workload)
    machine = context.machine
    trace = model.generate(
        num_threads=machine.num_cores,
        scale=machine.scale,
        target_accesses=context.target_accesses,
        seed=derive_seed(context.seed, "trace", workload),
    )
    policy = make_policy("lru", seed=derive_seed(context.seed, "record", "lru"))
    for probe in probes:
        probe.bind_hierarchy(machine)
    hierarchy = CmpHierarchy(machine, policy, probe_bus=ProbeBus(probes))
    return hierarchy.run(trace)


def inspect_workload(
    context,
    workload: str,
    policy: str = "lru",
    probes: Optional[Iterable[Union[str, Probe]]] = None,
) -> ProbeReport:
    """Full probe report for one workload of an experiment context.

    Splits the probe set into replay probes (run against the cached LLC
    stream via :func:`run_probed_replay`) and hierarchy probes (run on a
    deterministic re-execution of the recording pass), and merges both
    into one :class:`ProbeReport`. ``probes=None`` selects
    :func:`default_probe_names` for the policy.
    """
    specs = list(probes) if probes is not None else default_probe_names(policy)
    instances = resolve_probes(specs)
    replay_probes = [p for p in instances if not p.needs_hierarchy]
    hierarchy_probes = [p for p in instances if p.needs_hierarchy]

    artifacts = context.artifacts(workload)
    report = run_probed_replay(
        artifacts.stream, context.geometry, policy, replay_probes,
        seed=context.seed, fastpath=context.fastpath,
    )
    report.workload = workload

    if hierarchy_probes:
        with telemetry.span("inspect_hierarchy", workload=workload) as info:
            phase_start = perf_counter()
            stats = _run_hierarchy_probes(context, workload, hierarchy_probes)
            report.profile["hierarchy_pass"] = perf_counter() - phase_start
            info["accesses"] = stats.accesses
        for probe in hierarchy_probes:
            probe.finalize()
            report.probes[probe.name] = probe.summary()
        report.hierarchy = dataclasses.asdict(stats)
    return report
