"""Exact stack-distance fast path for LRU replays.

LRU is a *stack algorithm* (Mattson et al., IBM Systems Journal 1970): the
blocks resident in a ``ways``-way set are always the ``ways`` most recently
used distinct blocks of that set, for every associativity simultaneously.
The hit/miss outcome of each access is therefore a pure function of its
per-set *stack distance* — the number of distinct blocks of the same set
touched since the previous access to the same block — and never of any
victim-selection bookkeeping: ``hit iff distance < ways``.

This module exploits that to replace the scalar
:meth:`repro.cache.llc.SharedLlc.access` loop (the dominant cost of a warm
sweep) for plain-LRU replays with three cheaper phases:

1. **Stack walk** — one lean pass computing every access's capped stack
   distance, the hit/miss classification, and the residency skeleton
   (fill/eviction positions, way assignment). The walk is inherently
   sequential (each distance depends on the whole preceding permutation of
   the set's stack) but touches a fraction of the state the full LLC model
   maintains per access.
2. **Residency metadata reconstruction** — per-residency hit counts,
   cross-core ("other") hit counts, core masks and write masks rebuilt
   *offline* from the classified stream, with ``numpy`` segmented
   reductions (``bincount``/``reduceat``) over the stream columns. Masks
   are int64, so streams with core ids above 62 have no fast observer
   replay: :func:`core_masks_fit` tells the replay entry point to run
   them on the object model instead.
3. **Observer replay** — registered :class:`ResidencyObserver` instances
   receive exactly the callback sequence the scalar ``SharedLlc`` would
   have produced: ``residency_ended`` for the victim then
   ``residency_started`` for the fill at each eviction, in stream order,
   and forced ``residency_ended`` flushes in (set, way) order at the end.

All three phases are deterministic and equivalence-tested against the
scalar path: results are **bit-identical** — same hits/misses/evictions,
same observer callbacks in the same order with the same arguments. This
stack-distance path is the ``stack`` replay tier; which tier a policy may
take is declared by the policy itself
(:meth:`repro.policies.base.ReplacementPolicy.replay_tier`) and resolved
by :func:`replay_tier_of` — non-LRU eligible policies go through the
set-partitioned engine (:mod:`repro.sim.setpath`) instead, and everything
else replays through the scalar model. ``REPRO_SIM_NO_FASTPATH=1`` (or
``--no-fastpath`` on the CLI) forces the scalar path everywhere.
"""

from array import array
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.envflag import env_flag
from repro.common.errors import SimulationError
from repro.policies.base import REPLAY_SCALAR, REPLAY_STACK, ReplacementPolicy
from repro.policies.registry import policy_class
from repro.sim.results import LlcSimResult

FASTPATH_ENV = "REPRO_SIM_NO_FASTPATH"
"""Environment variable disabling the fast replay tiers when set truthy.

Parsed by :func:`repro.common.envflag.env_flag`: ``=0``/``=false``/``=no``
count as unset (the fast path stays on), anything else disables it.
"""

def fastpath_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the three-state fast-path gate.

    ``None`` (auto) enables the fast path unless :data:`FASTPATH_ENV` is
    set truthy in the environment (:func:`env_flag` semantics — ``=0`` and
    ``=false`` count as unset); ``True``/``False`` force it on/off
    regardless.
    """
    if flag is not None:
        return flag
    return not env_flag(FASTPATH_ENV)


def replay_tier_of(policy) -> str:
    """The replay tier ``policy`` *declares* (name, class, or instance).

    Resolution rules:

    * a registered name resolves through its class's
      :meth:`ReplacementPolicy.replay_tier` declaration (unknown names are
      scalar);
    * a class resolves through its own declaration — declarations never
      inherit, so an undeclared subclass of an eligible policy is scalar;
    * an instance resolves through its class, except that a *bound*
      instance (``geometry`` already set) is always scalar: it may carry
      pre-seeded replacement state no offline reconstruction can see.

    This is the declared tier only; the set-partitioned engine additionally
    requires an exact-type kernel (:func:`repro.sim.setpath.setpath_tier_of`
    folds both in).
    """
    if isinstance(policy, str):
        cls = policy_class(policy)
        return cls.replay_tier() if cls is not None else REPLAY_SCALAR
    if isinstance(policy, type):
        if issubclass(policy, ReplacementPolicy):
            return policy.replay_tier()
        return REPLAY_SCALAR
    if isinstance(policy, ReplacementPolicy):
        if policy.geometry is not None:
            return REPLAY_SCALAR
        return type(policy).replay_tier()
    return REPLAY_SCALAR


def fastpath_eligible(policy) -> bool:
    """True when a replay under ``policy`` may take the LRU stack path.

    Resolved through the policy's own tier declaration
    (:func:`replay_tier_of`): only classes declaring the ``stack`` tier —
    plain LRU — qualify. Subclasses (LIP/BIP/DIP), wrapped policies (the
    sharing oracle), and bound instances resolve to other tiers and replay
    through the set-partitioned engine or the scalar model.
    """
    return replay_tier_of(policy) == REPLAY_STACK


class LruReplayReconstruction:
    """Everything a scalar LRU replay produces, rebuilt offline.

    Per-access arrays (length ``n``):

    * ``distances`` — capped per-set LRU stack distance: exact values in
      ``[0, ways)`` for hits, the sentinel ``ways`` for any access whose
      true distance is ``>= ways`` (including cold first touches, whose
      distance is infinite). The cap is what makes the walk O(ways) per
      access; nothing downstream needs the uncapped tail.
    * ``rids`` — the residency id (fill order, 0-based) each access lands
      in.

    Per-residency arrays (length ``residencies``, fill order): block, fill
    access index, evicting access index (``-1`` while live), way, hit and
    other-hit counts, core/write masks. ``evicted_rid[j]`` is the residency
    evicted by fill ``j`` (``-1`` for fills into empty frames), and
    ``live_rids`` lists the residencies still resident at end-of-stream in
    the (set, way) order the scalar flush visits them.
    """

    __slots__ = (
        "n", "ways", "set_mask", "hits", "misses", "evictions",
        "distances", "rids",
        "res_block", "res_fill", "res_end", "res_way",
        "res_hits", "res_other_hits", "res_core_mask", "res_write_mask",
        "evicted_rid", "live_rids",
    )

    @property
    def residencies(self) -> int:
        """Number of residencies (= fills = misses)."""
        return len(self.res_block)


def _histogram_walk(blocks: List[int], num_sets: int, ways: int) -> List[int]:
    """Histogram of capped per-set LRU stack distances, in one walk.

    ``result[d]`` counts accesses at stack distance ``d < ways``;
    ``result[ways]`` counts every access whose distance is ``>= ways``
    (cold misses included). By Mattson inclusion an access hits a
    ``w``-way LRU cache iff its distance is ``< w``, for **every**
    ``w <= ways`` at the same ``num_sets`` — so a cumulative sum of this
    histogram is the exact hit count of a whole associativity sweep,
    which is what the grid layer (:mod:`repro.sim.gridpath`) uses it for.

    Two deviations from the sibling walks, both because grid walks run at
    the *largest* associativity of the grid: the per-set lists are kept
    MRU-first, so ``st.index`` both *is* the stack distance and terminates
    after ``distance`` comparisons (temporally local accesses resolve in a
    couple of steps instead of scanning most of a ``ways``-deep stack),
    and membership is tested against a per-set ``set`` shadow, so a miss
    costs one O(1) probe instead of a full-stack scan.
    """
    set_mask = num_sets - 1
    counts = [0] * (ways + 1)
    stacks = [[] for __ in range(num_sets)]
    members = [set() for __ in range(num_sets)]
    for block in blocks:
        s = block & set_mask
        st = stacks[s]
        if block in members[s]:
            idx = st.index(block)
            counts[idx] += 1
            del st[idx]
        else:
            counts[ways] += 1
            mem = members[s]
            if len(st) == ways:
                mem.discard(st.pop())
            mem.add(block)
        st.insert(0, block)
    return counts


def _count_walk(
    blocks: List[int], num_sets: int, ways: int
) -> Tuple[int, int, int, int]:
    """Classification-only stack walk: ``(n, hits, misses, evictions)``.

    The minimal form of the walk for replays with no observers attached:
    per-set MRU-ordered lists only, no distances, no residency skeleton.
    Membership and move-to-MRU are C-level scans over at most ``ways``
    ints, so the per-access cost is a handful of bytecodes.
    """
    set_mask = num_sets - 1
    stacks = [[] for __ in range(num_sets)]
    hits = 0
    for block in blocks:
        st = stacks[block & set_mask]
        if block in st:
            st.remove(block)
            st.append(block)
            hits += 1
        elif len(st) == ways:
            del st[0]
            st.append(block)
        else:
            st.append(block)
    n = len(blocks)
    misses = n - hits
    occupancy = sum(len(st) for st in stacks)
    return n, hits, misses, misses - occupancy


def _stack_walk(blocks: List[int], num_sets: int, ways: int) -> LruReplayReconstruction:
    """Phase 1: the sequential stack walk.

    One pass maintaining, per set, the resident blocks in LRU→MRU order
    (a plain list of at most ``ways`` ints — ``list.index`` over <= 16
    entries runs at C speed) plus two global dicts mapping resident blocks
    to their residency id and way. Produces distances, hit/miss flags
    (implicit in the distances), and the complete residency skeleton.
    """
    out = LruReplayReconstruction()
    n = len(blocks)
    set_mask = num_sets - 1
    distances = array("i", bytes(4 * n))
    rids = array("q", bytes(8 * n))
    stacks = [[] for __ in range(num_sets)]
    res_of = {}  # block -> live residency id (blocks are unique per set)
    way_of = {}  # block -> way currently holding it
    res_block: List[int] = []
    res_fill: List[int] = []
    res_end: List[int] = []
    res_way: List[int] = []
    evicted_rid: List[int] = []
    hits = 0

    res_of_get = res_of.get
    for i, block in enumerate(blocks):
        rid = res_of_get(block)
        if rid is not None:
            st = stacks[block & set_mask]
            idx = st.index(block)
            distances[i] = len(st) - 1 - idx
            del st[idx]
            st.append(block)
            rids[i] = rid
            hits += 1
            continue
        distances[i] = ways
        st = stacks[block & set_mask]
        new_rid = len(res_block)
        if len(st) == ways:
            victim = st.pop(0)
            victim_rid = res_of.pop(victim)
            res_end[victim_rid] = i
            way = way_of.pop(victim)
            evicted_rid.append(victim_rid)
        else:
            # While the set is filling, the scalar model picks the lowest
            # free way; with no back-invalidation during replay that is
            # exactly the number of blocks already resident.
            way = len(st)
            evicted_rid.append(-1)
        st.append(block)
        res_of[block] = new_rid
        way_of[block] = way
        res_block.append(block)
        res_fill.append(i)
        res_end.append(-1)
        res_way.append(way)
        rids[i] = new_rid

    out.n = n
    out.ways = ways
    out.set_mask = set_mask
    out.hits = hits
    out.misses = n - hits
    out.evictions = len(res_block) - len(res_of)
    out.distances = distances
    out.rids = rids
    out.res_block = res_block
    out.res_fill = res_fill
    out.res_end = res_end
    out.res_way = res_way
    out.evicted_rid = evicted_rid
    # The scalar flush walks sets in index order and ways in way order.
    out.live_rids = sorted(
        res_of.values(),
        key=lambda rid: (res_block[rid] & set_mask, res_way[rid]),
    )
    return out


# ----------------------------------------------------------------------
# Phase 2: residency metadata reconstruction
# ----------------------------------------------------------------------

_MAX_NUMPY_CORE = 62
"""Highest core id the int64 mask kernel handles (1 << core must fit)."""


def core_masks_fit(stream: LlcStream) -> bool:
    """True when every core id of ``stream`` fits an int64 core mask.

    Observer-carrying fast replays rebuild per-residency core masks with
    int64 reductions; a stream with wider core ids (a multi-socket
    machine, say) must replay on the object model, whose masks are
    Python ints.
    """
    return stream.num_cores <= _MAX_NUMPY_CORE + 1


def _require_core_masks_fit(stream: LlcStream) -> None:
    if not core_masks_fit(stream):
        raise SimulationError(
            f"stream {stream.name!r} has core ids up to "
            f"{stream.num_cores - 1}; residency masks on the fast tiers "
            f"cover cores 0..{_MAX_NUMPY_CORE} (replay it on the model)"
        )


def _reconstruct_metadata(walk: LruReplayReconstruction,
                          stream: LlcStream) -> None:
    """Rebuild per-residency hit counts and core/write masks.

    Segmented reductions over the (stable) rid-sorted stream columns:
    ``bincount`` for hit and other-hit counts, ``bitwise_or.reduceat`` for
    the core and write masks. Callers have checked :func:`core_masks_fit`.
    """
    count = walk.residencies
    if count == 0:
        walk.res_hits = []
        walk.res_other_hits = []
        walk.res_core_mask = []
        walk.res_write_mask = []
        return
    cores_np, __, ___, writes_np = stream.numpy_columns()
    rids_np = np.frombuffer(walk.rids, dtype=np.int64)
    dist_np = np.frombuffer(walk.distances, dtype=np.int32)
    hit_mask = dist_np < walk.ways

    res_fill_np = np.asarray(walk.res_fill, dtype=np.int64)
    fill_core = cores_np[res_fill_np].astype(np.int64)
    core_bits = np.left_shift(np.int64(1), cores_np.astype(np.int64))

    res_hits = np.bincount(rids_np[hit_mask], minlength=count)
    other = hit_mask & (cores_np.astype(np.int64) != fill_core[rids_np])
    res_other = np.bincount(rids_np[other], minlength=count)

    order = np.argsort(rids_np, kind="stable")
    counts = np.bincount(rids_np, minlength=count)
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sorted_bits = core_bits[order]
    res_cmask = np.bitwise_or.reduceat(sorted_bits, starts)
    write_bits = np.where(writes_np[order] != 0, sorted_bits, np.int64(0))
    res_wmask = np.bitwise_or.reduceat(write_bits, starts)

    walk.res_hits = res_hits.tolist()
    walk.res_other_hits = res_other.tolist()
    walk.res_core_mask = res_cmask.tolist()
    walk.res_write_mask = res_wmask.tolist()


def reconstruct_lru_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    profile=None,
) -> LruReplayReconstruction:
    """Classify ``stream`` under exact LRU and rebuild residency metadata.

    ``profile``, when a dict, receives per-phase wall times
    (``stack_walk``, ``reconstruct``) for the replay profiler.

    Raises:
        SimulationError: when the stream's core ids do not fit int64
            masks (:func:`core_masks_fit`).
    """
    _require_core_masks_fit(stream)
    start = perf_counter()
    walk = _stack_walk(stream.blocks.tolist(), geometry.num_sets,
                       geometry.ways)
    if profile is not None:
        profile["stack_walk"] = perf_counter() - start
        start = perf_counter()
    _reconstruct_metadata(walk, stream)
    if profile is not None:
        profile["reconstruct"] = perf_counter() - start
    return walk


# ----------------------------------------------------------------------
# Phase 3: observer replay
# ----------------------------------------------------------------------

def _replay_observers(
    walk: LruReplayReconstruction, stream: LlcStream, observers: Tuple
) -> None:
    """Emit the exact callback sequence the scalar replay would produce."""
    cores, pcs, __, ___ = stream.columns()
    res_block = walk.res_block
    res_fill = walk.res_fill
    res_way = walk.res_way
    res_hits = walk.res_hits
    res_other = walk.res_other_hits
    res_cmask = walk.res_core_mask
    res_wmask = walk.res_write_mask
    set_mask = walk.set_mask

    def emit_ended(rid: int, end_ordinal: int, forced: bool) -> None:
        block = res_block[rid]
        fill = res_fill[rid]
        for observer in observers:
            observer.residency_ended(
                block,
                block & set_mask,
                fill + 1,
                end_ordinal,
                pcs[fill],
                cores[fill],
                res_cmask[rid],
                res_wmask[rid],
                res_hits[rid],
                res_other[rid],
                forced,
            )

    for rid, (fill, victim_rid) in enumerate(zip(res_fill, walk.evicted_rid)):
        if victim_rid >= 0:
            # The scalar model ends the victim's residency before the fill
            # callbacks of the access that evicted it.
            emit_ended(victim_rid, fill + 1, False)
        block = res_block[rid]
        for observer in observers:
            observer.residency_started(
                block, block & set_mask, fill + 1, pcs[fill], cores[fill]
            )
    for rid in walk.live_rids:
        emit_ended(rid, walk.n, True)


def replay_lru_fastpath(
    stream: LlcStream,
    geometry: CacheGeometry,
    observers: Tuple = (),
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under exact LRU via the stack-distance fast path.

    Drop-in replacement for an object-model LRU replay
    (:class:`repro.sim.engine.LlcOnlySimulator`): same hit/miss/eviction
    counts, same observer callbacks in the same order. Observer work
    happens after classification (phase 3), so when no observers are
    attached the replay is pure classification.
    ``profile``, when a dict, receives per-phase wall times (see
    :func:`reconstruct_lru_replay`, plus ``observer_replay``). Observer
    replays raise :class:`SimulationError` on streams that fail
    :func:`core_masks_fit`.
    """
    start = perf_counter()
    if observers:
        walk = reconstruct_lru_replay(stream, geometry, profile=profile)
        phase_start = perf_counter()
        _replay_observers(walk, stream, tuple(observers))
        if profile is not None:
            profile["observer_replay"] = perf_counter() - phase_start
        n, hits, misses = walk.n, walk.hits, walk.misses
    else:
        n, hits, misses, __ = _count_walk(
            stream.blocks.tolist(), geometry.num_sets, geometry.ways
        )
        if profile is not None:
            profile["count_walk"] = perf_counter() - start
    elapsed = perf_counter() - start
    return LlcSimResult(
        policy="lru",
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=misses,
        elapsed_sec=elapsed,
        tier=REPLAY_STACK,
        backend="python",
    )
