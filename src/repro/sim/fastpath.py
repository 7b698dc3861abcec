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
sweep) for plain-LRU replays with a cheaper walk:

1. **LRU walk** — one lean pass over per-set MRU-ordered block lists.
   Count-only replays stop there. Replays with observers also record, per
   miss, the hits so far (which locates the miss in the stream) and the
   way the fill took — the lowest free way while the set fills, the
   victim's way afterwards, exactly as the scalar model assigns them.
2. **Residency table** — everything else observers need is rebuilt
   offline from those fills (:meth:`ResidencyTable.from_fills
   <repro.cache.residency.ResidencyTable.from_fills>`): ends from the
   next fill into the same frame, hit counts and core/write masks from
   segmented ``numpy`` reductions over the stream columns. Masks are
   int64, so streams with core ids above 62 have no fast residency table:
   :func:`core_masks_fit` tells the replay entry point to run them on the
   object model instead.
3. **Consumption** — each observer reduces over the table once
   (:meth:`ResidencyObserver.consume
   <repro.cache.residency.ResidencyObserver.consume>`); no per-residency
   callbacks run.

All three phases are deterministic and equivalence-tested against the
scalar path: results are **bit-identical** — same hits/misses/evictions,
and the same residency table, row for row, as the object model logs. This
stack-distance path is the ``stack`` replay tier; which tier a policy may
take is declared by the policy itself
(:meth:`repro.policies.base.ReplacementPolicy.replay_tier`) and resolved
by :func:`replay_tier_of` — non-LRU eligible policies go through the
set-partitioned engine (:mod:`repro.sim.setpath`) instead, and everything
else replays through the scalar model. ``REPRO_SIM_NO_FASTPATH=1`` (or
``--no-fastpath`` on the CLI) forces the scalar path everywhere.
"""

from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.residency import ResidencyTable
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


def _lru_walk(blocks: List[int], num_sets: int, ways: int,
              fills: Optional[List[int]] = None) -> int:
    """The LRU walk: returns hits; ``fills`` (when a list) records misses.

    Per-set lists keep residents in LRU→MRU order, so membership and
    move-to-MRU are C-level scans over at most ``ways`` ints. With
    ``fills`` given, each miss appends ``hits * ways + way``: the hits
    before it (the ``k``-th miss sits at stream position ``k + hits``)
    and the way the fill took. Count-only replays pass no list and pay
    two ``None`` checks per miss.
    """
    set_mask = num_sets - 1
    stacks = [[] for __ in range(num_sets)]
    way_of = {}
    hits = 0
    for block in blocks:
        st = stacks[block & set_mask]
        if block in st:
            st.remove(block)
            st.append(block)
            hits += 1
            continue
        if len(st) == ways:
            victim = st.pop(0)
            if fills is not None:
                way = way_of.pop(victim)
        else:
            # While the set fills, the scalar model picks the lowest free
            # way; with no back-invalidation during replay that is exactly
            # the number of blocks already resident.
            way = len(st)
        st.append(block)
        if fills is not None:
            way_of[block] = way
            fills.append(hits * ways + way)
    return hits


def decode_fills(fills: List[int], ways: int):
    """``(positions, ways)`` int64 columns of a walk's ``fills`` record."""
    packed = np.asarray(fills, dtype=np.int64)
    return (np.arange(len(packed), dtype=np.int64) + packed // ways,
            packed % ways)


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


def require_core_masks_fit(stream: LlcStream) -> None:
    """Raise :class:`SimulationError` unless :func:`core_masks_fit`."""
    if not core_masks_fit(stream):
        raise SimulationError(
            f"stream {stream.name!r} has core ids up to "
            f"{stream.num_cores - 1}; residency masks on the fast tiers "
            f"cover cores 0..{_MAX_NUMPY_CORE} (replay it on the model)"
        )


def reconstruct_lru_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    profile=None,
) -> ResidencyTable:
    """The residency table of an exact LRU replay of ``stream``.

    ``profile``, when a dict, receives per-phase wall times
    (``lru_walk``, ``table``) for the replay profiler.

    Raises:
        SimulationError: when the stream's core ids do not fit int64
            masks (:func:`core_masks_fit`).
    """
    require_core_masks_fit(stream)
    start = perf_counter()
    fills: List[int] = []
    _lru_walk(stream.blocks.tolist(), geometry.num_sets, geometry.ways,
              fills)
    if profile is not None:
        profile["lru_walk"] = perf_counter() - start
        start = perf_counter()
    table = ResidencyTable.from_fills(
        stream, geometry.num_sets, geometry.ways,
        *decode_fills(fills, geometry.ways),
    )
    if profile is not None:
        profile["table"] = perf_counter() - start
    return table


def replay_lru_fastpath(
    stream: LlcStream,
    geometry: CacheGeometry,
    observers: Tuple = (),
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under exact LRU via the stack-distance fast path.

    Drop-in replacement for an object-model LRU replay
    (:class:`repro.sim.engine.LlcOnlySimulator`): same hit/miss/eviction
    counts, and observers consume the same residency table. When no
    observers are attached the replay is pure classification.
    ``profile``, when a dict, receives per-phase wall times (see
    :func:`reconstruct_lru_replay`, plus ``consume``). Observer-carrying
    replays raise :class:`SimulationError` on streams that fail
    :func:`core_masks_fit`.
    """
    start = perf_counter()
    n = len(stream.blocks)
    if observers:
        table = reconstruct_lru_replay(stream, geometry, profile=profile)
        phase_start = perf_counter()
        for observer in observers:
            observer.consume(table)
        if profile is not None:
            profile["consume"] = perf_counter() - phase_start
        hits = n - len(table)
    else:
        hits = _lru_walk(stream.blocks.tolist(), geometry.num_sets,
                         geometry.ways)
        if profile is not None:
            profile["lru_walk"] = perf_counter() - start
    return LlcSimResult(
        policy="lru",
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=REPLAY_STACK,
        backend="python",
    )
