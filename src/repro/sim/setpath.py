"""Exact set-partitioned replay for per-set replacement policies.

The scalar :class:`repro.cache.llc.SharedLlc` walk is exact for every
policy but pays full model overhead per access. The stack-distance fast
path (:mod:`repro.sim.fastpath`) removes that overhead for plain LRU only.
This module covers the rest of the policy matrix by exploiting a weaker
structural property than Mattson inclusion: for most policies the sets of
a set-associative cache are **independent state machines**. RRPV vectors,
recency stamps, NRU reference bits, per-way next-use values — all of it is
per-set state, read and written only by accesses mapping to that set. The
replay therefore decomposes exactly:

1. **Partition** — bucket the recorded stream by set index in one
   vectorized pass (stable ``argsort`` over ``block & (num_sets-1)``),
   keeping each access's global position.
2. **Per-set kernels** — replay each set's subsequence under a compact
   array-state kernel (RRPV list for SRRIP/BRRIP, ordered recency list for
   the LRU/LIP/BIP family, reference bits for NRU, next-use values for
   OPT). Kernels are bit-exact transcriptions of the scalar policies,
   including RNG draw order: stochastic policies draw from per-set streams
   (:meth:`repro.policies.base.ReplacementPolicy.set_rng`), so a set's
   draw indices depend only on its own fill sequence. Count-mode SRRIP
   goes one step further: it is deterministic, so all sets advance in
   lockstep through one synchronous numpy kernel over a padded
   set-by-position block matrix (:func:`_count_rrip_sync_stacked`, the
   same kernel the SRRIP parameter grid stacks its variants in).
3. **Two-phase dueling** (DIP/DRRIP) — sets couple only through the PSEL
   counter, and only leader sets write it. Replay leaders first (their
   behaviour is role-based, never PSEL-dependent), merge their miss
   positions into the exact PSEL time-series, then replay followers
   reading the reconstructed winner flag at each fill position. Both
   phases run the plain replay's per-set kernels — one kernel per family
   takes the role arguments (leader miss recording, follower flags).

Policies with genuinely global state — SHiP's SHCT is trained by every
set's fills, hits, and evictions — have no exact decomposition and stay on
the scalar model (tier ``scalar``) — unless the compact backend
(:mod:`repro.sim.nativepath`) covers them; DESIGN.md decision 9 has the
argument.

Observer-carrying replays run the same kernels with a fill record (each
miss's global position and the way it filled); the residency table is
rebuilt from it (:meth:`repro.cache.residency.ResidencyTable.from_fills`),
row for row what the scalar model logs. Like the stack tier, that needs
core ids that fit int64 masks (:func:`repro.sim.fastpath.core_masks_fit`).

:func:`setpath_tier_of` resolves the effective tier (declared tier ∧
kernel availability); the replay entry point
(:func:`repro.sim.multipass.run_policy_on_stream`) routes ``set`` and
``dueling`` replays here.
"""

from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.residency import ResidencyTable
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import (
    REPLAY_DUELING,
    REPLAY_SCALAR,
    REPLAY_SET,
    ReplacementPolicy,
)
from repro.policies.dip import BipPolicy, DipPolicy, DuelingController
from repro.policies.lru import LipPolicy, LruPolicy
from repro.policies.nru import NruPolicy
from repro.policies.opt import NO_NEXT_USE, BeladyOptPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.registry import POLICY_NAMES, policy_class
from repro.policies.rrip import BrripPolicy, DrripPolicy, SrripPolicy
from repro.sim.fastpath import replay_tier_of, require_core_masks_fit
from repro.sim.results import LlcSimResult

_FAMILY_RECENCY = "recency"
_FAMILY_RRIP = "rrip"
_FAMILY_NRU = "nru"
_FAMILY_RANDOM = "random"
_FAMILY_OPT = "opt"

_KERNEL_FAMILIES: Dict[type, str] = {
    LruPolicy: _FAMILY_RECENCY,
    LipPolicy: _FAMILY_RECENCY,
    BipPolicy: _FAMILY_RECENCY,
    DipPolicy: _FAMILY_RECENCY,
    SrripPolicy: _FAMILY_RRIP,
    BrripPolicy: _FAMILY_RRIP,
    DrripPolicy: _FAMILY_RRIP,
    NruPolicy: _FAMILY_NRU,
    RandomPolicy: _FAMILY_RANDOM,
    BeladyOptPolicy: _FAMILY_OPT,
}
"""Exact classes a set kernel exists for.

Keyed by exact type, deliberately: a subclass that changed behaviour must
not ride its parent's kernel (and it already resolves to the scalar tier
through the non-inheriting :meth:`ReplacementPolicy.replay_tier`, so this
table is the second of two independent guards).
"""

# Insertion modes of the recency (stamp-ordered) family.
_MODE_MRU = 0
_MODE_LIP = 1
_MODE_BIP = 2

_RECENCY_MODES = {LruPolicy: _MODE_MRU, LipPolicy: _MODE_LIP, BipPolicy: _MODE_BIP}


def setpath_tier_of(policy) -> str:
    """The *effective* replay tier of a policy name, class, or instance.

    The declared tier (:func:`repro.sim.fastpath.replay_tier_of`) demoted
    to ``scalar`` when no exact-type kernel exists in
    :data:`_KERNEL_FAMILIES` — both conditions must hold for the
    set-partitioned engine to run.
    """
    tier = replay_tier_of(policy)
    if tier not in (REPLAY_SET, REPLAY_DUELING):
        return tier
    if isinstance(policy, str):
        cls = policy_class(policy)
    elif isinstance(policy, type):
        cls = policy
    else:
        cls = type(policy)
    if cls is None or cls not in _KERNEL_FAMILIES:
        return REPLAY_SCALAR
    return tier


def replay_tier_table() -> Dict[str, str]:
    """Effective replay tier of every registered policy name, plus OPT."""
    table = {name: setpath_tier_of(name) for name in POLICY_NAMES}
    table["opt"] = setpath_tier_of(BeladyOptPolicy)
    return table


# ----------------------------------------------------------------------
# Phase 1: stream partition
# ----------------------------------------------------------------------

class StreamPartition:
    """The recorded stream bucketed by set index.

    ``blocks[starts[s]:starts[s+1]]`` is set ``s``'s access subsequence in
    stream order; ``order`` holds each grouped access's global stream
    position (``order_np``/``blocks_np`` are the same columns as numpy
    arrays).
    """

    __slots__ = (
        "num_sets", "blocks", "order", "starts", "order_np", "blocks_np",
    )


def partition_stream(blocks, num_sets: int, profile=None) -> StreamPartition:
    """Bucket ``blocks`` by ``block & (num_sets - 1)`` preserving order.

    One stable ``argsort`` over the set-index column.
    """
    part = StreamPartition()
    part.num_sets = num_sets
    start = perf_counter()
    if isinstance(blocks, array) and blocks.typecode == "q":
        column = np.frombuffer(blocks, dtype=np.int64)
    else:
        column = np.asarray(blocks, dtype=np.int64)
    sets = column & (num_sets - 1)
    order_np = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=num_sets)
    starts = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    grouped = column[order_np]
    part.blocks = grouped.tolist()
    part.order = order_np.tolist()
    part.starts = starts.tolist()
    part.order_np = order_np
    part.blocks_np = grouped
    if profile is not None:
        profile["partition"] = perf_counter() - start
    return part


# ----------------------------------------------------------------------
# Phase 2: per-set kernels (count, optionally record every fill)
# ----------------------------------------------------------------------
#
# One kernel per family. Every kernel returns the set's hits; passing a
# ``rec`` list (with the set's global positions in ``pos``) also records
# each miss as ``position * ways + way``, the fill record
# ResidencyTable.from_fills rebuilds the residency table from. Count-only
# replays pay one ``None`` check per miss for it.

def _rrip_set(seg, pos, ways, rmax, bimodal, rng, throttle, use_b, fills,
              rec=None) -> int:
    """RRIP kernel for one set: plain, leader, or follower.

    Plain BRRIP and DRRIP leaders pass ``use_b=None``: ``bimodal`` fixes
    the insertion (False = SRRIP, True = BRRIP drawing from ``rng``);
    count-only plain SRRIP runs on :func:`_count_rrip_sync_stacked`
    instead. Leaders also pass a ``fills`` list that receives every
    miss's global position from ``pos``; followers pass the per-access
    ``use_b`` flags reconstructed from the PSEL series.
    """
    way_of = {}
    blk = [0] * ways
    rrpv = [rmax] * ways
    filled = 0
    hits = 0
    misses = 0
    roles = use_b is not None or fills is not None or rec is not None
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            rrpv[way] = 0
            hits += 1
            continue
        if roles:
            # A miss's index in seg is the accesses before it: hits +
            # misses. Deriving it here keeps the plain loop index-free.
            idx = hits + misses
            misses += 1
            if fills is not None:
                fills.append(pos[idx])
            if use_b is not None:
                bimodal = use_b[idx]
        if filled < ways:
            way = filled
            filled += 1
        else:
            top = max(rrpv)
            if top != rmax:
                # Aging: the scalar +1-all rounds until some way reaches
                # rmax add the same delta to every way.
                delta = rmax - top
                for w in range(ways):
                    rrpv[w] += delta
            way = rrpv.index(rmax)
            del way_of[blk[way]]
        if not bimodal or rng.randrange(throttle) == 0:
            rrpv[way] = rmax - 1
        else:
            rrpv[way] = rmax
        blk[way] = block
        way_of[block] = way
        if rec is not None:
            rec.append(pos[idx] * ways + way)
    return hits


_SYNC_MIN_ACCESSES = 4096
"""Below this stream length a single SRRIP variant runs faster set by set
than through the synchronous kernel's per-step numpy calls (measured on
the 1-2k-access set-sampled streams of the scenario fuzzer)."""


def _count_rrip_sync_stacked(
    part: StreamPartition, ways: int, configs
) -> List[int]:
    """Synchronous vectorized SRRIP count kernel: all sets, all variants.

    SRRIP is deterministic (no RNG draws), so its per-set recurrence runs
    as one numpy computation over a padded ``(num_sets, longest_set)``
    block matrix: step ``i`` processes every set's ``i``-th access at
    once. Hit detection is an equality broadcast, the +1-until-saturated
    aging rounds collapse to one per-row delta (same algebra as
    :func:`_rrip_set`), and the victim is each row's first RRPV-max way.
    Padding and the cold resident matrix both use ``-1``; padded lanes are
    masked out of hit detection and fills, so a padded ``-1`` never "hits"
    a still-cold way. Per-access Python overhead amortizes across all
    sets, which is where the set tier's headroom over the per-set list
    kernels comes from.

    ``configs`` is a sequence of ``(rmax, insertion_rrpv)`` pairs — one per
    variant; a plain SRRIP replay is the single variant ``(rmax, rmax -
    1)``, which on short input (:data:`_SYNC_MIN_ACCESSES`) steps set by
    set instead. The variant axis is flattened into the row dimension: row
    ``v * num_sets + s`` is variant ``v``'s copy of set ``s``. Each step
    broadcasts the same block column to every variant (``np.tile``);
    per-row ``rmax``/insertion vectors (``np.repeat`` over the variant
    axis) parameterize the aging and fill updates. The per-step Python
    overhead — the reason a warm parameter sweep used to cost one full
    replay per variant — is paid once for the whole grid. Variants never
    interact (disjoint row blocks), so each variant's rows step through
    exactly the recurrence a single-variant run would — the differential
    suite pins bit-identity per variant.

    Two representation changes keep the stacked step from costing what
    ``nv`` independent steps would:

    * **Compact block ids** — the kernel only ever compares blocks for
      equality, so the address column is remapped through ``np.unique``
      to dense ``int32`` ids once, halving the traffic of the dominant
      ``(rows, ways)`` comparison.
    * **Offset-form RRPVs** — the true RRPV of ``(row, way)`` is
      ``rel[row, way] + off[row]``. The aging rounds on a victimless
      miss add the same delta to every way of the row, which in offset
      form is one scatter-add into ``off`` instead of a gather / age /
      write-back round trip over the row's RRPV vector; hits and
      insertions store absolute values minus the row offset. ``argmax``
      over ``rel`` still finds the victim because the offset is uniform
      within a row.
    """
    nv = len(configs)
    starts = np.asarray(part.starts, dtype=np.int64)
    lens = np.diff(starts)
    if nv == 0 or len(lens) == 0:
        return [0] * nv
    maxlen = int(lens.max())
    num_sets = part.num_sets
    n = len(part.blocks)
    if (nv == 1 and configs[0][1] == configs[0][0] - 1
            and n < _SYNC_MIN_ACCESSES):
        # Short input: every synchronous step covers few sets, so its ~10
        # numpy calls cost more than the recurrence they vectorize, and
        # the compaction and tiling are pure set-up. Step each set
        # through the same recurrence (_rrip_set) instead.
        rmax = configs[0][0]
        blocks = part.blocks
        return [sum(
            _rrip_set(blocks[lo:hi], None, ways, rmax, False, None, 0,
                      None, None)
            for lo, hi in zip(part.starts, part.starts[1:]) if lo < hi
        )]
    ids = np.unique(part.blocks_np, return_inverse=True)[1].astype(np.int32)
    seg = np.full((num_sets, maxlen), -1, dtype=np.int32)
    col = np.arange(maxlen)
    seg[col[None, :] < lens[:, None]] = ids
    total = nv * num_sets
    rmax_rows = np.repeat(
        np.asarray([rmax for rmax, __ in configs], dtype=np.int64), num_sets
    )
    ins_rows = np.repeat(
        np.asarray([ins for __, ins in configs], dtype=np.int64), num_sets
    )
    blk = np.full((total, ways), -1, dtype=np.int32)
    rel = np.tile(rmax_rows[:, None], (1, ways))
    off = np.zeros(total, dtype=np.int64)
    filled = np.zeros(total, dtype=np.int64)
    hits = np.zeros(nv, dtype=np.int64)
    segT = np.tile(seg, (nv, 1)).T.copy()  # (maxlen, total), contiguous rows
    actT = segT >= 0
    match = np.empty((total, ways), dtype=bool)
    for i in range(maxlen):
        b = segT[i]
        np.equal(blk, b[:, None], out=match)
        is_hit = match.any(axis=1)
        is_hit &= actT[i]
        hit_rows = np.flatnonzero(is_hit)
        if hit_rows.size:
            hit_ways = match.argmax(axis=1)[hit_rows]
            rel[hit_rows, hit_ways] = -off[hit_rows]
            hits += is_hit.reshape(nv, num_sets).sum(axis=1)
        miss_rows = np.flatnonzero(actT[i] ^ is_hit)
        if not miss_rows.size:
            continue
        fill_count = filled[miss_rows]
        cold = fill_count < ways
        way = fill_count.copy()
        filled[miss_rows[cold]] += 1
        full_rows = miss_rows[~cold]
        if full_rows.size:
            sub = rel[full_rows]
            victim = sub.argmax(axis=1)
            top = sub[np.arange(full_rows.size), victim] + off[full_rows]
            off[full_rows] += rmax_rows[full_rows] - top
            way[~cold] = victim
        rel[miss_rows, way] = ins_rows[miss_rows] - off[miss_rows]
        blk[miss_rows, way] = b[miss_rows]
    return [int(h) for h in hits]


def _recency_set(seg, pos, ways, mode, rng, throttle, use_b, fills,
                 rec=None) -> int:
    """Recency-family kernel: plain LRU/LIP/BIP, DIP leader, follower.

    Residents are kept in LRU→MRU stamp order. The role arguments follow
    :func:`_rrip_set`: ``mode`` fixes the insertion when ``use_b`` is
    None, followers pass per-access ``use_b`` flags (BIP when set, else
    MRU), and leaders pass a ``fills`` list for their miss positions.
    Ways are tracked only when recording.
    """
    st: List[int] = []
    way_of = {}
    hits = 0
    misses = 0
    roles = use_b is not None or fills is not None or rec is not None
    for block in seg:
        if block in st:
            st.remove(block)
            st.append(block)
            hits += 1
            continue
        if roles:
            idx = hits + misses  # see _rrip_set
            misses += 1
            if fills is not None:
                fills.append(pos[idx])
            if use_b is not None:
                mode = _MODE_BIP if use_b[idx] else _MODE_MRU
        if len(st) == ways:
            victim = st.pop(0)
            if rec is not None:
                way = way_of.pop(victim)
        else:
            way = len(st)
        if mode == _MODE_MRU:
            st.append(block)
        elif mode == _MODE_LIP:
            st.insert(0, block)
        elif rng.randrange(throttle) == 0:
            st.append(block)
        else:
            st.insert(0, block)
        if rec is not None:
            way_of[block] = way
            rec.append(pos[idx] * ways + way)
    return hits


def _nru_set(seg, pos, ways, rec=None) -> int:
    """NRU kernel: one reference bit per way."""
    way_of = {}
    blk = [0] * ways
    bits = [0] * ways
    filled = 0
    hits = 0
    misses = 0
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            hits += 1
        else:
            if filled < ways:
                way = filled
                filled += 1
            else:
                # At ways == 1 the touch rule keeps the single bit set, so
                # no clear way exists; mirror the scalar model's way-0
                # fallback (unreachable for ways >= 2).
                way = bits.index(0) if 0 in bits else 0
                del way_of[blk[way]]
            blk[way] = block
            way_of[block] = way
            if rec is not None:
                rec.append(pos[hits + misses] * ways + way)
                misses += 1
        bits[way] = 1
        if 0 not in bits:
            for i in range(ways):
                bits[i] = 0
            bits[way] = 1
    return hits


def _random_set(seg, pos, ways, rng, rec=None) -> int:
    """Random kernel: the per-set stream draws once per eviction."""
    way_of = {}
    blk = [0] * ways
    filled = 0
    hits = 0
    misses = 0
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            hits += 1
            continue
        if filled < ways:
            way = filled
            filled += 1
        else:
            way = rng.randrange(ways)
            del way_of[blk[way]]
        blk[way] = block
        way_of[block] = way
        if rec is not None:
            rec.append(pos[hits + misses] * ways + way)
            misses += 1
    return hits


def _opt_set(seg, seg_next, pos, ways, rec=None) -> int:
    """Belady OPT kernel over the set's gathered next-use values."""
    way_of = {}
    blk = [0] * ways
    nxt = [NO_NEXT_USE] * ways
    filled = 0
    hits = 0
    misses = 0
    get = way_of.get
    for block, next_pos in zip(seg, seg_next):
        way = get(block)
        if way is not None:
            nxt[way] = next_pos
            hits += 1
            continue
        if filled < ways:
            way = filled
            filled += 1
        else:
            way = nxt.index(max(nxt))
            del way_of[blk[way]]
        nxt[way] = next_pos
        blk[way] = block
        way_of[block] = way
        if rec is not None:
            rec.append(pos[hits + misses] * ways + way)
            misses += 1
    return hits


# ----------------------------------------------------------------------
# Phase 2c: two-phase dueling (PSEL time-series reconstruction)
# ----------------------------------------------------------------------

def _psel_steps(a_fills, b_fills, duel):
    """Merge leader miss positions into the exact PSEL time-series.

    Returns ``(positions, values, flags)``: the sorted global positions of
    every leader miss (the only events that move PSEL), the PSEL value
    after each event (``values[0]``/``flags[0]`` describe the initial
    state, so both have one more entry than ``positions``), and the
    follower decision ``psel >= threshold`` after each event. The
    saturating walk itself stays scalar — saturation breaks ``cumsum`` —
    but the event merge vectorizes.
    """
    pos_np = np.asarray(a_fills + b_fills, dtype=np.int64)
    delta_np = np.ones(len(pos_np), dtype=np.int64)
    delta_np[len(a_fills):] = -1
    # Fill positions are unique (one access per position), so the
    # unstable default sort is deterministic here.
    order = np.argsort(pos_np)
    positions = pos_np[order].tolist()
    deltas = delta_np[order].tolist()
    psel = duel.psel
    psel_max = duel.psel_max
    threshold = duel.threshold
    values = [psel]
    flags = [psel >= threshold]
    for delta in deltas:
        if delta > 0:
            if psel < psel_max:
                psel += 1
        elif psel > 0:
            psel -= 1
        values.append(psel)
        flags.append(psel >= threshold)
    return positions, values, flags


def _make_flag_lookup(positions, flags, part: StreamPartition):
    """Per-set follower-decision gather: ``lookup(lo, hi) -> [bool, ...]``.

    The flag for an access at global position ``p`` is the PSEL decision
    after every leader-miss event strictly before ``p`` — exactly what the
    scalar model reads at that access's fill (a follower's own miss never
    moves PSEL).
    """
    pos_np = np.asarray(positions, dtype=np.int64)
    flags_np = np.asarray(flags, dtype=bool)

    def lookup(lo: int, hi: int) -> List[bool]:
        idx = np.searchsorted(pos_np, part.order_np[lo:hi], side="left")
        return flags_np[idx].tolist()

    return lookup


def _leader_pass(part: StreamPartition, geometry: CacheGeometry,
                 policy, rec: Optional[List[int]]):
    """Replay every leader set; classify followers for the second phase.

    Returns ``(hits, a_fills, b_fills, followers)`` where the fill lists
    hold the global positions of every miss in A- and B-leader sets.
    """
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    duel = policy.duel
    throttle = policy.throttle
    family = _KERNEL_FAMILIES[type(policy)]
    hits = 0
    a_fills: List[int] = []
    b_fills: List[int] = []
    followers: List[int] = []
    for s in range(part.num_sets):
        role = duel.role(s)
        if role == DuelingController.FOLLOWER:
            followers.append(s)
            continue
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        pos = order[lo:hi]
        is_b = role == DuelingController.LEADER_B
        rng = policy.set_rng(s) if is_b else None
        fills = b_fills if is_b else a_fills
        if family == _FAMILY_RRIP:
            hits += _rrip_set(seg, pos, ways, policy.rrpv_max, is_b, rng,
                              throttle, None, fills, rec)
        else:
            mode = _MODE_BIP if is_b else _MODE_MRU
            hits += _recency_set(seg, pos, ways, mode, rng, throttle, None,
                                 fills, rec)
    return hits, a_fills, b_fills, followers


def _follower_pass(part: StreamPartition, geometry: CacheGeometry,
                   policy, rec: Optional[List[int]], lookup,
                   followers: List[int]) -> int:
    """Replay every follower set against the reconstructed PSEL flags."""
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    throttle = policy.throttle
    family = _KERNEL_FAMILIES[type(policy)]
    hits = 0
    for s in followers:
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        pos = order[lo:hi]
        use_b = lookup(lo, hi)
        rng = policy.set_rng(s)
        if family == _FAMILY_RRIP:
            hits += _rrip_set(seg, pos, ways, policy.rrpv_max, False, rng,
                              throttle, use_b, None, rec)
        else:
            hits += _recency_set(seg, pos, ways, _MODE_MRU, rng, throttle,
                                 use_b, None, rec)
    return hits


def _gather_next_use(next_use, part: StreamPartition):
    """Group the precomputed next-use column by the partition order."""
    if isinstance(next_use, array) and next_use.typecode == "q":
        column = np.frombuffer(next_use, dtype=np.int64)
    else:
        column = np.asarray(next_use, dtype=np.int64)
    return column[part.order_np].tolist()


def _plain_pass(part: StreamPartition, geometry: CacheGeometry,
                policy, rec: Optional[List[int]]) -> int:
    """Replay every set of a non-dueling per-set policy."""
    cls = type(policy)
    family = _KERNEL_FAMILIES[cls]
    if rec is None and cls is SrripPolicy:
        # Count-mode SRRIP has a fully synchronous vectorized kernel (no
        # RNG, no fills to record): the stacked grid kernel with one
        # variant. BRRIP's per-set draws and recording replays stay on
        # the per-set kernels.
        rmax = policy.rrpv_max
        return _count_rrip_sync_stacked(
            part, geometry.ways, [(rmax, rmax - 1)]
        )[0]
    grouped_next = None
    if family == _FAMILY_OPT:
        next_use = policy.next_use
        if len(next_use) != len(part.blocks):
            raise SimulationError(
                f"OPT replayed against a mismatched stream: next-use column "
                f"has {len(next_use)} entries for {len(part.blocks)} accesses"
            )
        grouped_next = _gather_next_use(next_use, part)
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    hits = 0
    for s in range(part.num_sets):
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        pos = order[lo:hi] if rec is not None else None
        if family == _FAMILY_RRIP:
            bimodal = cls is BrripPolicy
            rng = policy.set_rng(s) if bimodal else None
            throttle = policy.throttle if bimodal else 0
            hits += _rrip_set(seg, pos, ways, policy.rrpv_max, bimodal, rng,
                              throttle, None, None, rec)
        elif family == _FAMILY_RECENCY:
            mode = _RECENCY_MODES[cls]
            rng = policy.set_rng(s) if mode == _MODE_BIP else None
            throttle = policy.throttle if mode == _MODE_BIP else 0
            hits += _recency_set(seg, pos, ways, mode, rng, throttle, None,
                                 None, rec)
        elif family == _FAMILY_NRU:
            hits += _nru_set(seg, pos, ways, rec)
        elif family == _FAMILY_RANDOM:
            hits += _random_set(seg, pos, ways, policy.set_rng(s), rec)
        else:  # _FAMILY_OPT
            hits += _opt_set(seg, grouped_next[lo:hi], pos, ways, rec)
    return hits


def _run_partitioned(part: StreamPartition, geometry: CacheGeometry,
                     policy, rec: Optional[List[int]], profile=None) -> int:
    """Replay every set (count-only when ``rec`` is None); return hits.

    Dueling policies run in two phases: the leader pass produces the PSEL
    event series, then every follower set reads the reconstructed winner
    flag at each of its fills.
    """
    start = perf_counter()
    if type(policy) in (DipPolicy, DrripPolicy):
        hits, a_fills, b_fills, followers = _leader_pass(
            part, geometry, policy, rec
        )
        psel_start = perf_counter()
        positions, __, flags = _psel_steps(a_fills, b_fills, policy.duel)
        lookup = _make_flag_lookup(positions, flags, part)
        if profile is not None:
            profile["psel_series"] = perf_counter() - psel_start
        hits += _follower_pass(part, geometry, policy, rec, lookup, followers)
    else:
        hits = _plain_pass(part, geometry, policy, rec)
    if profile is not None:
        profile["set_kernels"] = perf_counter() - start
    return hits


def reconstruct_psel_series(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy,
) -> Tuple[List[int], List[int]]:
    """The exact PSEL time-series of a dueling replay, from leaders alone.

    ``policy`` is an unbound :class:`DipPolicy`/:class:`DrripPolicy`
    instance. Returns ``(positions, values)``: the sorted global stream
    positions of every leader miss, and the PSEL value after each —
    ``values[0]`` is the initial PSEL, so ``len(values) ==
    len(positions) + 1``. ``values[bisect_right(positions, p)]`` is the
    PSEL the scalar model holds after processing the access at position
    ``p`` (the differential suite checks this against a scalar PSEL probe).
    """
    if setpath_tier_of(policy) != REPLAY_DUELING:
        raise SimulationError(
            f"policy {getattr(policy, 'name', policy)!r} is not a dueling "
            f"policy; no PSEL series exists"
        )
    part = partition_stream(stream.blocks, geometry.num_sets)
    policy.bind(geometry)
    __, a_fills, b_fills, ___ = _leader_pass(part, geometry, policy, None)
    positions, values, ____ = _psel_steps(a_fills, b_fills, policy.duel)
    return positions, values


# ----------------------------------------------------------------------
# Phase 3: residency table + replay
# ----------------------------------------------------------------------

def reconstruct_setpath_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    profile=None,
) -> ResidencyTable:
    """The residency table of an exact replay of ``stream`` under ``policy``.

    ``policy`` must be an unbound setpath-eligible instance; it is bound
    here. The kernels record every fill; the table is rebuilt from those
    (:meth:`ResidencyTable.from_fills`), row for row what the object model
    logs.

    Raises:
        SimulationError: for a policy without a set kernel, or a stream
            whose core ids do not fit int64 masks
            (:func:`repro.sim.fastpath.core_masks_fit`) — both before
            ``policy`` is bound.
    """
    tier = setpath_tier_of(policy)
    if tier not in (REPLAY_SET, REPLAY_DUELING):
        raise SimulationError(
            f"policy {getattr(policy, 'name', policy)!r} is not "
            f"setpath-eligible (tier {tier!r})"
        )
    require_core_masks_fit(stream)
    part = partition_stream(stream.blocks, geometry.num_sets, profile=profile)
    policy.bind(geometry)
    rec: List[int] = []
    _run_partitioned(part, geometry, policy, rec, profile=profile)
    start = perf_counter()
    packed = np.sort(np.asarray(rec, dtype=np.int64))  # positions are unique
    table = ResidencyTable.from_fills(
        stream, geometry.num_sets, geometry.ways,
        packed // geometry.ways, packed % geometry.ways,
    )
    if profile is not None:
        profile["table"] = perf_counter() - start
    return table


def replay_setpath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    observers: Tuple = (),
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under an unbound per-set policy instance.

    Drop-in replacement for an object-model replay
    (:class:`repro.sim.engine.LlcOnlySimulator`) of setpath-eligible
    policies: same hit/miss/eviction counts, and observers consume the
    same residency table (equivalence-tested per policy). Without
    observers the replay is pure classification (no fill record).
    ``profile``, when a dict, receives per-phase wall times
    (``partition``, ``set_kernels``, ``psel_series`` for dueling,
    ``table``/``consume`` with observers).
    """
    start = perf_counter()
    tier = setpath_tier_of(policy)
    if tier not in (REPLAY_SET, REPLAY_DUELING):
        raise SimulationError(
            f"policy {getattr(policy, 'name', policy)!r} is not "
            f"setpath-eligible (tier {tier!r})"
        )
    n = len(stream.blocks)
    if observers:
        table = reconstruct_setpath_replay(
            stream, geometry, policy, profile=profile
        )
        phase_start = perf_counter()
        for observer in observers:
            observer.consume(table)
        if profile is not None:
            profile["consume"] = perf_counter() - phase_start
        hits = n - len(table)
    else:
        part = partition_stream(
            stream.blocks, geometry.num_sets, profile=profile
        )
        policy.bind(geometry)
        hits = _run_partitioned(part, geometry, policy, None, profile=profile)
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=tier,
        backend="numpy",
    )
