"""Compact-array backend for the scalar replay tier.

The replay-tier registry left exactly one tier paying full model
overhead: ``scalar``. SHiP is its canonical occupant — the SHCT is written
by *every* set's fills, hits, and evictions, so no per-set decomposition
exists (DESIGN.md decision 9) and every SHiP cell crawls through
``SharedLlc.access`` at model speed. But SHiP's replay-relevant state is
tiny and flat: an RRPV byte, a signature, and an outcome bit per frame,
plus one global saturating-counter table. That is exactly the shape a
compact-array kernel handles well.

This module supplies that backend — one kernel per replay family, each
recorded as ``backend == "compact"``:

* **SHiP kernel** (:func:`_ship_count_compact`) — a bit-exact
  transcription of ``SharedLlc.access`` + :class:`ShipPolicy` over flat
  per-set lists (the layout :mod:`repro.sim.setpath`'s count kernels use),
  with PC signatures pre-hashed in one vectorized pass. SHiP draws no RNG,
  so the transcription is deterministic and bit-identical to the scalar
  model (the differential suite pins it). It needs nothing beyond the
  interpreter and is several times faster than the model because it
  replaces per-access method dispatch, tuple unpacking, and residency
  bookkeeping with list indexing.
* **Oracle kernel** (:func:`_oracle_count_compact`) — the same treatment
  for :class:`repro.oracle.wrapper.SharingAwareWrapper` over {LRU, SRRIP,
  SHiP} when its hint source is an offline annotation
  (:class:`repro.oracle.annotate.AnnotationHintSource`): hints are pure
  per-ordinal data, so the annotation's budget table is read as a column
  aligned with the stream and the whole protection protocol (victim
  exemption, synthetic promote-hits, budget releases) runs inside the
  kernel loop. The wrapper's study counters are written back onto the
  instance.
* **Dispatch** (:func:`try_native_replay`) — called by the replay entry
  point (:func:`repro.sim.multipass.run_policy_on_stream`) when a replay
  resolves to the scalar tier: exact-type unbound :class:`ShipPolicy` replays with no
  observers route here, as do native-eligible oracle wrappers
  (:func:`oracle_native_spec`); everything else (undeclared subclasses,
  bound instances, live predictor hint sources, observer-carrying
  replays, ``REPRO_SIM_NO_NATIVE``) falls back to the scalar model with
  the chosen backend recorded in the result's ``backend`` provenance
  field.
"""

from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.envflag import env_flag
from repro.policies.base import REPLAY_SCALAR
from repro.policies.lru import LruPolicy
from repro.policies.rrip import SrripPolicy
from repro.policies.ship import ShipPolicy
from repro.sim.results import LlcSimResult

NO_NATIVE_ENV = "REPRO_SIM_NO_NATIVE"
"""Set truthy (:func:`repro.common.envflag.env_flag` semantics) to disable
the native scalar-tier backend; SHiP replays then take the scalar model.
``=0``/``=false``/``=no`` count as unset, matching every other
``REPRO_SIM_*`` toggle.
"""

BACKEND_MODEL = "model"
"""Result produced by the scalar object model (``SharedLlc.access``)."""

BACKEND_COMPACT = "compact"
"""Result produced by the compact pure-Python nativepath kernel."""


def native_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the three-state native-backend gate.

    ``None`` (auto) enables the backend unless :data:`NO_NATIVE_ENV` is
    set truthy; ``True``/``False`` force it on/off regardless.
    """
    if flag is not None:
        return flag
    return not env_flag(NO_NATIVE_ENV)


# ----------------------------------------------------------------------
# Signature preparation (vectorized)
# ----------------------------------------------------------------------

def _hash_pcs(pcs, mask: int):
    """Every access's SHCT signature: ``ShipPolicy._hash_pc`` columnwise."""
    column = np.asarray(pcs, dtype=np.int64)
    sigs = ((column >> 2) ^ (column >> 11) ^ (column >> 19)) & mask
    return sigs.tolist()


# ----------------------------------------------------------------------
# SHiP kernel
# ----------------------------------------------------------------------

def _ship_count_compact(blocks, sigs, num_sets: int, ways: int, rmax: int,
                        cmax: int, shct) -> int:
    """Count-mode SHiP replay over flat per-set lists; returns hits.

    Bit-exact transcription of the scalar path: free fills take the
    lowest free way (fill order — no back-invalidation exists in LLC-only
    replay), victim selection is SRRIP aging (the closed-form delta of
    ``_count_rrip``), and the SHCT sees the eviction decrement *before*
    the fill reads the incoming signature's counter — the same order
    ``SharedLlc.access`` runs ``on_evict`` and ``on_fill`` in, which
    matters when victim and filler share a signature.
    """
    set_mask = num_sets - 1
    where: dict = {}  # block -> (rrpv row, sig row, outcome row, way)
    get = where.get
    blk_rows = [[0] * ways for __ in range(num_sets)]
    rrpv_rows = [[rmax] * ways for __ in range(num_sets)]
    sig_rows = [[0] * ways for __ in range(num_sets)]
    out_rows = [[0] * ways for __ in range(num_sets)]
    filled = [0] * num_sets
    hits = 0
    for block, g in zip(blocks, sigs):
        entry = get(block)
        if entry is not None:
            rrow, srow, orow, way = entry
            rrow[way] = 0
            hits += 1
            if not orow[way]:
                orow[way] = 1
                g2 = srow[way]
                if shct[g2] < cmax:
                    shct[g2] += 1
            continue
        s = block & set_mask
        rrow = rrpv_rows[s]
        srow = sig_rows[s]
        orow = out_rows[s]
        brow = blk_rows[s]
        f = filled[s]
        if f < ways:
            way = f
            filled[s] = f + 1
        else:
            top = max(rrow)
            if top != rmax:
                delta = rmax - top
                for w in range(ways):
                    rrow[w] += delta
            way = rrow.index(rmax)
            del where[brow[way]]
            if not orow[way]:
                g2 = srow[way]
                if shct[g2] > 0:
                    shct[g2] -= 1
        srow[way] = g
        orow[way] = 0
        rrow[way] = rmax if shct[g] == 0 else rmax - 1
        brow[way] = block
        where[block] = (rrow, srow, orow, way)
    return hits


# ----------------------------------------------------------------------
# Oracle-tier kernel: SharingAwareWrapper over {LRU, SRRIP, SHiP}
# ----------------------------------------------------------------------
#
# The wrapper's replay-relevant state is as flat as SHiP's: one budget and
# one fill-core per frame on top of the base policy's own metadata, plus
# three global counters. Its hint source — when it is an offline
# annotation (repro.oracle.annotate.AnnotationHintSource) — is pure data
# keyed by the access ordinal, so the whole protection protocol lowers to
# an int column aligned with the stream: hints[i] == budgets[i + 1].
# The kernel below transcribes SharingAwareWrapper + base bit-exactly:
# base.on_evict runs before the budget reset, the synthetic promote-hit of
# insert-promote/both runs *after* the base fill (for SHiP that increments
# the incoming signature's SHCT counter, exactly as the scalar model
# does), and victim selection walks the base's preference order skipping
# protected ways, with the "nothing protected in this set" short-circuit
# kept O(1) by a per-set protected-way count.

_FAMILY_ORACLE_LRU = 0
_FAMILY_ORACLE_SRRIP = 1
_FAMILY_ORACLE_SHIP = 2

# Exact base-policy type -> family code. Subclasses (LIP, BRRIP, DRRIP,
# undeclared user policies) are deliberately absent: they change fill or
# victim behaviour and must take the object model.
_ORACLE_BASE_FAMILIES = {
    LruPolicy: _FAMILY_ORACLE_LRU,
    SrripPolicy: _FAMILY_ORACLE_SRRIP,
    ShipPolicy: _FAMILY_ORACLE_SHIP,
}

_ORACLE_MODES = {"victim-exempt": 0, "insert-promote": 1, "both": 2}
_ORACLE_RELEASES = {"budget": 0, "first-share": 1, "never": 2}

def _oracle_count_compact(blocks, cores, hints, sigs, num_sets: int,
                          ways: int, family: int, mode: int, release: int,
                          rmax: int, cmax: int, shct):
    """Count-mode wrapped replay over flat per-set lists.

    Returns ``(hits, protected_fills, exemptions, releases)`` — the hit
    count plus the wrapper's three study counters, bit-exact against
    ``SharedLlc.access`` driving ``SharingAwareWrapper`` (the differential
    suite pins every (family, mode, release) cell). ``sigs``/``shct`` are
    only read by the SHiP family; ``rmax``/``cmax`` only by RRIP/SHiP.
    """
    set_mask = num_sets - 1
    where: dict = {}  # block -> (set, way)
    get = where.get
    blk_rows = [[0] * ways for __ in range(num_sets)]
    # LRU keeps recency stamps in meta, RRIP/SHiP keep RRPVs.
    init_meta = 0 if family == _FAMILY_ORACLE_LRU else rmax
    meta_rows = [[init_meta] * ways for __ in range(num_sets)]
    sig_rows = [[0] * ways for __ in range(num_sets)]
    out_rows = [[0] * ways for __ in range(num_sets)]
    budget_rows = [[0] * ways for __ in range(num_sets)]
    core_rows = [[0] * ways for __ in range(num_sets)]
    filled = [0] * num_sets
    protected = [0] * num_sets
    clock = 0
    hits = protected_fills = exemptions = released = 0
    for i, block in enumerate(blocks):
        entry = get(block)
        if entry is not None:
            s, way = entry
            hits += 1
            mrow = meta_rows[s]
            if family == _FAMILY_ORACLE_LRU:
                clock += 1
                mrow[way] = clock
            else:
                mrow[way] = 0
                if family == _FAMILY_ORACLE_SHIP:
                    orow = out_rows[s]
                    if not orow[way]:
                        orow[way] = 1
                        g2 = sig_rows[s][way]
                        if shct[g2] < cmax:
                            shct[g2] += 1
            if release != 2:
                brow = budget_rows[s]
                b = brow[way]
                if b > 0 and cores[i] != core_rows[s][way]:
                    b = 0 if release == 1 else b - 1
                    brow[way] = b
                    if b == 0:
                        protected[s] -= 1
                        released += 1
            continue
        s = block & set_mask
        mrow = meta_rows[s]
        brow = budget_rows[s]
        f = filled[s]
        if f < ways:
            way = f
            filled[s] = f + 1
        else:
            exempt = mode != 1 and protected[s] > 0
            if family == _FAMILY_ORACLE_LRU:
                # first = the base's unconstrained pick (argmin stamp,
                # lowest way on ties — list.index semantics).
                first = 0
                first_stamp = mrow[0]
                for w in range(1, ways):
                    if mrow[w] < first_stamp:
                        first, first_stamp = w, mrow[w]
                way = first
                if exempt:
                    best = -1
                    best_stamp = 0
                    for w in range(ways):
                        if brow[w] <= 0 and (best < 0 or mrow[w] < best_stamp):
                            best, best_stamp = w, mrow[w]
                    if best >= 0:
                        way = best
                        if way != first:
                            exemptions += 1
            else:
                # SRRIP aging exactly as rank_victims/select_victim do
                # (closed-form delta), then walk descending-RRPV order.
                top = max(mrow)
                if top != rmax:
                    delta = rmax - top
                    for w in range(ways):
                        mrow[w] += delta
                first = mrow.index(rmax)
                way = first
                if exempt:
                    best = -1
                    for v in range(rmax, -1, -1):
                        for w in range(ways):
                            if mrow[w] == v and brow[w] <= 0:
                                best = w
                                break
                        if best >= 0:
                            break
                    if best >= 0:
                        way = best
                        if way != first:
                            exemptions += 1
            victim = blk_rows[s][way]
            del where[victim]
            if family == _FAMILY_ORACLE_SHIP and not out_rows[s][way]:
                g2 = sig_rows[s][way]
                if shct[g2] > 0:
                    shct[g2] -= 1
            if brow[way] > 0:
                protected[s] -= 1
                brow[way] = 0
        # Fill: base first, then the wrapper's protection bookkeeping and
        # (insert-promote/both) the synthetic promote-hit.
        if family == _FAMILY_ORACLE_LRU:
            clock += 1
            mrow[way] = clock
        elif family == _FAMILY_ORACLE_SRRIP:
            mrow[way] = rmax - 1
        else:
            g = sigs[i]
            sig_rows[s][way] = g
            out_rows[s][way] = 0
            mrow[way] = rmax if shct[g] == 0 else rmax - 1
        h = hints[i]
        brow[way] = h
        core_rows[s][way] = cores[i]
        if h > 0:
            protected[s] += 1
            protected_fills += 1
            if mode != 0:
                if family == _FAMILY_ORACLE_LRU:
                    clock += 1
                    mrow[way] = clock
                else:
                    mrow[way] = 0
                    if family == _FAMILY_ORACLE_SHIP:
                        out_rows[s][way] = 1
                        g = sig_rows[s][way]
                        if shct[g] < cmax:
                            shct[g] += 1
        blk_rows[s][way] = block
        where[block] = (s, way)
    return hits, protected_fills, exemptions, released


def oracle_native_spec(policy):
    """``(family, base, hint_source)`` when the native oracle path covers
    ``policy``, else ``None``.

    The guards mirror :func:`native_eligible`, extended across the
    composition: the wrapper itself must be the exact class and unbound,
    its base an exact-type unbound {LRU, SRRIP, SHiP}, and its hint source
    an exact :class:`repro.oracle.annotate.AnnotationHintSource` (any
    cap: the kernel reads its int32 budgets directly). Anything else —
    undeclared subclasses, bound instances, live predictor hint sources —
    takes the object model.
    """
    # Imported lazily: repro.oracle pulls in the replay dispatch at module
    # import, so a top-level import here would be circular.
    from repro.oracle.annotate import AnnotationHintSource
    from repro.oracle.wrapper import SharingAwareWrapper

    if type(policy) is not SharingAwareWrapper or policy.geometry is not None:
        return None
    base = policy.base
    family = _ORACLE_BASE_FAMILIES.get(type(base))
    if family is None or base.geometry is not None:
        return None
    source = policy.hint_source
    if type(source) is not AnnotationHintSource:
        return None
    return family, base, source


def replay_oracle_nativepath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy,
    profile=None,
) -> Optional[LlcSimResult]:
    """Replay ``stream`` under an unbound oracle wrapper, natively.

    Classification twin of the object-model replay:
    same hit/miss counts *and* the wrapper's study counters
    (``protected_fills``/``exemptions_applied``/``releases``) written back
    onto the instance — :func:`repro.oracle.runner.run_oracle_variants`
    reads them off the wrapper after the replay, whichever backend ran.
    The wrapper and its base stay unbound. Returns ``None`` (caller falls
    back) when the wrapper is not native-eligible or its annotation is not
    aligned with this stream.
    """
    spec = oracle_native_spec(policy)
    if spec is None:
        return None
    family, base, source = spec
    budgets = source.budgets
    n = len(stream.blocks)
    if len(budgets) != n + 1:
        # The annotation was built for a different stream; hints cannot be
        # exported by ordinal. The model reproduces whatever (possibly
        # out-of-range) hints the closure would serve.
        return None
    start = perf_counter()
    mode = _ORACLE_MODES[policy.mode]
    release = _ORACLE_RELEASES[policy.release]
    if family == _FAMILY_ORACLE_SHIP:
        rmax = base.rrpv_max
        cmax = base.counter_max
        sig_mask = base.shct_size - 1
        shct = list(base._shct)  # never mutate the caller's instance
    else:
        rmax = base.rrpv_max if family == _FAMILY_ORACLE_SRRIP else 0
        cmax = 0
        sig_mask = 0
        shct = [0]
    prep_start = perf_counter()
    # budgets[i + 1] is access i's hint: one column aligned with the stream.
    hints = budgets[1:]
    sigs = (
        _hash_pcs(stream.pcs, sig_mask)
        if family == _FAMILY_ORACLE_SHIP else None
    )
    if profile is not None:
        profile["native_prepare"] = perf_counter() - prep_start
    kernel_start = perf_counter()
    hits, pf, ex, rel = _oracle_count_compact(
        stream.blocks, stream.cores, hints, sigs, geometry.num_sets,
        geometry.ways, family, mode, release, rmax, cmax, shct,
    )
    if profile is not None:
        profile["native_kernel"] = perf_counter() - kernel_start
        profile["native_backend"] = BACKEND_COMPACT
    policy.protected_fills += pf
    policy.exemptions_applied += ex
    policy.releases += rel
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=REPLAY_SCALAR,
        backend=BACKEND_COMPACT,
    )


# ----------------------------------------------------------------------
# Replay entry point + dispatch
# ----------------------------------------------------------------------

def replay_ship_nativepath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ShipPolicy,
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under an unbound SHiP instance, natively.

    Drop-in classification twin of the object-model replay of ``policy``:
    same hit/miss counts (differential-tested, including hypothesis streams), recorded
    with the scalar tier — this is a faster *backend* for that tier, not
    a new tier — and the kernel that produced the counters in
    ``result.backend``. The policy instance is left unbound (the kernel
    reads only its configuration: ``rrpv_max``, SHCT geometry, and the
    initial counter value).

    ``profile``, when a dict, receives ``native_prepare`` /
    ``native_kernel`` wall times and the chosen ``native_backend``.
    """
    start = perf_counter()
    n = len(stream.blocks)
    rmax = policy.rrpv_max
    cmax = policy.counter_max
    sig_mask = policy.shct_size - 1
    shct = list(policy._shct)  # never mutate the caller's instance
    prep_start = perf_counter()
    sigs = _hash_pcs(stream.pcs, sig_mask)
    if profile is not None:
        profile["native_prepare"] = perf_counter() - prep_start
    kernel_start = perf_counter()
    hits = _ship_count_compact(
        stream.blocks, sigs, geometry.num_sets, geometry.ways, rmax,
        cmax, shct,
    )
    if profile is not None:
        profile["native_kernel"] = perf_counter() - kernel_start
        profile["native_backend"] = BACKEND_COMPACT
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=REPLAY_SCALAR,
        backend=BACKEND_COMPACT,
    )


def native_eligible(policy) -> bool:
    """True when ``policy`` (name or instance) can take the native backend.

    Mirrors the two-guard discipline of the set-partitioned engine: the
    kernel is keyed by *exact* type — an undeclared :class:`ShipPolicy`
    subclass must not ride the parent's kernel — and a bound instance may
    carry pre-seeded SHCT/RRPV state no offline kernel reconstructs.
    """
    if isinstance(policy, str):
        return policy == "ship"
    return type(policy) is ShipPolicy and policy.geometry is None


def try_native_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy,
    observers: Tuple = (),
    native: Optional[bool] = None,
    profile=None,
) -> Optional[LlcSimResult]:
    """Native replay of a scalar-tier policy, or ``None`` to fall back.

    Returns ``None`` — caller proceeds to the scalar model — whenever the
    backend is gated off (``native=False`` or ``REPRO_SIM_NO_NATIVE``),
    observers need the full residency callback stream, or the policy is
    neither an exact-type unbound SHiP (name or instance) nor an
    exact-type unbound :class:`SharingAwareWrapper` over {LRU, SRRIP,
    SHiP} with an annotation-backed hint source (see
    :func:`oracle_native_spec`). ``policy`` given as the name ``"ship"``
    constructs the registry default, matching what the scalar fallback
    would build.
    """
    if observers or not native_enabled(native):
        return None
    if native_eligible(policy):
        instance = policy if isinstance(policy, ShipPolicy) else ShipPolicy()
        return replay_ship_nativepath(
            stream, geometry, instance, profile=profile
        )
    if isinstance(policy, str):
        return None
    return replay_oracle_nativepath(stream, geometry, policy, profile=profile)
