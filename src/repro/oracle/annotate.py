"""Building and consuming fill-time sharing annotations.

Two annotation flavours:

* :func:`build_stream_annotation` — **policy-free** (the oracle proper).
  For every stream position it counts the future accesses to that block by
  *other* cores within a retention horizon. A fill's positive budget means
  "this block will be shared during a residency of achievable length";
  the wrapper protects the block until those cross-core uses have been
  served. Because every position is annotated, fills occurring at
  positions that were hits under some other policy still find their
  budget — annotation and replay align by stream ordinal regardless of
  policy.
* :func:`build_sharing_annotation` — **policy-conditioned** ground truth:
  replays a concrete policy and logs each residency's realised cross-core
  uses at its fill ordinal. This is the per-residency truth the
  characterization and predictor studies consume; it is *not* useful as an
  oracle hint for the same policy (its budgets are exhausted exactly at the
  recorded eviction points, making the oracle a fixed point of the base).
"""

from array import array
from collections import deque
from typing import Dict, Optional, Union

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.oracle.residency import FillSharingLog
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import make_policy
from repro.sim.multipass import run_policy_on_stream

DEFAULT_HORIZON_FACTOR = 8
"""Retention horizon in units of LLC capacity (in blocks)."""

BUDGET_CAP = 127
"""Budgets saturate here; protection beyond ~100 uses changes nothing."""


def build_stream_annotation(
    stream: LlcStream,
    geometry: CacheGeometry,
    horizon_factor: int = DEFAULT_HORIZON_FACTOR,
    cap: int = BUDGET_CAP,
) -> array:
    """Annotate every stream position with its future cross-core uses.

    ``budgets[i + 1]`` (ordinals are 1-based) is the number of accesses to
    ``blocks[i]`` by cores other than ``cores[i]`` within the next
    ``horizon_factor * geometry.num_blocks`` stream positions, saturated at
    ``cap``. The horizon models the longest residency worth engineering
    for: sharing farther out than several full cache turnovers cannot be
    captured by any replacement decision made now.

    Runs the vectorized grouped-searchsorted pass, falling back to the
    reference backward scan (sliding-window deques) only when even dense
    ids cannot pack beside a position.
    """
    if horizon_factor <= 0 or cap <= 0:
        raise ConfigError("horizon_factor and cap must be positive")
    vectorized = _build_stream_annotation_numpy(
        stream, geometry, horizon_factor, cap
    )
    if vectorized is not None:
        return vectorized
    return _build_stream_annotation_python(stream, geometry, horizon_factor, cap)


def _build_stream_annotation_python(
    stream: LlcStream,
    geometry: CacheGeometry,
    horizon_factor: int,
    cap: int,
) -> array:
    """Reference backward scan: per block a deque of future (position, core)
    pairs trimmed to the sliding window, plus per-core counts inside it.
    O(stream length)."""
    horizon = horizon_factor * geometry.num_blocks
    cores_col, __, blocks_col, __ = stream.columns()
    n = len(stream)
    budgets = array("i", bytes(4 * (n + 1)))

    future: Dict[int, deque] = {}
    counts: Dict[int, list] = {}
    num_cores = max(stream.num_cores, 1)

    for i in range(n - 1, -1, -1):
        block = blocks_col[i]
        core = cores_col[i]
        block_future = future.get(block)
        if block_future is None:
            block_future = deque()
            future[block] = block_future
            counts[block] = [0] * (num_cores + 1)  # [-1] slot holds total
        block_counts = counts[block]
        limit = i + horizon
        while block_future and block_future[-1][0] > limit:
            __, dropped_core = block_future.pop()
            block_counts[dropped_core] -= 1
            block_counts[-1] -= 1
        budget = block_counts[-1] - block_counts[core]
        budgets[i + 1] = budget if budget < cap else cap
        block_future.appendleft((i, core))
        block_counts[core] += 1
        block_counts[-1] += 1

    return budgets


def _build_stream_annotation_numpy(
    stream: LlcStream,
    geometry: CacheGeometry,
    horizon_factor: int,
    cap: int,
) -> Optional[array]:
    """Vectorized annotation via packed-key sorts and one searchsorted each.

    Each access is packed into ``(group << shift) | position`` (with
    ``2^shift >= n``), so one values-only sort lines every group up as a
    contiguous run of ascending positions. For access ``i`` with window end
    ``limit``, the count of same-group accesses in ``(i, limit]`` is
    ``searchsorted(keys, (group << shift) | limit, 'right') - rank(i) - 1``.
    Doing this once grouped by block and once grouped by (block, core)
    yields total and same-core future counts; their difference is the
    cross-core budget. Blocks too large to pack are factorized to dense ids
    first; returns ``None`` when even dense ids cannot pack (caller falls
    back to the Python scan).
    """
    n = len(stream)
    budgets = array("i", bytes(4 * (n + 1)))
    if n == 0:
        return budgets
    horizon = horizon_factor * geometry.num_blocks
    cores_np, __, blocks_np, __ = stream.numpy_columns()
    num_cores = max(int(cores_np.max()) + 1, 1)
    shift = max(n - 1, 1).bit_length()

    groups = blocks_np
    # The (block, core) grouping needs block * num_cores + core to pack
    # beside a position; factorize when raw block addresses are too wide.
    if int(groups.min()) < 0 or (
        (int(groups.max()) * num_cores + num_cores) >> (63 - shift)
    ) != 0:
        __, groups = np.unique(groups, return_inverse=True)
        groups = groups.astype(np.int64, copy=False)
        if (n * num_cores) >> (63 - shift) != 0:
            return None

    positions = np.arange(n, dtype=np.int64)
    limits = np.minimum(positions + horizon, n - 1)
    mask = (1 << shift) - 1

    def future_counts(group_ids):
        keys = (group_ids << shift) | positions
        queries = (group_ids << shift) | limits
        keys.sort()
        ranks = np.empty(n, dtype=np.int64)
        ranks[keys & mask] = positions
        return np.searchsorted(keys, queries, side="right") - ranks - 1

    total = future_counts(groups)
    same_core = future_counts(groups * num_cores + cores_np.astype(np.int64))
    clipped = np.minimum(total - same_core, cap).astype(np.int32)
    # array('i') exposes a writable buffer; fill ordinals 1..n in place.
    np.frombuffer(budgets, dtype=np.int32)[1:] = clipped
    return budgets


def build_sharing_annotation(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: Union[str, ReplacementPolicy] = "lru",
    seed: int = 0,
) -> array:
    """Run ``policy`` over ``stream`` logging realised per-residency budgets.

    Returns ``budgets`` with ``budgets[fill_ordinal]`` holding the
    cross-core uses the residency starting at that fill served under this
    policy (zero at ordinals that were hits). See the module docstring for
    when to prefer this over :func:`build_stream_annotation`.
    """
    if isinstance(policy, str):
        policy = make_policy(policy, seed=derive_seed(seed, "annotate", policy))
    log = FillSharingLog(len(stream))
    run_policy_on_stream(stream, geometry, policy, observers=(log,))
    return log.budgets


class AnnotationHintSource:
    """A wrapper hint source backed by a precomputed annotation array.

    Matches :class:`SharingAwareWrapper`'s hint signature and keys into
    ``budgets`` by the wrapping LLC's current access ordinal (== the fill
    ordinal during an ``on_fill``). Being a recognizable *class* — rather
    than a closure — is what lets the native backend
    (:mod:`repro.sim.nativepath`) detect that a wrapper's hints are pure
    offline data and export them as a stream-aligned int column instead of
    calling back into Python per fill; ``budgets`` and ``cap`` are read
    for exactly that export. Exact type matters: a subclass that overrides
    ``__call__`` no longer guarantees ``hint(i) == budgets[i]`` and must
    fall back to the object model.
    """

    __slots__ = ("budgets", "cap")

    def __init__(self, budgets: array, cap: int = BUDGET_CAP):
        self.budgets = budgets
        self.cap = cap

    def __call__(self, llc, block: int, pc: int, core: int) -> int:
        return self.budgets[llc.access_count]


def oracle_hint_source(budgets: array, cap: int = BUDGET_CAP):
    """Adapt an annotation budget array into a wrapper hint source.

    Returns an :class:`AnnotationHintSource`; ``cap`` documents the
    saturation bound the budgets were built with (the native backend uses
    it to pick a safe hint-column dtype).
    """
    return AnnotationHintSource(budgets, cap=cap)
