"""Multi-pass simulation helpers.

The standard experiment pipeline is:

1. :func:`record_llc_stream` — run the full hierarchy once (baseline LRU
   LLC) over a workload trace, recording the demand stream that reaches the
   LLC;
2. :func:`run_policy_on_stream` / :func:`run_opt` — replay that stream
   under each policy of interest (all passes see identical accesses).

:func:`run_policy_on_stream` is the one replay entry point of the
library: fast tier, then native backend, then the object model. Every
library caller that replays a stream goes through it.
"""

from typing import Optional, Tuple, Union
from weakref import WeakKeyDictionary

from repro.cache.hierarchy import HierarchyStats
from repro.cache.recorder import record_inclusive_lru
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry, MachineConfig
from repro.common.rng import derive_seed
from repro.policies.base import (
    REPLAY_DUELING,
    REPLAY_SET,
    REPLAY_STACK,
    ReplacementPolicy,
)
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import make_policy
from repro.sim import telemetry
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import (
    core_masks_fit,
    fastpath_enabled,
    replay_lru_fastpath,
)
from repro.sim.nativepath import try_native_replay
from repro.sim.results import LlcSimResult
from repro.sim.setpath import replay_setpath, setpath_tier_of
from repro.trace.trace import Trace


def record_llc_stream(
    trace: Trace, machine: MachineConfig
) -> Tuple[LlcStream, HierarchyStats]:
    """Run the baseline hierarchy over ``trace`` and record the LLC stream.

    The baseline is the paper's: private L1/L2 per core under an inclusive
    LRU LLC. The recorded stream is then replayed under every other policy.
    Bit-identical to ``CmpHierarchy(machine, LruPolicy(),
    record_stream=True)``, through the flattened recorder
    (:func:`repro.cache.recorder.record_inclusive_lru`).
    """
    stream, stats = record_inclusive_lru(trace, machine)
    stream.name = f"{trace.name}@{machine.name}"
    return stream, stats


def run_policy_on_stream(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: Union[str, ReplacementPolicy],
    seed: int = 0,
    observers: Tuple = (),
    fastpath: Optional[bool] = None,
    native: Optional[bool] = None,
) -> LlcSimResult:
    """Replay ``stream`` under a policy given by name or instance.

    The single replay entry point. It tries, in order:

    1. the fastest exact replay tier the policy declares — plain LRU
       takes the stack-distance path, the per-set policy matrix
       (LIP/BIP/NRU/SRRIP/BRRIP/random/OPT) the set-partitioned kernels,
       and DIP/DRRIP the two-phase dueling reconstruction;
    2. for scalar-tier policies, the native backend (exact unbound SHiP
       and annotation-backed oracle wrappers, no observers), unless
       ``native`` is False or ``REPRO_SIM_NO_NATIVE`` is set;
    3. the scalar object model (:class:`LlcOnlySimulator`) for everything
       else, and for every replay when ``fastpath`` is False or
       ``REPRO_SIM_NO_FASTPATH`` is set.

    All three are bit-identical, observer callbacks included; only
    ``result.tier``/``result.backend`` record which one ran. ``seed``
    feeds the standard ``derive_seed(seed, "replay", name)`` stream only
    when ``policy`` is a name; an instance carries its own seed, so
    callers with bespoke seed derivations pass instances.
    """
    if isinstance(policy, str):
        policy = make_policy(policy, seed=derive_seed(seed, "replay", policy))
    result = _try_fast_replay(
        stream, geometry, policy, observers, fastpath, native
    )
    if result is not None:
        return result
    simulator = LlcOnlySimulator(geometry, policy, observers=observers)
    return simulator.run(stream)


def _try_fast_replay(stream, geometry, policy, observers, fastpath,
                     native) -> Optional[LlcSimResult]:
    """Replay on a fast tier or the native backend, or ``None``.

    ``None`` is only ever returned before ``policy`` is touched — no
    binding, no ``set_rng`` draws, no counters written — so the caller's
    model fallback can replay the very same instance. Observer-carrying
    replays of streams whose core ids overflow the fast tiers' int64
    residency masks decline here too.
    """
    if not fastpath_enabled(fastpath):
        return None
    if observers and not core_masks_fit(stream):
        return None
    tier = setpath_tier_of(policy)
    if tier == REPLAY_STACK:
        result = replay_lru_fastpath(stream, geometry, observers=observers)
    elif tier in (REPLAY_SET, REPLAY_DUELING):
        if not isinstance(policy, ReplacementPolicy):
            return None
        result = replay_setpath(stream, geometry, policy, observers=observers)
    else:
        result = try_native_replay(
            stream, geometry, policy, observers=observers, native=native
        )
        if result is None:
            return None
    telemetry.emit(
        "span", stage="replay", policy=result.policy,
        stream=result.stream_name, wall_sec=round(result.elapsed_sec, 6),
        accesses=result.accesses, hits=result.hits, misses=result.misses,
        fastpath=True, tier=result.tier, backend=result.backend,
    )
    return result


_NEXT_USE_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()
"""Per-stream cache of the OPT next-use column (geometry-independent)."""


def stream_next_use(stream: LlcStream):
    """The stream's next-use column, computed once and shared.

    Next-use positions depend only on the block sequence — never on the
    geometry or policy — so one computation serves every OPT replay and
    every sweep cell over the same stream. Memoized weakly: the column
    dies with its stream.
    """
    next_use = _NEXT_USE_MEMO.get(stream)
    if next_use is None:
        next_use = compute_next_use(stream.blocks)
        _NEXT_USE_MEMO[stream] = next_use
    return next_use


def run_opt(
    stream: LlcStream,
    geometry: CacheGeometry,
    observers: Tuple = (),
    fastpath: Optional[bool] = None,
) -> LlcSimResult:
    """Replay ``stream`` under Belady's OPT (offline optimal).

    OPT's per-way next-use positions are indexed by the global stream
    ordinal, which the set partition preserves, so the replay takes the
    set-partitioned engine unless fast paths are disabled. The next-use
    column itself is geometry-independent and shared across calls
    (:func:`stream_next_use`).
    """
    return run_policy_on_stream(
        stream, geometry, BeladyOptPolicy(stream_next_use(stream)),
        observers=observers, fastpath=fastpath,
    )
