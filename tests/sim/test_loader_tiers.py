"""Sharing classification is identical for every stream loader and tier.

A recorded stream reaches the replay layer in one of two forms: the
builder's (or the gzip reader's) ``array.array`` columns, or read-only
numpy views over an mmap'd plain ``.rllc`` file. Both forms must give the
same observer outputs on every replay tier — not only the same hit and
miss counts, which survive a corrupted core mask, but the whole
:class:`HitBreakdown` (shared/private split, sharing-degree histograms).

The streams use eight cores so core 7 is present: with int8 numpy core
ids, ``1 << core`` overflows to ``-128`` unless the replay converts the
columns to Python ints. Two stream lengths straddle the fast tiers'
vectorize threshold, so both metadata kernels (the pure-Python twin and
numpy) are covered.
"""

import random

import pytest

from repro.cache.stream_io import read_llc_stream, write_llc_stream
from repro.characterization.hits import SharingClassifier
from repro.common.config import CacheGeometry
from repro.sim.fastpath import VECTORIZE_THRESHOLD
from repro.sim.multipass import run_policy_on_stream
from tests.conftest import make_stream

GEOMETRY = CacheGeometry(16 * 4 * 64, 4)
SEED = 7


def shared_accesses(n=4000, blocks=160, cores=8, seed=5):
    """A deterministic eight-core stream with heavy cross-core reuse."""
    rng = random.Random(seed)
    return [
        (rng.randrange(cores), 0x400 + 8 * rng.randrange(6),
         rng.randrange(blocks), rng.random() < 0.2)
        for __ in range(n)
    ]


@pytest.fixture(scope="module", params=(
    VECTORIZE_THRESHOLD // 2, VECTORIZE_THRESHOLD * 3 // 2,
), ids=("python-kernel", "numpy-kernel"))
def streams(request, tmp_path_factory):
    built = make_stream(shared_accesses(request.param), name="loaders")
    path = tmp_path_factory.mktemp("loaders") / "loaders.rllc"
    write_llc_stream(built, path)
    return {"array": built, "mapped": read_llc_stream(path)}


def classify(stream, policy, fastpath):
    classifier = SharingClassifier()
    result = run_policy_on_stream(
        stream, GEOMETRY, policy, seed=SEED, observers=(classifier,),
        fastpath=fastpath,
    )
    return result, classifier.breakdown


def test_mapped_loader_yields_numpy_int8_cores(streams):
    import numpy as np

    assert isinstance(streams["mapped"].cores, np.ndarray)
    assert streams["mapped"].cores.dtype == np.int8
    assert streams["mapped"].num_cores == 8


@pytest.mark.parametrize("policy", ("lru", "srrip"))
@pytest.mark.parametrize("fastpath", (False, True), ids=("model", "fast"))
@pytest.mark.parametrize("loader", ("array", "mapped"))
def test_breakdown_matches_across_loader_and_tier(streams, loader,
                                                   fastpath, policy):
    ref_result, ref_breakdown = classify(streams["array"], policy, False)
    assert ref_result.backend == "model"

    result, breakdown = classify(streams[loader], policy, fastpath)
    assert (result.backend == "model") is not fastpath
    assert (result.hits, result.misses) == (ref_result.hits,
                                            ref_result.misses)
    assert breakdown == ref_breakdown
