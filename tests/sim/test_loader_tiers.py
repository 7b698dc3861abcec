"""Sharing classification is identical for every stream loader and tier.

A recorded stream reaches the replay layer straight from the builder or
reloaded from a plain ``.rllc`` or a ``.rllc.gz`` file. Every form must
give the same observer outputs on every replay tier — not only the same
hit and miss counts, which survive a corrupted core mask, but the whole
:class:`HitBreakdown` (shared/private split, sharing-degree histograms).

The streams use eight cores so core 7 is present: an int8 core id
reaching ``1 << core`` would overflow to ``-128``. Two stream lengths are
covered, one either side of 4096 accesses.
"""

import random

import pytest

from repro.cache.stream_io import read_llc_stream, write_llc_stream
from repro.characterization.hits import SharingClassifier
from repro.common.config import CacheGeometry
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


@pytest.fixture(scope="module", params=(2048, 6144), ids=("small", "large"))
def streams(request, tmp_path_factory):
    built = make_stream(shared_accesses(request.param), name="loaders")
    root = tmp_path_factory.mktemp("loaders")
    loaded = {"built": built}
    for loader, filename in (("plain", "s.rllc"), ("gzip", "s.rllc.gz")):
        write_llc_stream(built, root / filename)
        loaded[loader] = read_llc_stream(root / filename)
    return loaded


def classify(stream, policy, fastpath):
    classifier = SharingClassifier()
    result = run_policy_on_stream(
        stream, GEOMETRY, policy, seed=SEED, observers=(classifier,),
        fastpath=fastpath,
    )
    return result, classifier.breakdown


@pytest.mark.parametrize("policy", ("lru", "srrip"))
@pytest.mark.parametrize("fastpath", (False, True), ids=("model", "fast"))
@pytest.mark.parametrize("loader", ("built", "plain", "gzip"))
def test_breakdown_matches_across_loader_and_tier(streams, loader,
                                                   fastpath, policy):
    ref_result, ref_breakdown = classify(streams["built"], policy, False)
    assert ref_result.backend == "model"
    assert streams[loader].num_cores == 8

    result, breakdown = classify(streams[loader], policy, fastpath)
    assert (result.backend == "model") is not fastpath
    assert (result.hits, result.misses) == (ref_result.hits,
                                            ref_result.misses)
    assert breakdown == ref_breakdown
