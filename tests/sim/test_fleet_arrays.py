"""Property tests of the sharded fleet's array path, numpy on and off.

The fleet keeps its arrivals, shard map and latency gathers in numpy
arrays from the thinning draw to the fold. These properties pin what
that must not change: the arrival stream does not depend on the chunk
size or on numpy, chunks are full but the last, the quantile sampler
gives the same bits either way (edges included), and the cached shard
map partitions every fleet size exactly as :func:`shard_of` does.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import _optional
from repro.errors import ConfigurationError
from repro.sim import vecmath
from repro.sim.rng import SeededRng
from repro.sim.shard import shard_of, shard_tenants
from repro.sim.workload import DiurnalWorkload
from repro.units import MICROS_PER_HOUR

np = vecmath.numpy_or_none()
needs_numpy = pytest.mark.skipif(np is None, reason="compares numpy with its fallback")


def _arrivals(rate, days, start_micros, chunk):
    workload = DiurnalWorkload(rate, SeededRng(31, "fleet-arrays"))
    chunks = list(workload.arrival_batches_vec(days, start_micros, chunk=chunk))
    return chunks, workload.generated_total


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(0.0, 3000.0),
    days=st.floats(0.0, 2.5),
    start_micros=st.integers(0, 72 * MICROS_PER_HOUR),
    chunks=st.lists(st.integers(1, 1500), min_size=2, max_size=2),
)
def test_arrival_stream_ignores_chunk_size_and_numpy(rate, days, start_micros, chunks):
    streams = []
    for force_fallback in (False, True):
        for chunk in chunks:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
                batches, total = _arrivals(rate, days, start_micros, chunk)
            for batch in batches:
                if force_fallback:
                    assert isinstance(batch, list)
                else:
                    assert isinstance(batch, np.ndarray) and batch.dtype == np.int64
            assert all(len(batch) == chunk for batch in batches[:-1])
            assert all(0 < len(batch) <= chunk for batch in batches)
            stream = [int(t) for batch in batches for t in batch]
            assert total == len(stream)
            streams.append(stream)
    assert all(stream == streams[0] for stream in streams)
    assert streams[0] == sorted(streams[0])


def _edges(table):
    tail_p = table.tail_p
    return [
        0.0,
        math.nextafter(1.0, 0.0),
        math.nextafter(tail_p, 0.0),
        tail_p,
        math.nextafter(tail_p, 1.0),
    ]


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64),
       which=st.sampled_from(["lognormal", "exponential"]))
def test_quantile_sampler_same_bits_with_and_without_numpy(uniforms, which):
    if which == "lognormal":
        table = vecmath.lognormal_table(math.log(19000), 0.18, 3.4285714285714284)
    else:
        table = vecmath.exponential_table()
    block = uniforms + _edges(table)
    array = np.asarray(block)
    vec = [float(v).hex() for v in table.sample_block(array)]
    assert array.tolist() == block, "sampling must not write into its input"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert [v.hex() for v in table.sample_block(block)] == vec


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 2500), min_size=2, max_size=2, unique=True),
    shards=st.sampled_from([1, 2, 7, 64, 257, 600]),
)
def test_shard_map_partitions_every_fleet_size(sizes, shards):
    # Two fleet sizes in one process, then the first again: the cached
    # map must be keyed by the tenant count as well as the shard count.
    for tenants in (*sizes, sizes[0]):
        owned = [[int(t) for t in shard_tenants(tenants, s, shards)] for s in range(shards)]
        seen = sorted(t for ids in owned for t in ids)
        assert seen == list(range(tenants))
        for shard_id, ids in enumerate(owned):
            assert ids == sorted(ids)
            assert all(shard_of(t, shards) == shard_id for t in ids)


@pytest.mark.parametrize("force_fallback", [False, True])
def test_shard_map_rejects_a_non_positive_shard_count(force_fallback):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_optional, "_FORCE_FALLBACK", force_fallback)
        for shards in (0, -3):
            with pytest.raises(ConfigurationError):
                shard_tenants(10, 0, shards)
