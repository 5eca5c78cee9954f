"""Numpy-present vs numpy-absent: every vectorized kernel, bit for bit.

:mod:`repro.sim.vecmath` promises that each kernel's numpy array form
and pure-python scalar form execute the identical sequence of IEEE-754
operations. These tests run each suite twice — once normally, once with
``repro._optional._FORCE_FALLBACK`` monkeypatched on (numpy treated as absent)
— and assert bitwise-equal outputs per seed, up through a whole sharded
fleet run.
"""

from __future__ import annotations

import math
import multiprocessing

import pytest

from repro import _optional
from repro.errors import ConfigurationError
from repro.plan import MEMORY_SIZES
from repro.sim import vecmath
from repro.sim.fold import handler_components
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRng
from repro.sim.shard import FleetConfig, run_fleet_sharded, run_shard, shard_tenants
from repro.sim.workload import DiurnalWorkload


@pytest.fixture()
def fallback(monkeypatch):
    """Force the pure-python path while numpy stays importable."""
    def activate():
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
    return activate


def _floats(values):
    return [float(v) for v in values]


class TestUniformBlock:
    def test_block_matches_scalar_stream_and_resyncs_state(self, fallback):
        vec_rng = SeededRng(42, "ub")
        block = _floats(vec_rng.uniform_block(777))
        after_vec = vec_rng.random()

        fallback()
        py_rng = SeededRng(42, "ub")
        assert _floats(py_rng.uniform_block(777)) == block
        assert py_rng.random() == after_vec

    def test_interleaved_scalar_and_block_draws(self, fallback):
        def stream(rng):
            out = [rng.random()]
            out.extend(_floats(rng.uniform_block(100)))
            out.append(rng.random())
            out.extend(_floats(rng.uniform_block(3)))
            return out

        with_numpy = stream(SeededRng(9, "mix"))
        fallback()
        assert stream(SeededRng(9, "mix")) == with_numpy


_STEPS = (5, 0, 1, 700, 3)


def _draws(n):
    """One step's draws, ``(generator, block size)``, ``None`` for a scalar draw."""
    return [("first", None), ("first", n), ("first", n),
            ("second", n + 1), ("second", 1), ("second", None)]


def _twin_streams(seed, before_draw=lambda draw: None):
    """Scalar and block draws from two generators, taking turns."""
    rngs = {name: SeededRng(seed, name) for name in ("first", "second")}
    out = []
    draw = 0
    for n in _STEPS:
        for name, size in _draws(n):
            before_draw(draw)
            draw += 1
            rng = rngs[name]
            out.extend([rng.random()] if size is None else _floats(rng.uniform_block(size)))
    return out


def _reference_streams(seed):
    """The same draws, each one ``random.Random.random()``."""
    pyrandoms = {name: SeededRng(seed, name)._py for name in ("first", "second")}
    out = []
    for n in _STEPS:
        for name, size in _draws(n):
            out.extend(pyrandoms[name].random() for _ in range(1 if size is None else size))
    return out


# A generator whose stream the parent moved into numpy before forking.
_INHERITED = SeededRng(11, "inherited")


def _continue_inherited(n):
    return _floats(_INHERITED.uniform_block(n)) + [_INHERITED.random()]


class TestBlockGenerator:
    """Each generator's own numpy MT19937 continues its ``random.Random`` stream."""

    def test_interleaved_draws_match_random_random(self):
        for seed in (0, 7, 2017):
            assert _twin_streams(seed) == _reference_streams(seed)

    def test_a_forked_worker_draws_the_same_stream(self):
        head = _floats(_INHERITED.uniform_block(10))
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platforms
            pytest.skip("fork is not available")
        with context.Pool(1) as pool:
            in_worker = pool.map_async(_twin_streams, [3, 4]).get(timeout=120)
            inherited = pool.apply_async(_continue_inherited, (50,)).get(timeout=120)
        assert in_worker == [_reference_streams(seed) for seed in (3, 4)]
        reference = SeededRng(11, "inherited")._py
        assert head + inherited == [reference.random() for _ in range(61)]

    def test_fallback_flipped_between_draws(self, monkeypatch):
        # Every third draw runs with numpy off, so a block draw with numpy
        # off follows one with numpy on, and the other way round.
        def flip(draw):
            monkeypatch.setattr(_optional, "_FORCE_FALLBACK", draw % 3 == 1)

        assert _twin_streams(2017, flip) == _reference_streams(2017)

    def test_negative_block_size_is_refused(self):
        with pytest.raises(ConfigurationError):
            SeededRng(1, "neg").uniform_block(-1)


class TestPortableLog:
    def test_block_matches_scalar(self):
        xs = [1e-12, 0.1, 0.5, 0.9999, 1.0, 2.0, 1e6, 7.25e-3]
        blocked = _floats(vecmath.plog_block(
            vecmath.numpy_or_none().asarray(xs)
        ))
        assert blocked == [vecmath.plog(x) for x in xs]

    def test_close_to_libm(self):
        for x in (1e-9, 0.3, 1.5, 123.456, 1e9):
            assert math.isclose(vecmath.plog(x), math.log(x), rel_tol=1e-14)


class TestQuantileTables:
    def test_lognormal_table_sampling_matches(self, fallback):
        table = vecmath.lognormal_table(math.log(19000), 0.18, 3.4285714285714284)
        uniforms = _floats(SeededRng(3, "qt").uniform_block(4096))
        np = vecmath.numpy_or_none()
        vec = _floats(table.sample_block(np.asarray(uniforms)))
        fallback()
        assert table.sample_block(uniforms) == vec

    def test_exponential_gaps_including_exact_tail(self, fallback):
        tail_p = vecmath.exponential_table().tail_p
        uniforms = [0.0, 0.25, 0.5, tail_p - 1e-9, tail_p, 0.999999999, 0.25]
        np = vecmath.numpy_or_none()
        vec = _floats(vecmath.exponential_gaps(np.asarray(uniforms)))
        fallback()
        assert vecmath.exponential_gaps(uniforms) == vec
        # The tail branch really is the exact closed form.
        assert vec[4] == -vecmath.plog(1.0 - tail_p)


def _per_table_values(mu, sigma, scale, ppf, bits=16):
    """The per-table build the shared grid replaced, kept as the oracle.

    ``ppf(i)`` is ``norm_ppf(i / 2**bits)``: the caller computes each
    once, since calling it 65,535 times a table is the cost the grid saves.
    """
    size = 1 << bits
    values = [0.0] * (size + 1)
    for i in range(1, size):
        values[i] = scale * math.exp(mu + sigma * ppf(i))
    values[0] = values[1]
    values[size] = values[size - 1]
    return tuple(values)


class TestSharedNormalGrid:
    def test_tables_at_every_plan_size_equal_the_per_table_build(self, monkeypatch):
        # Every (mu, sigma, scale) the handler components draw with, each
        # storage backend at each deployable Lambda size.
        monkeypatch.setattr(vecmath, "_lognormal_tables", {})
        model = LatencyModel(rng=SeededRng(1, "grid"))
        for storage in ("s3", "dynamo"):
            for component in handler_components(storage):
                for memory in MEMORY_SIZES:
                    model.sample_block_vec(component, 0, memory)
        assert len(vecmath._lognormal_tables) > 40
        size = 1 << 16
        ppf = [None] + [vecmath.norm_ppf(i / size) for i in range(1, size)]
        for (mu, sigma, scale, bits), table in vecmath._lognormal_tables.items():
            assert table.values == _per_table_values(mu, sigma, scale, ppf.__getitem__, bits)

    def test_norm_ppf_runs_once_per_grid_point_per_process(self, monkeypatch, fallback):
        scalar_points, block_points = [], []
        norm_ppf, norm_ppf_block = vecmath.norm_ppf, vecmath._norm_ppf_block

        def counted(p):
            scalar_points.append(p)
            return norm_ppf(p)

        def counted_block(np, p):
            block_points.extend(p.tolist())
            return norm_ppf_block(np, p)

        def build_tables():
            monkeypatch.setattr(vecmath, "_normal_grids", {})
            monkeypatch.setattr(vecmath, "_lognormal_tables", {})
            for scale in (1.0, 1.5, 2.0, 3.4285714285714284):
                vecmath.lognormal_table(math.log(19000), 0.18, scale)
                vecmath.lognormal_table(math.log(2000), 0.3, scale)
            assert len(vecmath._lognormal_tables) == 8

        monkeypatch.setattr(vecmath, "norm_ppf", counted)
        monkeypatch.setattr(vecmath, "_norm_ppf_block", counted_block)
        build_tables()
        assert scalar_points == []
        assert block_points == [i / (1 << 16) for i in range(1, 1 << 16)]
        fallback()
        build_tables()
        assert scalar_points == block_points
        assert len(scalar_points) == (1 << 16) - 1 == 65_535

    def test_numpy_grid_equals_the_scalar_grid_bit_for_bit(self, monkeypatch):
        for bits in range(4, 17):
            monkeypatch.setattr(vecmath, "_normal_grids", {})
            with_numpy = [z.hex() for z in vecmath._normal_grid(bits)]
            monkeypatch.setattr(vecmath, "_normal_grids", {})
            monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
            scalar = [z.hex() for z in vecmath._normal_grid(bits)]
            monkeypatch.setattr(_optional, "_FORCE_FALLBACK", False)
            assert with_numpy == scalar, bits
            assert len(scalar) == (1 << bits) - 1


class TestVectorizedKernels:
    def test_sample_block_vec_identical_per_seed(self, fallback):
        model = LatencyModel(rng=SeededRng(9, "lat"))
        vec = [int(v) for v in model.sample_block_vec("s3.put", 2000, memory_mb=448)]
        fallback()
        again = LatencyModel(rng=SeededRng(9, "lat"))
        assert again.sample_block_vec("s3.put", 2000, memory_mb=448) == vec

    def test_arrival_batches_vec_identical_per_seed(self, fallback):
        def arrivals():
            workload = DiurnalWorkload(1500.0, SeededRng(7, "wl"))
            out = []
            for chunk in workload.arrival_batches_vec(days=3.0, chunk=512):
                out.extend(chunk)
            return out, workload.generated_total

        vec_stream, vec_total = arrivals()
        fallback()
        py_stream, py_total = arrivals()
        assert py_stream == vec_stream
        assert py_total == vec_total == len(vec_stream)
        assert vec_stream == sorted(vec_stream)

    def test_shard_map_identical(self, fallback):
        vec = [int(t) for t in shard_tenants(3000, 5)]
        fallback()
        assert shard_tenants(3000, 5) == vec


class TestFleetFallback:
    CONFIG = FleetConfig(
        tenants=300, daily_requests=10.0, days=1.5, seed=2017,
        logical_shards=8, latency_samples=128,
    )

    def test_single_shard_identical(self, fallback):
        vec = run_shard(self.CONFIG, 2)
        fallback()
        alt = run_shard(self.CONFIG, 2)
        assert alt.events == vec.events
        assert alt.billed_units == vec.billed_units
        assert alt.tenant_counts == vec.tenant_counts
        assert alt.latency_ms == vec.latency_ms
        assert alt.hod_hist == vec.hod_hist

    def test_whole_fleet_identical(self, fallback):
        vec = run_fleet_sharded(self.CONFIG, workers=1).determinism_digest()
        fallback()
        assert run_fleet_sharded(self.CONFIG, workers=1).determinism_digest() == vec
