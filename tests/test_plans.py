"""Plan-compiled SHIFT-SPLIT vs the interpreted ``*_uncached`` oracle:
bit-identity, I/O-trace identity of the bulk-load drivers, and the
plan-cache machinery itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    apply_chunk_nonstandard,
    apply_chunk_nonstandard_uncached,
    apply_chunk_standard,
    apply_chunk_standard_uncached,
    clear_plan_caches,
    extract_region_transform_standard,
    extract_region_transform_standard_uncached,
    get_standard_plan,
    plan_cache_stats,
    split_contributions_nonstandard,
    split_weights_nonstandard,
)
from repro.storage.dense import DenseNonStandardStore, DenseStandardStore
from repro.storage.tiled import TiledNonStandardStore, TiledStandardStore
from repro.transform.chunked import (
    _CrestBuffer,
    transform_nonstandard_chunked,
    transform_standard_chunked,
)
from repro.util.morton import rowmajor_chunks, zorder_chunks
from repro.wavelet.keys import NonStandardKey

# Small randomized geometries: per-axis domain exponents in [2, 5],
# chunk exponents in [1, domain exponent], 1-3 dimensions.
standard_geometries = st.integers(1, 3).flatmap(
    lambda ndim: st.tuples(
        st.lists(st.integers(2, 5), min_size=ndim, max_size=ndim),
        st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim),
        st.integers(1, 2),
        st.integers(0, 10**6),
    )
)


def _standard_case(geometry):
    domain_exp, chunk_raw, block_exp, seed = geometry
    shape = tuple(1 << e for e in domain_exp)
    chunk = tuple(
        1 << min(c, e) for c, e in zip(chunk_raw, domain_exp)
    )
    block_edge = 1 << min(block_exp, min(domain_exp))
    return shape, chunk, block_edge, seed


class TestStandardPlanEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(standard_geometries, st.booleans())
    def test_cached_matches_uncached(self, geometry, fresh):
        shape, chunk, block_edge, seed = _standard_case(geometry)
        rng = np.random.default_rng(seed)
        grid = tuple(
            int(rng.integers(0, extent // ce))
            for extent, ce in zip(shape, chunk)
        )
        data = rng.standard_normal(chunk)

        tiled_plan = TiledStandardStore(shape, block_edge=block_edge)
        tiled_base = TiledStandardStore(shape, block_edge=block_edge)
        dense_plan = DenseStandardStore(shape)
        dense_base = DenseStandardStore(shape)
        apply_chunk_standard(tiled_plan, data, grid, fresh=fresh)
        apply_chunk_standard(dense_plan, data, grid, fresh=fresh)
        apply_chunk_standard_uncached(tiled_base, data, grid, fresh=fresh)
        apply_chunk_standard_uncached(dense_base, data, grid, fresh=fresh)

        assert np.array_equal(tiled_plan.to_array(), tiled_base.to_array())
        assert np.array_equal(dense_plan.to_array(), dense_base.to_array())
        assert tiled_plan.stats.snapshot() == tiled_base.stats.snapshot()
        assert dense_plan.stats.snapshot() == dense_base.stats.snapshot()

    @settings(max_examples=10, deadline=None)
    @given(standard_geometries)
    def test_extract_matches_uncached(self, geometry):
        shape, chunk, block_edge, seed = _standard_case(geometry)
        rng = np.random.default_rng(seed)
        grid = tuple(
            int(rng.integers(0, extent // ce))
            for extent, ce in zip(shape, chunk)
        )
        corner = tuple(g * ce for g, ce in zip(grid, chunk))
        store = TiledStandardStore(shape, block_edge=block_edge)
        transform_standard_chunked(store, rng.standard_normal(shape), chunk)
        mirror = TiledStandardStore(shape, block_edge=block_edge)
        mirror.set_region(
            [np.arange(extent) for extent in shape], store.to_array()
        )
        got = extract_region_transform_standard(store, corner, chunk)
        want = extract_region_transform_standard_uncached(
            mirror, corner, chunk
        )
        assert np.array_equal(got, want)


class TestNonStandardPlanEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def test_cached_matches_uncached(self, ndim, n, m_raw, fresh, seed):
        m = min(m_raw, n)
        size, edge = 1 << n, 1 << m
        rng = np.random.default_rng(seed)
        grid = tuple(int(g) for g in rng.integers(0, size // edge, ndim))
        data = rng.standard_normal((edge,) * ndim)

        tiled_plan = TiledNonStandardStore(size, ndim, block_edge=2)
        tiled_base = TiledNonStandardStore(size, ndim, block_edge=2)
        dense_plan = DenseNonStandardStore(size, ndim)
        dense_base = DenseNonStandardStore(size, ndim)
        apply_chunk_nonstandard(tiled_plan, data, grid, fresh=fresh)
        apply_chunk_nonstandard(dense_plan, data, grid, fresh=fresh)
        apply_chunk_nonstandard_uncached(tiled_base, data, grid, fresh=fresh)
        apply_chunk_nonstandard_uncached(dense_base, data, grid, fresh=fresh)

        assert np.array_equal(tiled_plan.to_array(), tiled_base.to_array())
        assert np.array_equal(dense_plan.to_array(), dense_base.to_array())
        assert tiled_plan.stats.snapshot() == tiled_base.stats.snapshot()

    def test_split_wrapper_matches_arrays(self):
        size, edge, grid = 64, 8, (3, 5)
        levels, nodes, masks, weights, scaling = split_weights_nonstandard(
            size, edge, grid
        )
        average = -1.625  # exactly representable
        details, scaling_delta = split_contributions_nonstandard(
            size, edge, grid, average
        )
        assert scaling_delta == average * scaling
        assert len(details) == len(weights)
        for (key, delta), level, node, mask, weight in zip(
            details, levels, nodes, masks, weights
        ):
            assert key == NonStandardKey(
                int(level), tuple(int(k) for k in node), int(mask)
            )
            assert delta == average * weight

    def test_split_weight_arrays_read_only(self):
        levels, __, __, weights, __ = split_weights_nonstandard(32, 4, (0, 0))
        with pytest.raises(ValueError):
            weights[0] = 0.0
        with pytest.raises(ValueError):
            levels[0] = 0


_CHUNK_ORDERS = {"rowmajor": rowmajor_chunks, "zorder": zorder_chunks}


def _chunks(data, chunk_shape, order):
    """``(grid_position, chunk)`` pairs in a driver's chunk order."""
    grid_shape = [n // m for n, m in zip(data.shape, chunk_shape)]
    for grid in _CHUNK_ORDERS[order](grid_shape):
        selector = tuple(
            slice(g * m, (g + 1) * m) for g, m in zip(grid, chunk_shape)
        )
        yield grid, data[selector]


class TestBulkLoadDrivers:
    """Each driver against a per-chunk loop of the ``_uncached`` oracle
    in the driver's chunk order, ending with ``flush()``."""

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from(["rowmajor", "zorder"]),
        st.integers(0, 10**6),
    )
    def test_standard_modes_bit_identical(self, ndim, order, seed):
        shape = (32,) * ndim if ndim < 3 else (16,) * ndim
        chunk = (8,) * ndim
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(shape)

        base = TiledStandardStore(shape, block_edge=4, pool_capacity=16)
        for grid, values in _chunks(data, chunk, order):
            apply_chunk_standard_uncached(base, values, grid, fresh=True)
        base.flush()
        cached = TiledStandardStore(shape, block_edge=4, pool_capacity=16)
        transform_standard_chunked(cached, data, chunk, order=order)

        assert np.array_equal(base.to_array(), cached.to_array())
        assert base.stats.snapshot() == cached.stats.snapshot()

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 2), st.booleans(), st.integers(0, 10**6))
    def test_nonstandard_modes_bit_identical(self, ndim, crest, seed):
        size, edge = 32, 8
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((size,) * ndim)

        def fresh_store():
            return TiledNonStandardStore(
                size, ndim, block_edge=4, pool_capacity=16
            )

        base = fresh_store()
        for grid, values in _chunks(data, (edge,) * ndim, "zorder"):
            apply_chunk_nonstandard_uncached(base, values, grid, fresh=True)
        base.flush()
        cached = fresh_store()
        transform_nonstandard_chunked(cached, data, edge, buffer_crest=crest)

        assert np.array_equal(base.to_array(), cached.to_array())
        # The crest buffer writes each SPLIT node once instead of
        # read-modify-writing it per chunk, so only the unbuffered
        # driver replays the oracle's I/O trace.
        if not crest:
            assert base.stats.snapshot() == cached.stats.snapshot()

    def test_sparse_pipeline_matches_serial(self):
        shape, chunk = (64, 64), (16, 16)
        rng = np.random.default_rng(5)
        data = np.zeros(shape)
        data[:16, 32:48] = rng.standard_normal((16, 16))

        base = TiledStandardStore(shape, block_edge=8, pool_capacity=16)
        for grid, values in _chunks(data, chunk, "rowmajor"):
            if np.any(values):
                apply_chunk_standard_uncached(base, values, grid, fresh=True)
        base.flush()
        cached = TiledStandardStore(shape, block_edge=8, pool_capacity=16)
        report = transform_standard_chunked(
            cached, data, chunk, skip_zero_chunks=True
        )

        assert np.array_equal(base.to_array(), cached.to_array())
        assert base.stats.snapshot() == cached.stats.snapshot()
        assert report.extras["skipped_chunks"] == 15


class TestPlanCacheMachinery:
    def test_cache_hits_on_repeat_geometry(self):
        before = plan_cache_stats()["standard_plans"]
        plan_a = get_standard_plan((64, 64), (16, 16), (1, 2))
        plan_b = get_standard_plan((64, 64), (16, 16), (1, 2))
        after = plan_cache_stats()["standard_plans"]
        assert plan_a is plan_b
        assert after["hits"] >= before["hits"] + 1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            get_standard_plan((64, 64), (16,), (0, 0))

    def test_region_compiles_charge_build_seconds(self):
        # A plan compiles its per-tile regions lazily, on its first use
        # against each tile edge; that compile time is charged to
        # build_seconds without counting as a plan build.
        clear_plan_caches()
        plan = get_standard_plan((32, 32), (8, 8), (1, 2))
        before = plan_cache_stats()["standard_plans"]
        store = TiledStandardStore((32, 32), block_edge=4)
        plan.apply(store, np.ones((8, 8)))
        after = plan_cache_stats()["standard_plans"]
        assert after["builds"] == before["builds"]
        assert after["build_seconds"] > before["build_seconds"]


class TestCrestBuffer:
    def test_completed_list_drains_once(self):
        crest = _CrestBuffer(ndim=2)
        key = lambda mask: NonStandardKey(3, (0, 0), mask)
        # gap 0 => 3 expected contributions (one per type mask).
        crest.add(key(1), 1.0, 0)
        crest.add(key(2), 2.0, 0)
        assert list(crest.pop_complete()) == []
        crest.add(key(3), 3.0, 0)
        popped = list(crest.pop_complete())
        assert len(popped) == 1
        (level, node), values = popped[0]
        assert (level, node) == (3, (0, 0))
        assert np.array_equal(values, [1.0, 2.0, 3.0])
        assert list(crest.pop_complete()) == []
        assert crest.is_empty()
