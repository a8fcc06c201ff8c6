"""Tests for the bulk transformation drivers (Section 5.1, Results 1-2)
and the Vitter et al. baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dense import DenseNonStandardStore, DenseStandardStore
from repro.storage.tiled import TiledNonStandardStore, TiledStandardStore
from repro.transform.chunked import (
    transform_nonstandard_chunked,
    transform_standard_chunked,
)
from repro.transform.vitter import vitter_io_cost, vitter_transform_standard
from repro.util.bits import ilog2
from repro.wavelet.nonstandard import nonstandard_dwt
from repro.wavelet.standard import standard_dwt


class TestStandardDriver:
    @given(
        st.sampled_from([(16,), (16, 8), (8, 8, 8)]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_transform(self, shape, seed):
        data = np.random.default_rng(seed).normal(size=shape)
        store = DenseStandardStore(shape)
        chunk = tuple(max(2, extent // 4) for extent in shape)
        report = transform_standard_chunked(store, data, chunk)
        assert np.allclose(store.to_array(), standard_dwt(data))
        assert report.chunks == int(
            np.prod([n // m for n, m in zip(shape, chunk)])
        )
        assert report.source_reads == int(np.prod(shape))

    def test_callable_source(self):
        data = np.random.default_rng(1).normal(size=(16, 16))

        def source(grid_position):
            gx, gy = grid_position
            return data[gx * 4 : (gx + 1) * 4, gy * 4 : (gy + 1) * 4]

        store = DenseStandardStore((16, 16))
        transform_standard_chunked(store, source, (4, 4))
        assert np.allclose(store.to_array(), standard_dwt(data))

    def test_io_cost_matches_result_1(self):
        """(N/M)^d (M + log(N/M))^d write-side coefficient touches; the
        SPLIT part is read-modify-write so reads add the split term."""
        shape, chunk = (64, 64), (8, 8)
        data = np.random.default_rng(2).normal(size=shape)
        store = DenseStandardStore(shape)
        report = transform_standard_chunked(store, data, chunk)
        chunks = (64 // 8) ** 2
        per_chunk_total = (8 + 3) ** 2
        assert store.stats.coefficient_writes == chunks * per_chunk_total
        assert report.coefficient_ios >= chunks * per_chunk_total

    def test_bad_order_rejected(self):
        store = DenseStandardStore((8,))
        with pytest.raises(ValueError):
            transform_standard_chunked(
                store, np.zeros(8), (4,), order="diagonal"
            )

    @pytest.mark.parametrize(
        "chunk_shape",
        [(4, 4, 4), (4,), (16, 4), (8, 16)],
        ids=["extra-axis", "missing-axis", "too-large", "too-large-last"],
    )
    def test_malformed_chunk_shape_rejected(self, chunk_shape):
        store = DenseStandardStore((8, 8))
        with pytest.raises(ValueError, match="chunk_shape"):
            transform_standard_chunked(store, np.ones((8, 8)), chunk_shape)
        assert store.stats.coefficient_ios == 0

    def test_tiled_store_and_dense_store_agree(self):
        data = np.random.default_rng(3).normal(size=(32, 32))
        dense = DenseStandardStore((32, 32))
        tiled = TiledStandardStore((32, 32), block_edge=4, pool_capacity=32)
        transform_standard_chunked(dense, data, (8, 8))
        transform_standard_chunked(tiled, data, (8, 8))
        assert np.allclose(dense.to_array(), tiled.to_array())


class TestNonStandardDriver:
    @given(
        st.sampled_from([(16, 1), (16, 2), (8, 3)]),
        st.sampled_from(["zorder", "rowmajor"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_transform(self, geometry, order, buffered, seed):
        size, ndim = geometry
        data = np.random.default_rng(seed).normal(size=(size,) * ndim)
        store = DenseNonStandardStore(size, ndim)
        transform_nonstandard_chunked(
            store, data, 4, order=order, buffer_crest=buffered
        )
        assert np.allclose(store.to_array(), nonstandard_dwt(data))

    def test_zorder_buffer_is_paper_bound(self):
        """With z-order, the crest never exceeds (2^d - 1) log(N/M)."""
        size, chunk, ndim = 64, 4, 2
        data = np.random.default_rng(4).normal(size=(size, size))
        store = DenseNonStandardStore(size, ndim)
        report = transform_nonstandard_chunked(
            store, data, chunk, order="zorder", buffer_crest=True
        )
        bound = ((1 << ndim) - 1) * (ilog2(size) - ilog2(chunk))
        assert report.max_buffer_coefficients <= bound

    def test_buffered_reaches_optimal_io(self):
        """Result 2 with z-order + buffer: store-side writes == N^d."""
        size = 32
        data = np.random.default_rng(5).normal(size=(size, size))
        store = DenseNonStandardStore(size, 2)
        report = transform_nonstandard_chunked(
            store, data, 4, order="zorder", buffer_crest=True
        )
        assert store.stats.coefficient_writes == size * size
        assert store.stats.coefficient_reads == 0
        assert report.coefficient_ios == 2 * size * size

    def test_unbuffered_pays_split_io(self):
        size = 32
        data = np.random.default_rng(6).normal(size=(size, size))
        buffered = DenseNonStandardStore(size, 2)
        unbuffered = DenseNonStandardStore(size, 2)
        transform_nonstandard_chunked(
            buffered, data, 4, buffer_crest=True
        )
        transform_nonstandard_chunked(
            unbuffered, data, 4, order="rowmajor", buffer_crest=False
        )
        assert (
            unbuffered.stats.coefficient_ios
            > buffered.stats.coefficient_ios
        )

    @pytest.mark.parametrize(
        "chunk_edge", [0, 32], ids=["zero", "too-large"]
    )
    def test_malformed_chunk_edge_rejected(self, chunk_edge):
        store = DenseNonStandardStore(16, 2)
        with pytest.raises(ValueError, match="chunk_edge"):
            transform_nonstandard_chunked(
                store, np.ones((16, 16)), chunk_edge
            )
        assert store.stats.coefficient_ios == 0

    def test_tiled_nonstandard_agrees(self):
        data = np.random.default_rng(7).normal(size=(16, 16))
        tiled = TiledNonStandardStore(16, 2, block_edge=4, pool_capacity=16)
        transform_nonstandard_chunked(tiled, data, 4)
        assert np.allclose(tiled.to_array(), nonstandard_dwt(data))


class TestVitterBaseline:
    def test_produces_the_standard_transform(self):
        data = np.random.default_rng(8).normal(size=(16, 8))
        report = vitter_transform_standard(data)
        assert np.allclose(report.extras["transform"], standard_dwt(data))

    def test_measured_cost_matches_closed_form(self):
        data = np.random.default_rng(9).normal(size=(16, 16))
        report = vitter_transform_standard(data)
        assert report.store_stats.coefficient_ios == vitter_io_cost((16, 16))

    def test_cost_scales_as_n_log_n(self):
        small = vitter_io_cost((64, 64))
        large = vitter_io_cost((128, 128))
        # 4x the cells, 7/6 the levels: ratio between 4 and 5.
        assert 4.0 < large / small < 5.0

    def test_cost_is_memory_independent(self):
        """The baseline takes no memory parameter at all — Figure 11's
        flat line is structural."""
        assert vitter_io_cost((32, 32)) == vitter_io_cost((32, 32))
