"""Tests for the dense, tiled and naive coefficient stores: interface
equivalence, I/O-counting semantics, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonstandard_ops import apply_chunk_nonstandard
from repro.core.standard_ops import apply_chunk_standard
from repro.storage.dense import DenseNonStandardStore, DenseStandardStore
from repro.storage.naive import NaiveBlockedStandardStore
from repro.storage.tiled import TiledNonStandardStore, TiledStandardStore
from repro.wavelet.keys import NonStandardKey
from repro.wavelet.nonstandard import nonstandard_dwt
from repro.wavelet.standard import standard_dwt


class TestDenseStandardCounting:
    def test_set_counts_writes_only(self):
        store = DenseStandardStore((8, 8))
        store.set_region(
            [np.arange(2), np.arange(3)], np.ones((2, 3))
        )
        assert store.stats.coefficient_writes == 6
        assert store.stats.coefficient_reads == 0

    def test_add_counts_read_modify_write(self):
        store = DenseStandardStore((8, 8))
        store.add_region([np.arange(2), np.arange(2)], np.ones((2, 2)))
        assert store.stats.coefficient_reads == 4
        assert store.stats.coefficient_writes == 4

    def test_read_counts_reads(self):
        store = DenseStandardStore((8, 8))
        store.read_region([np.arange(4), np.arange(4)])
        assert store.stats.coefficient_reads == 16

    def test_point_ops(self):
        store = DenseStandardStore((8,))
        store.write_point((3,), 2.0)
        store.add_point((3,), 1.0)
        assert store.read_point((3,)) == 3.0

    def test_rank_mismatch_rejected(self):
        store = DenseStandardStore((8, 8))
        with pytest.raises(ValueError):
            store.read_region([np.arange(2)])


class TestTiledStandardEquivalence:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_random_operation_sequences_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        shape = (16, 8)
        dense = DenseStandardStore(shape)
        tiled = TiledStandardStore(shape, block_edge=4, pool_capacity=4)
        for __ in range(12):
            op = rng.integers(0, 3)
            axes = [
                np.unique(
                    rng.integers(0, extent, size=rng.integers(1, 5))
                )
                for extent in shape
            ]
            values = rng.normal(size=tuple(a.size for a in axes))
            if op == 0:
                dense.set_region(axes, values)
                tiled.set_region(axes, values)
            elif op == 1:
                dense.add_region(axes, values)
                tiled.add_region(axes, values)
            else:
                assert np.allclose(
                    dense.read_region(axes), tiled.read_region(axes)
                )
        assert np.allclose(dense.to_array(), tiled.to_array())

    def test_point_ops_roundtrip(self):
        tiled = TiledStandardStore((16, 16), block_edge=4)
        tiled.write_point((7, 9), 3.5)
        tiled.add_point((7, 9), 0.5)
        assert tiled.read_point((7, 9)) == 4.0

    def test_block_io_is_coarser_than_coefficients(self):
        """Writing a whole subtree region touches far fewer blocks
        than coefficients — the point of tiling."""
        tiled = TiledStandardStore((64,), block_edge=8, pool_capacity=8)
        indices = np.arange(32, 64)  # the leaf level: 32 coefficients
        tiled.set_region([indices], np.ones(32))
        tiled.flush()
        assert tiled.stats.block_writes <= 8

    def test_persistence_through_eviction(self):
        tiled = TiledStandardStore((64,), block_edge=4, pool_capacity=1)
        data = np.random.default_rng(3).normal(size=64)
        hat = standard_dwt(data)
        for index in range(64):
            tiled.write_point((index,), float(hat[index]))
        tiled.flush()
        assert np.allclose(tiled.to_array(), hat)


class TestNaiveBlockedStore:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        shape = (16, 16)
        dense = DenseStandardStore(shape)
        naive = NaiveBlockedStandardStore(shape, block_edge=4)
        for __ in range(8):
            axes = [
                np.unique(rng.integers(0, 16, size=rng.integers(1, 6)))
                for __ in range(2)
            ]
            values = rng.normal(size=tuple(a.size for a in axes))
            dense.set_region(axes, values)
            naive.set_region(axes, values)
        assert np.allclose(dense.to_array(), naive.to_array())

    def test_transform_lands_correctly(self):
        data = np.random.default_rng(5).normal(size=(16, 16))
        naive = NaiveBlockedStandardStore((16, 16), block_edge=4)
        apply_chunk_standard(naive, data, (0, 0))
        naive.flush()
        assert np.allclose(naive.to_array(), standard_dwt(data))

    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveBlockedStandardStore((8, 8), block_edge=16)


class TestTiledNonStandardEquivalence:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_chunked_loads_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        size, chunk = 16, 4
        data = rng.normal(size=(size, size))
        dense = DenseNonStandardStore(size, 2)
        tiled = TiledNonStandardStore(size, 2, block_edge=2, pool_capacity=8)
        for position in np.ndindex(size // chunk, size // chunk):
            block = data[
                position[0] * chunk : (position[0] + 1) * chunk,
                position[1] * chunk : (position[1] + 1) * chunk,
            ]
            apply_chunk_nonstandard(dense, block, position)
            apply_chunk_nonstandard(tiled, block, position)
        tiled.flush()
        expected = nonstandard_dwt(data)
        assert np.allclose(dense.to_array(), expected)
        assert np.allclose(tiled.to_array(), expected)

    def test_detail_ops(self):
        tiled = TiledNonStandardStore(8, 2, block_edge=2)
        key = NonStandardKey(2, (1, 0), 3)
        tiled.set_detail(key, 2.0)
        tiled.add_detail(key, 1.0)
        assert tiled.read_detail(key) == 3.0

    def test_scaling_ops(self):
        tiled = TiledNonStandardStore(8, 2, block_edge=2)
        tiled.set_scaling(4.0)
        tiled.add_scaling(-1.0)
        assert tiled.read_scaling() == 3.0

    def test_read_details_region(self):
        tiled = TiledNonStandardStore(16, 2, block_edge=4)
        values = np.arange(6, dtype=np.float64).reshape(2, 3)
        tiled.set_details(2, 1, (1, 0), values)
        read = tiled.read_details(2, 1, (1, 0), (2, 3))
        assert np.allclose(read, values)
        # Unwritten regions read as zero.
        assert np.allclose(tiled.read_details(1, 2, (0, 0), (2, 2)), 0.0)


class TestDuplicateIndexGuard:
    def test_dense_rejects_duplicates(self):
        store = DenseStandardStore((8, 8))
        with pytest.raises(ValueError):
            store.add_region(
                [np.asarray([1, 1]), np.arange(2)], np.ones((2, 2))
            )

    def test_tiled_rejects_duplicates_in_every_op(self):
        store = TiledStandardStore((8, 8), block_edge=2)
        duplicated = [np.asarray([3, 3]), np.arange(2)]
        with pytest.raises(ValueError, match="duplicates"):
            store.set_region(duplicated, np.ones((2, 2)))
        with pytest.raises(ValueError, match="duplicates"):
            store.add_region(duplicated, np.ones((2, 2)))
        with pytest.raises(ValueError, match="duplicates"):
            store.read_region(duplicated)
        assert store.tile_store.num_tiles == 0

    def test_naive_rejects_duplicates(self):
        store = NaiveBlockedStandardStore((8, 8), block_edge=2)
        with pytest.raises(ValueError):
            store.read_region([np.asarray([0, 0]), np.arange(2)])
