"""Process-parallel scatter pool: bit-identity, I/O parity, error paths.

The acceptance contract of :func:`transform_standard_procpool`:

* **Bit-identity** — raw device blocks, tile directory and decoded
  array all equal the serial cached load, for any worker count, on
  both device backends.
* **I/O parity** — block reads and writes equal a serial cached load
  whose pool holds the entire tile footprint (0 reads; each tile
  written exactly once).  Ownership partitioning is what makes this
  possible: no tile is ever touched by two workers, so nothing is
  read back, re-merged, or written twice.
* **Fail-fast validation** — wrapped devices, pre-populated stores and
  un-forkable configurations raise :class:`ProcPoolError` before any
  worker starts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dense import DenseStandardStore
from repro.storage.journal import JournaledDevice
from repro.storage.mmap_device import MmapBlockDevice
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked
from repro.transform.procpool import (
    ProcPoolError,
    build_scatter_schedule,
    partition_ownership,
    transform_standard_procpool,
)

BLOCK_IO_FIELDS = ("block_reads", "block_writes", "journal_writes")


def _block_io(stats):
    return {field: getattr(stats, field) for field in BLOCK_IO_FIELDS}


def _serial_reference(shape, block_edge, data, chunk, **kwargs):
    """Serial cached load with the pool covering the whole footprint —
    the I/O-parity baseline (0 reads, one write per tile)."""
    store = TiledStandardStore(
        shape, block_edge=block_edge, pool_capacity=4096
    )
    transform_standard_chunked(store, data, chunk, **kwargs)
    store.flush()
    return store


def _procpool_store(shape, block_edge, data, chunk, device=None, **kwargs):
    store = TiledStandardStore(
        shape, block_edge=block_edge, pool_capacity=4096, device=device
    )
    transform_standard_procpool(store, data, chunk, **kwargs)
    return store


def _assert_same_store(reference, candidate):
    assert (
        candidate.tile_store.directory()
        == reference.tile_store.directory()
    )
    np.testing.assert_array_equal(
        candidate.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity check)
        reference.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity check)
    )
    np.testing.assert_array_equal(
        candidate.to_array(), reference.to_array()
    )


class TestBitIdentityAndParity:
    @settings(max_examples=6, deadline=None)
    @given(
        ndim=st.integers(1, 2),
        workers=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_matches_serial_cached_bit_for_bit(self, ndim, workers, seed):
        shape = (32,) * ndim
        chunk = (8,) * ndim
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(shape)

        reference = _serial_reference(shape, 4, data, chunk)
        pooled = _procpool_store(
            shape, 4, data, chunk, workers=workers
        )
        _assert_same_store(reference, pooled)
        assert _block_io(pooled.stats) == _block_io(reference.stats)

    def test_block_io_is_write_once_read_never(self):
        shape, chunk = (64, 64), (16, 16)
        data = np.random.default_rng(2).standard_normal(shape)
        pooled = _procpool_store(shape, 8, data, chunk, workers=2)
        num_tiles = pooled.tile_store.num_tiles
        assert num_tiles > 0
        assert _block_io(pooled.stats) == {
            "block_reads": 0,
            "block_writes": num_tiles,
            "journal_writes": 0,
        }

    def test_zorder_traversal_matches_too(self):
        shape, chunk = (32, 32), (8, 8)
        data = np.random.default_rng(5).standard_normal(shape)
        reference = _serial_reference(
            shape, 4, data, chunk, order="zorder"
        )
        pooled = _procpool_store(
            shape, 4, data, chunk, order="zorder", workers=3
        )
        _assert_same_store(reference, pooled)

    def test_sparse_skip_matches_serial(self):
        shape, chunk = (64, 64), (16, 16)
        data = np.zeros(shape)
        data[:16, 32:48] = np.random.default_rng(9).standard_normal(
            (16, 16)
        )
        reference = _serial_reference(
            shape, 8, data, chunk, skip_zero_chunks=True
        )
        pooled = _procpool_store(
            shape, 8, data, chunk, skip_zero_chunks=True, workers=2
        )
        _assert_same_store(reference, pooled)
        assert _block_io(pooled.stats) == _block_io(reference.stats)

    def test_report_accounting_matches_serial(self):
        shape, chunk = (32, 32), (8, 8)
        data = np.random.default_rng(13).standard_normal(shape)
        serial_store = TiledStandardStore(
            shape, block_edge=4, pool_capacity=4096
        )
        serial = transform_standard_chunked(serial_store, data, chunk)
        pooled_store = TiledStandardStore(
            shape, block_edge=4, pool_capacity=4096
        )
        pooled = transform_standard_procpool(
            pooled_store, data, chunk, workers=2
        )
        assert pooled.chunks == serial.chunks
        assert pooled.source_reads == serial.source_reads
        assert pooled.extras["mode"] == "procpool"
        assert pooled.extras["workers"] == 2


class TestMmapBackend:
    def test_mmap_load_matches_memory_serial(self, tmp_path):
        shape, chunk = (32, 32), (8, 8)
        data = np.random.default_rng(21).standard_normal(shape)
        reference = _serial_reference(shape, 4, data, chunk)
        device = MmapBlockDevice(
            tmp_path / "arena.blocks", block_slots=16
        )
        pooled = _procpool_store(
            shape, 4, data, chunk, device=device, workers=2
        )
        _assert_same_store(reference, pooled)
        assert _block_io(pooled.stats) == _block_io(reference.stats)
        device.close()

    def test_mmap_load_survives_reopen(self, tmp_path):
        shape, chunk = (32, 32), (8, 8)
        data = np.random.default_rng(22).standard_normal(shape)
        path = tmp_path / "arena.blocks"
        device = MmapBlockDevice(path, block_slots=16)
        pooled = _procpool_store(
            shape, 4, data, chunk, device=device, workers=2
        )
        image = pooled.tile_store.device.dump_blocks()  # lint: uncounted (bit-identity check)
        device.close()
        with MmapBlockDevice(path) as reopened:
            np.testing.assert_array_equal(
                reopened.dump_blocks(),  # lint: uncounted (bit-identity check)
                image,
            )


class TestOwnershipPartitioning:
    def test_ranges_are_disjoint_and_cover_all_tiles(self):
        shape, chunk = (64, 64), (16, 16)
        data = np.random.default_rng(3).standard_normal(shape)
        store = TiledStandardStore(
            shape, block_edge=8, pool_capacity=4096
        )
        positions = [
            tuple(position)
            for position in np.ndindex(*(s // c for s, c in zip(shape, chunk)))
        ]
        schedule = build_scatter_schedule(
            tuple(shape), tuple(chunk), store.tiling, "rowmajor", positions
        )
        for workers in (1, 2, 3, 5):
            ownership = partition_ownership(
                schedule, store.tiling, workers
            )
            seen = np.concatenate([owned for owned in ownership])
            assert len(seen) == len(set(seen.tolist()))
            assert sorted(seen.tolist()) == list(
                range(schedule.num_tiles)
            )


class TestErrorPaths:
    def _fresh(self):
        return TiledStandardStore((16, 16), block_edge=4)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            transform_standard_procpool(
                self._fresh(), np.zeros((16, 16)), (8, 8), workers=0
            )

    def test_requires_tiled_store(self):
        with pytest.raises(ProcPoolError, match="tiled standard store"):
            transform_standard_procpool(
                DenseStandardStore((16, 16)), np.zeros((16, 16)), (8, 8)
            )

    def test_refuses_wrapped_devices(self):
        store = self._fresh()
        store.tile_store.wrap_device(JournaledDevice)
        with pytest.raises(ProcPoolError, match="JournaledDevice"):
            transform_standard_procpool(
                store, np.zeros((16, 16)), (8, 8)
            )

    def test_refuses_pre_populated_stores(self):
        store = self._fresh()
        store.write_point((0, 0), 1.0)
        store.flush()
        with pytest.raises(ProcPoolError, match="fresh"):
            transform_standard_procpool(
                store, np.zeros((16, 16)), (8, 8)
            )

    def test_refuses_skip_zero_with_callable_source(self):
        def getter(grid_position):
            return np.zeros((8, 8))

        with pytest.raises(ProcPoolError, match="callable"):
            transform_standard_procpool(
                self._fresh(), getter, (8, 8), skip_zero_chunks=True
            )

    def test_worker_failure_rolls_back_directory(self):
        # Blocks are pre-allocated and the directory restored before
        # the workers run; when a worker fails, the half-loaded store
        # must not masquerade as populated: the directory is cleared
        # and the error says the orphaned blocks need a fresh store.
        def getter(grid_position):
            raise RuntimeError("injected source failure")

        store = self._fresh()
        with pytest.raises(ProcPoolError, match="orphaned"):
            transform_standard_procpool(store, getter, (8, 8), workers=2)
        assert store.tile_store.num_tiles == 0
        # The allocation cursor cannot roll back — that is exactly why
        # the error demands a fresh store/device for the retry.
        assert store.tile_store.device.num_blocks > 0
