"""The mmap device honours the exact simulated-device contract.

One parametrized suite runs the :class:`BlockDevice` invariants
(allocation, read/write cycles, IOStats math, bulk writes, the
uncounted persistence surface) against both backends; the rest covers
what only a file can do — reopen bit-identity after process exit,
torn-header CRC detection, geometry validation — and proves the
journal layer's torn-write detection runs unmodified on top.
"""

import os
import threading

import numpy as np
import pytest

from repro.storage.block_device import BlockDevice
from repro.storage.iostats import IOStats
from repro.storage.journal import CorruptBlockError, JournaledDevice
from repro.storage.mmap_device import (
    HEADER_BYTES,
    MAGIC,
    MmapBlockDevice,
    MmapFormatError,
)
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked


def _write_points(store, data):
    for position in np.ndindex(*data.shape):
        store.write_point(position, float(data[position]))


def _chunked_load(store, data):
    transform_standard_chunked(store, data, (8, 8))


@pytest.fixture(params=["memory", "mmap"])
def make_device(request, tmp_path):
    """A factory of fresh devices of the parametrized backend."""
    made = []
    counter = iter(range(10**6))

    def factory(block_slots, stats=None):
        if request.param == "memory":
            device = BlockDevice(block_slots, stats=stats)
        else:
            device = MmapBlockDevice(
                tmp_path / f"device-{next(counter)}.blocks",
                block_slots=block_slots,
                stats=stats,
            )
        made.append(device)
        return device

    yield factory
    for device in made:
        if hasattr(device, "close"):
            device.close()


class TestDeviceContract:
    """Invariants shared verbatim by both backends."""

    def test_ids_are_sequential(self, make_device):
        device = make_device(4)
        assert device.allocate() == 0
        assert device.allocate() == 1
        assert device.num_blocks == 2

    def test_allocation_charges_no_io(self, make_device):
        device = make_device(4)
        device.allocate()
        assert device.stats.block_ios == 0

    def test_fresh_block_reads_zero(self, make_device):
        device = make_device(4)
        block = device.allocate()
        assert np.array_equal(device.read_block(block), np.zeros(4))

    def test_write_then_read(self, make_device):
        device = make_device(4)
        block = device.allocate()
        payload = np.array([1.0, 2.0, 3.0, 4.0])
        device.write_block(block, payload)
        assert np.array_equal(device.read_block(block), payload)

    def test_read_returns_private_copy(self, make_device):
        device = make_device(2)
        block = device.allocate()
        device.write_block(block, np.array([1.0, 2.0]))
        copy = device.read_block(block)
        copy[0] = 99.0
        assert device.read_block(block)[0] == 1.0

    def test_io_counting(self, make_device):
        stats = IOStats()
        device = make_device(2, stats=stats)
        block = device.allocate()
        device.write_block(block, np.zeros(2))
        device.read_block(block)
        device.read_block(block)
        assert stats.block_writes == 1
        assert stats.block_reads == 2
        assert stats.block_ios == 3

    def test_unallocated_block_rejected(self, make_device):
        device = make_device(2)
        with pytest.raises(KeyError):
            device.read_block(0)
        with pytest.raises(KeyError):
            device.write_block(5, np.zeros(2))

    def test_wrong_shape_rejected(self, make_device):
        device = make_device(4)
        block = device.allocate()
        with pytest.raises(ValueError):
            device.write_block(block, np.zeros(3))

    def test_bytes_used(self, make_device):
        device = make_device(16)
        device.allocate()
        device.allocate()
        assert device.bytes_used() == 2 * 16 * 8

    def test_write_blocks_bulk_contract(self, make_device):
        device = make_device(3)
        ids = np.array([device.allocate() for __ in range(4)])
        rows = np.arange(12, dtype=np.float64).reshape(4, 3)
        device.write_blocks(ids[[2, 0]], rows[:2])
        assert device.stats.block_writes == 2
        assert np.array_equal(device.read_block(2), rows[0])
        assert np.array_equal(device.read_block(0), rows[1])
        assert np.array_equal(device.read_block(1), np.zeros(3))
        with pytest.raises(KeyError):
            device.write_blocks(np.array([99]), rows[:1])
        with pytest.raises(ValueError):
            device.write_blocks(ids[:1], rows[:2])

    def test_dump_restore_roundtrip_uncounted(self, make_device):
        device = make_device(2)
        for value in (3.0, 7.0):
            block = device.allocate()
            device.write_block(block, np.array([value, -value]))
        before = device.stats.snapshot()
        image = device.dump_blocks()  # lint: uncounted (persistence test)
        fresh = make_device(2)
        fresh.restore_blocks(image)  # lint: uncounted (persistence test)
        assert device.stats.delta_since(before).block_ios == 0
        assert fresh.num_blocks == 2
        assert np.array_equal(fresh.read_block(1), np.array([7.0, -7.0]))

    def test_peek_is_uncounted(self, make_device):
        device = make_device(2)
        block = device.allocate()
        device.write_block(block, np.array([5.0, 6.0]))
        before = device.stats.snapshot()
        peeked = device.peek_block(block)  # lint: uncounted (test probe)
        assert np.array_equal(peeked, np.array([5.0, 6.0]))
        assert device.stats.delta_since(before).block_ios == 0

    @pytest.mark.parametrize(
        "load, shape",
        [(_write_points, (8, 8)), (_chunked_load, (32, 32))],
        ids=["points", "chunked_load"],
    )
    def test_tiled_store_runs_on_either_backend(self, load, shape, tmp_path):
        # The whole tile-store stack is device-agnostic: the same load
        # through a pool smaller than the tile footprint gives the same
        # counters, bytes and directory on both backends, and the mmap
        # arena reopens bit-identical.
        data = np.random.default_rng(3).standard_normal(shape)
        path = tmp_path / "arena.blocks"
        with MmapBlockDevice(path, block_slots=16) as mapped_device:
            stores = []
            for device in (BlockDevice(16), mapped_device):
                store = TiledStandardStore(
                    shape, block_edge=4, pool_capacity=2, device=device
                )
                load(store, data)
                store.flush()
                stores.append(store)
            memory, mapped = stores
            assert mapped.tile_store.num_tiles > 2
            assert mapped.stats.snapshot() == memory.stats.snapshot()
            assert (
                mapped.tile_store.directory()
                == memory.tile_store.directory()
            )
            image = memory.tile_store.device.dump_blocks()  # lint: uncounted (bit-identity check)
            np.testing.assert_array_equal(
                mapped_device.dump_blocks(),  # lint: uncounted (bit-identity check)
                image,
            )
        with MmapBlockDevice(path) as reopened:
            np.testing.assert_array_equal(
                reopened.dump_blocks(),  # lint: uncounted (bit-identity check)
                image,
            )


class TestMmapPersistence:
    def _populate(self, path, blocks=5, slots=8, seed=11):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((blocks, slots))
        with MmapBlockDevice(path, block_slots=slots) as device:
            for row in rows:
                device.write_block(device.allocate(), row)
        return rows

    def test_reopen_is_bit_identical(self, tmp_path):
        path = tmp_path / "arena.blocks"
        rows = self._populate(path)
        with MmapBlockDevice(path) as reopened:
            assert reopened.block_slots == 8
            assert reopened.num_blocks == 5
            image = reopened.dump_blocks()  # lint: uncounted (bit-identity check)
        np.testing.assert_array_equal(image, rows)

    def test_reopen_survives_growth(self, tmp_path):
        # Cross a couple of geometric resizes, then reopen.
        path = tmp_path / "grown.blocks"
        with MmapBlockDevice(
            path, block_slots=4, capacity_blocks=1
        ) as device:
            for index in range(37):
                device.write_block(
                    device.allocate(), np.full(4, float(index))
                )
        with MmapBlockDevice(path) as reopened:
            assert reopened.num_blocks == 37
            assert np.array_equal(reopened.read_block(36), np.full(4, 36.0))

    def test_mismatched_block_slots_rejected(self, tmp_path):
        path = tmp_path / "arena.blocks"
        self._populate(path, slots=8)
        with pytest.raises(MmapFormatError, match="slots"):
            MmapBlockDevice(path, block_slots=16)

    def test_torn_header_crc_detected(self, tmp_path):
        path = tmp_path / "arena.blocks"
        self._populate(path)
        with open(path, "r+b") as handle:
            handle.seek(16)  # inside the covered next_id field
            handle.write(b"\xff")
        with pytest.raises(MmapFormatError, match="CRC"):
            MmapBlockDevice(path)

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "arena.blocks"
        with open(path, "wb") as handle:
            handle.write(b"NOTADEV!" + b"\x00" * (HEADER_BYTES - 8))
        with pytest.raises(MmapFormatError, match="magic"):
            MmapBlockDevice(path)
        assert MAGIC not in b"NOTADEV!"

    def test_truncated_image_detected(self, tmp_path):
        path = tmp_path / "arena.blocks"
        self._populate(path, blocks=5, slots=8)
        os.truncate(path, HEADER_BYTES + 2 * 8 * 8)  # header claims 5
        with pytest.raises(MmapFormatError, match="truncated"):
            MmapBlockDevice(path)

    def test_short_file_detected(self, tmp_path):
        path = tmp_path / "arena.blocks"
        with open(path, "wb") as handle:
            handle.write(b"junk")
        with pytest.raises(MmapFormatError, match="header"):
            MmapBlockDevice(path)

    def test_view_block_is_zero_copy_and_leak_detected(self, tmp_path):
        device = MmapBlockDevice(
            tmp_path / "arena.blocks", block_slots=4
        )
        block = device.allocate()
        view = device.view_block(block)  # lint: uncounted (zero-copy probe)
        device.write_block(block, np.array([1.0, 2.0, 3.0, 4.0]))
        assert view[1] == 2.0  # aliases the mapping
        with pytest.raises(ValueError):
            view[0] = 9.0  # read-only
        with pytest.raises(BufferError):
            device.close()  # live export: refuse to unmap
        # The refused close is recoverable — the device stays usable.
        assert not device.closed
        assert device.read_block(block)[1] == 2.0
        del view
        device.close()
        assert device.closed


class TestResizeSafety:
    """Growth must neither tear concurrent readers nor brick the
    device when the BufferError leak detector fires."""

    def test_concurrent_readers_survive_growth(self, tmp_path):
        # The serving stack reads while a single writer grows the
        # arena: no read may observe the view mid-remap (TypeError)
        # and no reader's transient export may abort the resize
        # (BufferError).
        device = MmapBlockDevice(
            tmp_path / "arena.blocks", block_slots=8, capacity_blocks=1
        )
        payload = np.arange(8, dtype=np.float64)
        device.write_block(device.allocate(), payload)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    got = device.read_block(0)
                except Exception as exc:
                    failures.append(repr(exc))
                    return
                if not np.array_equal(got, payload):
                    failures.append(f"torn read: {got!r}")
                    return

        threads = [threading.Thread(target=reader) for __ in range(4)]
        for thread in threads:
            thread.start()
        try:
            # Doubling from capacity 1 crosses ~11 resizes under load.
            for index in range(2000):
                device.write_block(
                    device.allocate(), np.full(8, float(index))
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert failures == []
        assert device.num_blocks == 2001
        device.close()

    def test_failed_growth_restores_the_mapping(self, tmp_path):
        device = MmapBlockDevice(
            tmp_path / "arena.blocks", block_slots=4, capacity_blocks=1
        )
        first = device.allocate()
        payload = np.array([1.0, 2.0, 3.0, 4.0])
        device.write_block(first, payload)
        view = device.view_block(first)  # lint: uncounted (leaked on purpose)
        with pytest.raises(BufferError):
            device.allocate()  # growth blocked by the live export
        # The failed grow rolled back cleanly: no phantom block, and
        # reads/writes keep working on the restored mapping.
        assert device.num_blocks == 1
        assert np.array_equal(device.read_block(first), payload)
        del view
        second = device.allocate()  # the grow now succeeds
        device.write_block(second, np.full(4, 7.0))
        assert np.array_equal(device.read_block(second), np.full(4, 7.0))
        device.close()


class TestJournalOverMmap:
    def test_group_commit_and_checksums_run_unmodified(self, tmp_path):
        stats = IOStats()
        raw = MmapBlockDevice(
            tmp_path / "arena.blocks", block_slots=4, stats=stats
        )
        journaled = JournaledDevice(raw)
        ids = [journaled.allocate() for __ in range(3)]
        pairs = [
            (block_id, np.full(4, float(block_id + 1)))
            for block_id in ids
        ]
        journaled.write_batch(pairs)
        assert stats.journal_writes == len(pairs) + 1  # data + commit
        assert stats.block_writes == len(pairs)
        for block_id, payload in pairs:
            assert np.array_equal(journaled.read_block(block_id), payload)
        raw.close()

    def test_torn_block_write_detected_after_reopen(self, tmp_path):
        # A crash that tears a block's bytes on disk must surface as
        # CorruptBlockError through the journal layer on the next read.
        path = tmp_path / "arena.blocks"
        with MmapBlockDevice(path, block_slots=4) as raw:
            journaled = JournaledDevice(raw)
            block = journaled.allocate()
            journaled.write_block(block, np.array([1.0, 2.0, 3.0, 4.0]))
            summaries = {
                block: journaled.expected_summary(block).crc
            }
        with open(path, "r+b") as handle:
            handle.seek(HEADER_BYTES + 8)  # second slot of block 0
            handle.write(b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
        reopened_raw = MmapBlockDevice(path)
        reopened = JournaledDevice(reopened_raw)
        # The rebuilt summary reflects the torn bytes; against the
        # journal's durable CRC the read must fail loudly.
        assert reopened.expected_summary(block).crc != summaries[block]
        fresh = JournaledDevice(reopened_raw)
        fresh._summaries[block] = type(
            fresh.expected_summary(block)
        )(crc=summaries[block], abs_sum=0.0)
        with pytest.raises(CorruptBlockError):
            fresh.read_block(block)
        reopened_raw.close()
