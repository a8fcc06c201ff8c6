"""File-backed block device with the exact :class:`BlockDevice` contract.

The simulated :class:`~repro.storage.block_device.BlockDevice` keeps
blocks in a dict and counts I/Os; every byte dies with the process.
:class:`MmapBlockDevice` stores the same fixed-size float64 blocks in a
single memory-mapped file so tile stores survive restarts without the
pickle persist path, while charging :class:`IOStats` *identically* —
the device is a drop-in replacement under the whole arena chain
(``JournaledDevice``, buffer pools, tile stores) and under the crash
matrix.

On-disk layout (little-endian)::

    offset 0     magic            8 bytes  b"RPROMMAP"
           8     format_version   u32      (currently 1)
          12     block_slots      u32
          16     next_id          u64      allocated-block high-water mark
          24     header_crc       u32      CRC32 of bytes [0, 24)
          28     zero padding up to HEADER_BYTES
    HEADER_BYTES block 0, block 1, ...     block_slots float64 each

The header CRC makes a torn header (a crash mid-rewrite of the metadata
page) *detectable* on reopen instead of silently mis-sizing the device:
:class:`MmapFormatError` is raised and the caller decides.  Block
payloads carry no per-block checksum here — that is the journal layer's
job (:class:`~repro.storage.journal.JournaledDevice` keeps CRC+abs-sum
summaries and raises ``CorruptBlockError`` on torn reads), and it runs
unmodified on top of this device.

Reads and writes go through zero-copy ``np.frombuffer`` views of the
mapping internally; :meth:`read_block` still returns a **private copy**
exactly like the simulated device, so no caller can alias device
memory through the counted path.  ``allocate`` grows the file
geometrically (ftruncate + mmap resize) and persists ``next_id``
eagerly — growth is a metadata operation and charges nothing, matching
the simulated device's free ``allocate``.

Thread notes: serving stacks read concurrently with a single writer
(``ServingHub`` serialises update batches but never queries), and a
writer that grows the file must remap — so every block I/O holds the
shared side of an internal reader-writer gate and the resize in
:meth:`_ensure_capacity` holds the exclusive side.  Without the gate a
reader could observe the view mid-teardown (``self._data is None``) or
keep a transient buffer export alive that makes ``mmap.resize`` raise
``BufferError`` and abort the writer.  Allocation itself
(``allocate``/``restore_blocks``/``close``) still assumes a single
writer, exactly like the simulated device.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.obs.tracer import charge as _trace_charge
from repro.storage.iostats import IOStats

__all__ = ["MmapBlockDevice", "MmapFormatError"]

MAGIC = b"RPROMMAP"
FORMAT_VERSION = 1
HEADER_BYTES = 4096  # one page: blocks start page-aligned
_HEADER_STRUCT = struct.Struct("<8sIIQ")  # magic, version, slots, next_id
_CRC_STRUCT = struct.Struct("<I")
_FLOAT_BYTES = 8


class MmapFormatError(ValueError):
    """The file is not a valid device image (bad magic, unsupported
    version, mismatched geometry, or a torn header CRC)."""


class _ResizeGate:
    """Reader-writer gate isolating block I/O from mapping resize.

    Block reads/writes take :meth:`shared` (concurrent with each
    other); the resize in ``_ensure_capacity`` and the teardown in
    ``close`` take :meth:`exclusive`.  An incoming resize blocks new
    shared entries, waits for in-flight ones to drain, and only then
    tears the view down — so no reader ever sees ``_data is None`` and
    no reader's transient export survives into ``mmap.resize``.
    """

    __slots__ = (
        "_cond",
        "_readers",
        "_resizing",
        "exclusive_acquires",
        "writer_wait_s",
    )

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._resizing = False
        # Writer-side contention telemetry: how often the exclusive
        # side was taken and how long writers spent waiting for other
        # writers plus in-flight readers to drain.  Read without the
        # condition lock by telemetry() — a stale float is fine.
        self.exclusive_acquires = 0
        self.writer_wait_s = 0.0

    @contextmanager
    def shared(self):
        with self._cond:
            while self._resizing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def exclusive(self):
        entered = time.perf_counter()
        with self._cond:
            while self._resizing:
                self._cond.wait()
            self._resizing = True
            while self._readers:
                self._cond.wait()
            self.exclusive_acquires += 1
            self.writer_wait_s += time.perf_counter() - entered
        try:
            yield
        finally:
            with self._cond:
                self._resizing = False
                self._cond.notify_all()


class MmapBlockDevice:
    """An append-allocated array of fixed-size blocks in one mmap file.

    Parameters
    ----------
    path:
        Backing file.  Created (with a fresh header) when missing or
        empty; otherwise reopened and validated against the header.
    block_slots:
        Float64 slots per block.  Required when creating; when
        reopening it is checked against the stored header (``None``
        adopts the stored value).
    stats:
        Counter object to charge I/Os to; a fresh one is created when
        omitted.
    capacity_blocks:
        Initial file capacity (in blocks) when creating; the file
        grows geometrically as :meth:`allocate` passes it.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        block_slots: Optional[int] = None,
        stats: Optional[IOStats] = None,
        capacity_blocks: int = 64,
    ) -> None:
        self._path = os.fspath(path)
        self.stats = stats if stats is not None else IOStats()
        self._closed = False
        self._gate = _ResizeGate()
        self._growths = 0
        self._msyncs = 0
        self._msync_seconds = 0.0
        existing = (
            os.path.exists(self._path)
            and os.path.getsize(self._path) > 0
        )
        # "a+b" would position appends at EOF; open read-write and
        # create explicitly so offset arithmetic stays simple.
        flags = os.O_RDWR | (0 if existing else os.O_CREAT)
        self._fd = os.open(self._path, flags, 0o644)
        try:
            if existing:
                self._open_existing(block_slots)
            else:
                if block_slots is None:
                    raise ValueError(
                        "block_slots is required when creating "
                        f"{self._path!r}"
                    )
                if block_slots < 1:
                    raise ValueError(
                        f"block_slots must be >= 1, got {block_slots}"
                    )
                self._block_slots = int(block_slots)
                self._next_id = 0
                self._capacity = max(1, int(capacity_blocks))
                os.ftruncate(self._fd, self._file_bytes(self._capacity))
                self._mm = mmap.mmap(self._fd, 0)
                self._data = self._map_data()
                self._write_header()
        except BaseException:
            os.close(self._fd)
            raise

    # ------------------------------------------------------------------
    # header / geometry
    # ------------------------------------------------------------------

    def _file_bytes(self, blocks: int) -> int:
        return HEADER_BYTES + blocks * self._block_slots * _FLOAT_BYTES

    def _block_bytes(self) -> int:
        return self._block_slots * _FLOAT_BYTES

    def _map_data(self) -> np.ndarray:
        """One persistent zero-copy 2-d view over the block region —
        per-call ``np.frombuffer`` would dominate small-block I/O."""
        return np.frombuffer(
            self._mm,
            dtype=np.float64,
            count=self._capacity * self._block_slots,
            offset=HEADER_BYTES,
        ).reshape(self._capacity, self._block_slots)

    def _write_header(self) -> None:
        packed = _HEADER_STRUCT.pack(
            MAGIC, FORMAT_VERSION, self._block_slots, self._next_id
        )
        crc = zlib.crc32(packed) & 0xFFFFFFFF
        self._mm[: _HEADER_STRUCT.size] = packed
        end = _HEADER_STRUCT.size + _CRC_STRUCT.size
        self._mm[_HEADER_STRUCT.size : end] = _CRC_STRUCT.pack(crc)

    def _open_existing(self, block_slots: Optional[int]) -> None:
        size = os.path.getsize(self._path)
        if size < HEADER_BYTES:
            raise MmapFormatError(
                f"{self._path!r} is {size} bytes — shorter than the "
                f"{HEADER_BYTES}-byte header; not a device image"
            )
        self._mm = mmap.mmap(self._fd, 0)
        packed = bytes(self._mm[: _HEADER_STRUCT.size])
        end = _HEADER_STRUCT.size + _CRC_STRUCT.size
        (stored_crc,) = _CRC_STRUCT.unpack(
            bytes(self._mm[_HEADER_STRUCT.size : end])
        )
        crc = zlib.crc32(packed) & 0xFFFFFFFF
        if crc != stored_crc:
            self._mm.close()
            raise MmapFormatError(
                f"{self._path!r} header CRC mismatch "
                f"(stored {stored_crc:#010x}, computed {crc:#010x}) — "
                f"torn or corrupted header"
            )
        magic, version, slots, next_id = _HEADER_STRUCT.unpack(packed)
        if magic != MAGIC:
            self._mm.close()
            raise MmapFormatError(
                f"{self._path!r} has magic {magic!r}, expected {MAGIC!r}"
            )
        if version != FORMAT_VERSION:
            self._mm.close()
            raise MmapFormatError(
                f"{self._path!r} is format version {version}; this "
                f"build reads version {FORMAT_VERSION}"
            )
        if block_slots is not None and slots != block_slots:
            self._mm.close()
            raise MmapFormatError(
                f"{self._path!r} stores {slots} slots per block, "
                f"caller expected {block_slots}"
            )
        self._block_slots = int(slots)
        self._next_id = int(next_id)
        data_bytes = size - HEADER_BYTES
        self._capacity = data_bytes // self._block_bytes()
        if self._capacity < self._next_id:
            self._mm.close()
            raise MmapFormatError(
                f"{self._path!r} header claims {next_id} blocks but the "
                f"file only holds {self._capacity} — truncated image"
            )
        self._data = self._map_data()

    def _ensure_capacity(self, blocks: int) -> None:
        if blocks <= self._capacity:
            return
        new_capacity = max(blocks, self._capacity * 2, 1)
        with self._gate.exclusive():
            # Drop our own view before resizing; any *caller-held*
            # view_block() export makes resize raise BufferError, which
            # is the intended leak detector.
            self._data = None
            self._mm.flush()
            os.ftruncate(self._fd, self._file_bytes(new_capacity))
            try:
                self._mm.resize(self._file_bytes(new_capacity))
            except BufferError:
                # A leaked export blocked the resize.  Remap the old
                # geometry (and undo the file grow) so the device stays
                # usable once the caller drops the view — the leak is
                # reported, not made permanent.
                os.ftruncate(self._fd, self._file_bytes(self._capacity))
                self._data = self._map_data()
                raise
            self._capacity = new_capacity
            self._data = self._map_data()
            self._growths += 1

    # ------------------------------------------------------------------
    # BlockDevice contract
    # ------------------------------------------------------------------

    @property
    def block_slots(self) -> int:
        """Coefficient slots per block."""
        return self._block_slots

    @property
    def num_blocks(self) -> int:
        """Number of allocated blocks."""
        return self._next_id

    @property
    def path(self) -> str:
        """The backing file."""
        return self._path

    @property
    def capacity_blocks(self) -> int:
        """Blocks the file can hold before the next resize."""
        return self._capacity

    @property
    def closed(self) -> bool:
        return self._closed

    def allocate(self) -> int:
        """Allocate a zero-filled block and return its id (no I/O
        charged — allocation is metadata, the first write pays)."""
        block_id = self._next_id
        self._next_id += 1
        try:
            self._ensure_capacity(self._next_id)
        except BaseException:
            # A failed grow (e.g. the BufferError leak detector) must
            # not leave the cursor pointing past the mapped region.
            self._next_id = block_id
            raise
        self._write_header()
        return block_id

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < self._next_id:
            raise KeyError(f"block {block_id} was never allocated")

    def read_block(self, block_id: int) -> np.ndarray:
        """Read a block (one block-read I/O).  Returns a private copy."""
        self._check_id(block_id)
        self.stats.block_reads += 1
        _trace_charge("block_reads")
        with self._gate.shared():
            return self._data[block_id].copy()

    def peek_block(self, block_id: int) -> np.ndarray:
        """Uncounted copy of a block's current content.  Used by
        durability layers (checksum scans, torn-write simulation),
        never by algorithms — algorithmic reads go through
        :meth:`read_block` and are charged."""
        self._check_id(block_id)
        with self._gate.shared():
            return self._data[block_id].copy()

    def view_block(self, block_id: int) -> np.ndarray:
        """Uncounted **zero-copy, read-only** view of a block.

        For durability/inspection tooling that must not double memory;
        the view aliases the mapping, so it must be dropped before the
        device can :meth:`close` or grow (both raise ``BufferError``
        while exported views are alive — a leak detector, not a bug).
        Counted algorithmic reads use :meth:`read_block`."""
        self._check_id(block_id)
        with self._gate.shared():
            view = self._data[block_id].view()
        view.flags.writeable = False
        return view

    def write_block(self, block_id: int, data: np.ndarray) -> None:
        """Write a full block (one block-write I/O)."""
        self._check_id(block_id)
        if data.shape != (self._block_slots,):
            raise ValueError(
                f"block data must have shape ({self._block_slots},), "
                f"got {data.shape}"
            )
        self.stats.block_writes += 1
        _trace_charge("block_writes")
        with self._gate.shared():
            self._data[block_id] = data

    def write_blocks(
        self, block_ids: np.ndarray, rows: np.ndarray
    ) -> None:
        """Write many full blocks at once (one block-write I/O *each*).

        ``rows[i]`` lands in ``block_ids[i]``.  Identical accounting to
        ``len(block_ids)`` calls of :meth:`write_block`; the batch form
        lets bulk loaders scatter a contiguous assembled buffer into
        the mapping with one fancy row assignment.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._block_slots:
            raise ValueError(
                f"rows must have shape (*, {self._block_slots}), "
                f"got {rows.shape}"
            )
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.shape[0] != rows.shape[0]:
            raise ValueError(
                f"{block_ids.shape[0]} block ids for "
                f"{rows.shape[0]} rows"
            )
        if block_ids.size and not (
            0 <= int(block_ids.min())
            and int(block_ids.max()) < self._next_id
        ):
            raise KeyError("write_blocks targets an unallocated block")
        count = rows.shape[0]
        self.stats.block_writes += count
        _trace_charge("block_writes", count)
        with self._gate.shared():
            self._data[block_ids] = rows

    def bytes_used(self, coefficient_bytes: int = 8) -> int:
        """Approximate on-disk footprint of the allocated blocks."""
        return self.num_blocks * self._block_slots * coefficient_bytes

    def dump_blocks(self) -> np.ndarray:
        """Uncounted snapshot of every block as a 2-d array.  Used by
        persistence, not by algorithms."""
        with self._gate.shared():
            return self._data[: self._next_id].copy()

    def restore_blocks(self, blocks: np.ndarray) -> None:
        """Uncounted bulk restore (inverse of :meth:`dump_blocks`)."""
        if blocks.ndim != 2 or blocks.shape[1] != self._block_slots:
            raise ValueError(
                f"blocks must have shape (*, {self._block_slots}), "
                f"got {blocks.shape}"
            )
        count = blocks.shape[0]
        self._ensure_capacity(count)
        self._next_id = count
        with self._gate.shared():
            self._data[:count] = blocks
        self._write_header()

    # ------------------------------------------------------------------
    # durability / lifecycle (beyond the simulated contract)
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush the header and every dirty page to the backing file."""
        started = time.perf_counter()
        self._write_header()
        self._mm.flush()
        self._msyncs += 1
        self._msync_seconds += time.perf_counter() - started

    def telemetry(self) -> dict:
        """Arena internals as a JSON-ready dict (satellite metrics for
        engine snapshots and ``/metrics``): growth/msync counters, the
        mapped footprint, and the resize gate's writer-side contention.
        Reading is unlocked — values are monotone counters and a
        slightly stale read is acceptable for telemetry."""
        return {
            "growths": self._growths,
            "capacity_blocks": self._capacity,
            "allocated_blocks": self._next_id,
            "mapped_bytes": self._file_bytes(self._capacity),
            "msyncs": self._msyncs,
            "msync_seconds": self._msync_seconds,
            "resize_wait_s": self._gate.writer_wait_s,
            "resize_exclusive_acquires": self._gate.exclusive_acquires,
        }

    def close(self) -> None:
        """Sync and release the mapping.  Idempotent.

        A live :meth:`view_block` export makes the unmap raise
        ``BufferError`` (the leak detector); the device then stays
        open and fully usable, and can be closed again once the view
        is dropped.
        """
        if self._closed:
            return
        with self._gate.exclusive():
            self.sync()
            self._data = None
            try:
                self._mm.close()
            except BufferError:
                self._data = self._map_data()
                raise
        self._closed = True
        os.close(self._fd)

    def __enter__(self) -> "MmapBlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
