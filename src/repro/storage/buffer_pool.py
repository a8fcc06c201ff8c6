"""LRU buffer pool over the simulated block device.

Database-style write-back caching: a block is read from the device at
most once while resident, dirty blocks are written back on eviction or
flush.  The pool is what turns "coefficients touched" into "blocks
transferred" — the quantity the paper's tiling strategy optimises.

Frames can be *pinned* (:meth:`BufferPool.pin`): a pinned frame is
never chosen as an eviction victim, so a caller can hold a reference to
a block's array across other pool traffic — the batched query planner
pins every prefetched block for the duration of a batch.  If every
frame is pinned the pool temporarily overflows its capacity rather
than failing; it shrinks back as pins are released.

Inside a cache-only :func:`~repro.storage.degrade.collecting_degraded`
scope the pool refuses every miss with
:class:`~repro.storage.degrade.BlockNotResidentError` instead of
reading the device (the miss is still counted), so a deadline-expired
query answers from resident blocks alone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.obs.heat import touch_read as _heat_read, touch_write as _heat_write
from repro.obs.tracer import charge as _trace_charge, get_tracer
from repro.storage.block_device import BlockDevice
from repro.storage.degrade import BlockNotResidentError, active_collector

__all__ = ["BufferPool"]


class _Frame:
    """One resident block: its data, dirty flag and pin count."""

    __slots__ = ("data", "dirty", "pins")

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.dirty = False
        self.pins = 0


class BufferPool:
    """Write-back LRU cache of device blocks.

    Parameters
    ----------
    device:
        The backing :class:`BlockDevice`.
    capacity:
        Maximum resident blocks; must be >= 1.  The paper's experiments
        model a memory-constrained transformation, so callers size this
        to the scenario's memory budget.

    Besides the shared :class:`~repro.storage.iostats.IOStats` counters
    the pool keeps local ``hits`` / ``misses`` / ``evictions`` tallies,
    so a sharded arrangement of pools can report per-shard rates while
    all shards charge the same device.
    """

    def __init__(self, device: BlockDevice, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._device = device
        self._capacity = capacity
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def resident(self) -> int:
        """Number of blocks currently cached."""
        return len(self._frames)

    @property
    def pinned(self) -> int:
        """Number of resident blocks with a nonzero pin count."""
        return sum(1 for frame in self._frames.values() if frame.pins)

    @property
    def dirty(self) -> int:
        """Number of resident blocks modified since their last
        write-back (what a crash right now would lose)."""
        return sum(1 for frame in self._frames.values() if frame.dirty)

    @property
    def hit_rate(self) -> float:
        """Local hit fraction (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # stat hooks — overridden by sharded arrangements that must
    # serialise updates to the shared IOStats object
    # ------------------------------------------------------------------

    def _count_hit(self) -> None:
        self.hits += 1
        self._device.stats.cache_hits += 1
        _trace_charge("cache_hits")

    def _count_miss(self) -> None:
        self.misses += 1
        self._device.stats.cache_misses += 1
        _trace_charge("cache_misses")

    # ------------------------------------------------------------------

    def get(
        self, block_id: int, for_write: bool = False, pin: bool = False
    ) -> np.ndarray:
        """Return the cached array for ``block_id`` (faulting it in).

        The returned array is the pool's resident copy: mutations are
        visible to later ``get`` calls.  Callers that mutate must pass
        ``for_write=True`` (or call :meth:`mark_dirty`) so the block is
        written back on eviction.  A hit — with or without
        ``for_write`` — refreshes the block's LRU position.

        ``pin=True`` pins the frame *before* any eviction pass runs, so
        a faulted-in block cannot be chosen as its own insertion's
        victim even when every other frame is pinned.
        """
        frame = self._frames.get(block_id)
        if frame is not None:
            self._frames.move_to_end(block_id)
            self._count_hit()
            if pin:
                frame.pins += 1
        else:
            self._count_miss()
            collector = active_collector()
            if collector is not None and collector.cache_only:
                raise BlockNotResidentError(block_id)
            with get_tracer().span("pool.fetch", block=block_id):
                data = self._device.read_block(block_id)
            frame = _Frame(data)
            if pin:
                frame.pins += 1
            self._frames[block_id] = frame
            self._evict_if_needed(protect=block_id)
        # Heat accounting mirrors the cache counters charged above: a
        # logical tile read per lookup (hit or miss), a logical write
        # when the caller declares mutation.  Write-backs on eviction
        # or flush are not re-attributed — the dirtying query paid.
        _heat_read(block_id)
        if for_write:
            frame.dirty = True
            _heat_write(block_id)
        return frame.data

    def create(self, block_id: int) -> np.ndarray:
        """Install a fresh zero-filled frame for a newly allocated block.

        No device read is charged — the block has never been written,
        so its (zero) contents are known without touching the disk.
        The frame starts dirty and will be written back on eviction.
        """
        if block_id in self._frames:
            raise KeyError(f"block {block_id} is already resident")
        frame = _Frame(np.zeros(self._device.block_slots, dtype=np.float64))
        frame.dirty = True
        self._frames[block_id] = frame
        self._evict_if_needed(protect=block_id)
        _heat_write(block_id)
        return frame.data

    def mark_dirty(self, block_id: int) -> None:
        """Flag a resident block as modified."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise KeyError(f"block {block_id} is not resident")
        frame.dirty = True
        _heat_write(block_id)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------

    def pin(self, block_id: int) -> None:
        """Exempt a resident block from eviction (counted; re-entrant)."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise KeyError(f"block {block_id} is not resident")
        frame.pins += 1

    def unpin(self, block_id: int) -> None:
        """Release one pin; the block becomes evictable at zero pins."""
        frame = self._frames.get(block_id)
        if frame is None:
            raise KeyError(f"block {block_id} is not resident")
        if frame.pins <= 0:
            raise ValueError(f"block {block_id} is not pinned")
        frame.pins -= 1
        if frame.pins == 0:
            self._evict_if_needed()

    def _evict_if_needed(self, protect: Optional[int] = None) -> None:
        """Evict LRU-first until within capacity, skipping pinned frames
        and the just-inserted ``protect`` frame (its caller has not even
        seen the data yet; evicting it pre-``for_write`` would silently
        drop the dirty flag).  When nothing is evictable the pool
        overflows temporarily and shrinks as pins release."""
        while len(self._frames) > self._capacity:
            victim_id = None
            for block_id, frame in self._frames.items():
                if frame.pins == 0 and block_id != protect:
                    victim_id = block_id
                    break
            if victim_id is None:
                return
            frame = self._frames.pop(victim_id)
            self.evictions += 1
            if frame.dirty:
                with get_tracer().span("pool.evict", block=victim_id):
                    try:
                        self._device.write_block(victim_id, frame.data)
                    except IOError:
                        # Write-back failed: the frame is the only copy
                        # of the dirty data.  Reinstate it (still dirty,
                        # at the LRU end so it is not immediately
                        # re-chosen) and surface the failure.
                        self._frames[victim_id] = frame
                        self._frames.move_to_end(victim_id)
                        self.evictions -= 1
                        raise

    def flush(self, block_id: Optional[int] = None) -> None:
        """Write back dirty blocks (one, or all when ``block_id is None``).

        Blocks stay resident; only the dirty flags are cleared.
        Flushing a non-resident block is a no-op (nothing cached means
        nothing unwritten).
        """
        if block_id is not None:
            frame = self._frames.get(block_id)
            if frame is not None and frame.dirty:
                self._device.write_block(block_id, frame.data)
                frame.dirty = False
            return
        with get_tracer().span("pool.flush") as span:
            dirty = [
                (resident_id, frame)
                for resident_id, frame in self._frames.items()
                if frame.dirty
            ]
            write_batch = getattr(self._device, "write_batch", None)
            if write_batch is not None and dirty:
                # Journaled devices flush as one atomic group commit:
                # either every dirty block of this flush becomes durable
                # or none does.  Dirty flags clear only after the group
                # succeeds.  Under the sharded pool this resolves to the
                # synchronized device's locked wrapper.
                # may-acquire: _SynchronizedDevice._lock, TraceStore._lock, Tracer._orphan_lock
                write_batch([(rid, frame.data) for rid, frame in dirty])
                for __, frame in dirty:
                    frame.dirty = False
            else:
                for resident_id, frame in dirty:
                    self._device.write_block(resident_id, frame.data)
                    frame.dirty = False
            span.set(blocks=len(dirty))

    def invalidate(self, block_ids) -> list:
        """Discard resident frames for ``block_ids`` WITHOUT writing
        them back — the device already holds newer bytes (replication
        replay wrote beneath the pool).  Pinned frames cannot be
        discarded (a caller holds the array); their ids are returned so
        the caller can retry once the pins drain.  Non-resident ids are
        no-ops."""
        leftover = []
        for block_id in block_ids:
            frame = self._frames.get(block_id)
            if frame is None:
                continue
            if frame.pins > 0:
                leftover.append(block_id)
                continue
            del self._frames[block_id]
        return leftover

    def drop_all(self) -> None:
        """Flush everything and empty the pool (e.g. between experiments).

        Outstanding pins are discarded with the frames — callers must
        not drop the pool mid-batch.
        """
        self.flush()
        self._frames.clear()
