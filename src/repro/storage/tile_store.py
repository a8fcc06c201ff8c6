"""Physical tile storage: tile key -> disk block of coefficient slots.

A :class:`TileStore` maps hashable tile keys (produced by the tiling
strategies in :mod:`repro.tiling`) to blocks of the simulated device,
caching through a write-back :class:`~repro.storage.buffer_pool.BufferPool`.
Coefficients default to zero: a tile that was never written reads as a
zero block without costing any I/O, matching the sparse initial state
of a transform under construction.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Optional

import numpy as np

from repro.obs.tracer import get_tracer
from repro.storage.block_device import BlockDevice
from repro.storage.buffer_pool import BufferPool
from repro.storage.degrade import active_collector
from repro.storage.iostats import IOStats

__all__ = ["TileStore"]


class TileStore:
    """Keyed block storage with lazy allocation and write-back caching.

    Parameters
    ----------
    block_slots:
        Coefficient slots per tile (``B^d`` under the paper's tiling).
    pool_capacity:
        Buffer-pool size in blocks.  The paper's maintenance scenarios
        assume scarce memory, so default to a small pool; experiments
        size it explicitly from the scenario's memory budget.
    stats:
        Shared I/O counter; a fresh one is created when omitted.
    device:
        An existing device to store tiles on instead of creating a
        private :class:`BlockDevice`.  Its ``block_slots`` must equal
        ``block_slots``.  The multi-tenant serving layer passes one
        shared (journaled) device to every tenant's store: block ids
        stay globally unique because all allocation goes through the
        one device, so the tenants can also share one buffer pool.
        ``stats`` is ignored when ``device`` is given — the device
        already carries its counter.
    """

    def __init__(
        self,
        block_slots: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
        device=None,
    ) -> None:
        if device is not None:
            if device.block_slots != block_slots:
                raise ValueError(
                    f"shared device has {device.block_slots} slots per "
                    f"block but this store needs {block_slots}"
                )
            self._device = device
        else:
            self._device = BlockDevice(block_slots, stats=stats)
        self._pool = BufferPool(self._device, pool_capacity)
        self._directory: Dict[Hashable, int] = {}

    @property
    def stats(self) -> IOStats:
        return self._device.stats

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def pool(self) -> BufferPool:
        return self._pool

    def wrap_device(self, factory) -> None:
        """Interpose a device wrapper (fault injection, journaling).

        ``factory`` receives the current device and returns the wrapper
        to use in its place — e.g. ``store.tile_store.wrap_device(
        JournaledDevice)`` or ``lambda d: FaultyBlockDevice(d, seed=7)``.
        The current pool is flushed and rebuilt over the wrapper (same
        capacity), so no dirty data is lost and every subsequent I/O
        goes through the wrapper.  Call *before* handing the store to a
        :class:`~repro.service.engine.QueryEngine` — the engine captures
        the device at construction.
        """
        self._pool.drop_all()
        capacity = getattr(self._pool, "capacity", 8)
        self._device = factory(self._device)
        self._pool = BufferPool(self._device, capacity)

    def set_pool(self, pool) -> None:
        """Install a replacement buffer pool over the same device.

        The current pool is flushed and dropped first, so no dirty data
        is lost; the replacement (e.g. a
        :class:`~repro.service.pool.ShardedBufferPool`) must present the
        :class:`BufferPool` interface and wrap this store's device.
        """
        self._pool.drop_all()
        self._pool = pool

    @property
    def block_slots(self) -> int:
        return self._device.block_slots

    @property
    def num_tiles(self) -> int:
        """Number of tiles that have ever been materialised."""
        return len(self._directory)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._directory

    def keys(self) -> Iterator[Hashable]:
        return iter(self._directory)

    def tile(self, key: Hashable, for_write: bool = False) -> np.ndarray:
        """The slot array of tile ``key`` (allocated lazily).

        The returned array is the pool's resident copy; with
        ``for_write=True`` mutations will be persisted on eviction or
        flush.  Fetching an existing non-resident tile costs one block
        read; creating a fresh tile costs none (its zero contents are
        known).
        """
        block_id = self._directory.get(key)
        if block_id is None:
            block_id = self._device.allocate()
            self._directory[key] = block_id
            data = self._pool.create(block_id)
            return data
        return self._pool.get(block_id, for_write=for_write)

    def block_of(self, key: Hashable) -> Optional[int]:
        """Device block id of tile ``key`` (``None`` if never
        materialised).  Uncounted — used by the query planner to pin
        prefetched blocks."""
        return self._directory.get(key)

    def peek(self, key: Hashable) -> Optional[np.ndarray]:
        """Like :meth:`tile` but returns ``None`` instead of allocating
        when the tile was never materialised.

        Inside a :func:`repro.storage.degrade.collecting_degraded`
        scope a read failure (injected fault, checksum mismatch, or a
        miss the pool refuses under ``cache_only``) is recorded with
        the block's durable L1 summary and a *fresh* zero array is
        returned; no pool frame is installed, so the
        substituted zeros are never cached as truth.  Outside such a
        scope failures propagate unchanged.
        """
        block_id = self._directory.get(key)
        if block_id is None:
            return None
        collector = active_collector()
        if collector is None:
            return self._pool.get(block_id)
        try:
            return self._pool.get(block_id)
        except IOError as exc:
            summary = getattr(self._device, "block_summary", None)
            if summary is not None:
                abs_sum = summary(block_id).abs_sum
            else:
                abs_sum = float("inf")
            collector.record(key, block_id, abs_sum, str(exc))
            return np.zeros(self._device.block_slots, dtype=np.float64)

    def read_slot(self, key: Hashable, slot: int) -> float:
        """Read one coefficient (zero if the tile does not exist)."""
        data = self.peek(key)
        if data is None:
            return 0.0
        return float(data[slot])

    def write_slot(self, key: Hashable, slot: int, value: float) -> None:
        """Write one coefficient, materialising the tile if needed."""
        data = self.tile(key, for_write=True)
        data[slot] = value

    def add_to_slot(self, key: Hashable, slot: int, delta: float) -> None:
        """Accumulate into one coefficient (read-modify-write)."""
        data = self.tile(key, for_write=True)
        data[slot] += delta

    def directory(self) -> Dict[Hashable, int]:
        """Uncounted copy of the tile-key -> block-id mapping (used by
        persistence)."""
        return dict(self._directory)

    def restore_directory(self, directory: Dict[Hashable, int]) -> None:
        """Uncounted bulk restore (inverse of :meth:`directory`)."""
        self._directory = dict(directory)

    def flush(self) -> None:
        """Write back all dirty resident tiles."""
        with get_tracer().span("tile_store.flush"):
            self._pool.flush()

    def drop_cache(self) -> None:
        """Flush and empty the pool (cold-cache boundary for benchmarks)."""
        with get_tracer().span("tile_store.drop_cache"):
            self._pool.drop_all()
