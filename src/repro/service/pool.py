"""Thread-safe sharded buffer pool for the concurrent query service.

The library's :class:`~repro.storage.buffer_pool.BufferPool` is
single-threaded by design (experiments are).  Serving concurrent
queries needs (a) mutual exclusion and (b) contention spread, so the
service wraps K plain pools — *shards* — each owning the blocks with
``block_id % K == shard`` under its own lock.  All shards charge the
same :class:`~repro.storage.block_device.BlockDevice`; device access
and the shared :class:`~repro.storage.iostats.IOStats` updates are
serialised by one additional I/O lock so counters never lose
increments (CPython's ``+=`` on an attribute is not atomic).

The sharded pool presents the exact :class:`BufferPool` surface the
:class:`~repro.storage.tile_store.TileStore` drives (``get`` /
``create`` / ``mark_dirty`` / ``flush`` / ``drop_all``) plus
``pin``/``unpin``, so it can be swapped into an existing store with
:meth:`TileStore.set_pool`.  Per-shard hit/miss/eviction tallies come
from the underlying pools' local counters and feed the service
metrics.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.storage.block_device import BlockDevice
from repro.storage.buffer_pool import BufferPool
from repro.storage.iostats import IOStats

__all__ = ["ShardedBufferPool"]


class _SynchronizedDevice:
    """Device facade serialising I/O (and its stat bumps) with a lock."""

    def __init__(self, device: BlockDevice, lock: threading.Lock) -> None:
        self._device = device
        self._lock = lock

    @property
    def stats(self) -> IOStats:
        return self._device.stats

    @property
    def block_slots(self) -> int:
        return self._device.block_slots

    def read_block(self, block_id: int) -> np.ndarray:
        with self._lock:
            return self._device.read_block(block_id)

    def write_block(self, block_id: int, data: np.ndarray) -> None:
        with self._lock:
            self._device.write_block(block_id, data)

    def __getattr__(self, name: str):
        # Conditionally surface durability extensions (``write_batch``,
        # ``block_summary``) so a journaled device keeps its group
        # commit under the sharded pool.  ``getattr`` probing by the
        # plain pool must still see a plain device as plain, so only
        # attributes the wrapped device actually has resolve here.
        if name in ("write_batch", "block_summary"):
            inner = getattr(self._device, name)  # AttributeError if plain

            def locked(*args, **kwargs):
                with self._lock:
                    # ``inner`` is the journaled device's method: its
                    # group commit opens a span and charges counters.
                    # may-acquire: TraceStore._lock, Tracer._orphan_lock
                    return inner(*args, **kwargs)

            return locked
        raise AttributeError(name)


class _ShardPool(BufferPool):
    """One shard: a plain pool whose shared-stat bumps take the I/O lock."""

    def __init__(self, device, capacity: int, io_lock: threading.Lock) -> None:
        super().__init__(device, capacity)
        self._io_lock = io_lock

    def _count_hit(self) -> None:
        with self._io_lock:
            super()._count_hit()

    def _count_miss(self) -> None:
        with self._io_lock:
            super()._count_miss()


class ShardedBufferPool:
    """K independently locked write-back LRU shards over one device.

    Parameters
    ----------
    device:
        The shared backing :class:`BlockDevice`.
    capacity:
        *Total* resident-block budget, split evenly across shards
        (every shard gets at least one frame, so the effective total is
        ``max(capacity, num_shards)``).
    num_shards:
        Number of lock domains.  Blocks map to shards by
        ``block_id % num_shards``.
    """

    def __init__(
        self, device: BlockDevice, capacity: int, num_shards: int = 4
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._device = device
        self._num_shards = num_shards
        self._io_lock = threading.Lock()
        synced = _SynchronizedDevice(device, self._io_lock)
        per_shard = max(1, capacity // num_shards)
        self._shards: List[_ShardPool] = [
            _ShardPool(synced, per_shard, self._io_lock)
            for __ in range(num_shards)
        ]
        self._locks = [threading.Lock() for __ in range(num_shards)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def device(self) -> BlockDevice:
        return self._device

    @property
    def num_shards(self) -> int:
        return self._num_shards

    @property
    def capacity(self) -> int:
        """Total frame budget (sum of per-shard capacities)."""
        return sum(shard.capacity for shard in self._shards)

    @property
    def resident(self) -> int:
        return sum(shard.resident for shard in self._shards)

    @property
    def dirty(self) -> int:
        """Resident blocks with unwritten modifications, across shards."""
        total = 0
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                total += shard.dirty
        return total

    @property
    def pinned(self) -> int:
        """Resident blocks with a nonzero pin count, across shards."""
        total = 0
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                total += shard.pinned
        return total

    def shard_of(self, block_id: int) -> int:
        """Shard index owning ``block_id``."""
        return block_id % self._num_shards

    # ------------------------------------------------------------------
    # BufferPool surface (thread-safe)
    # ------------------------------------------------------------------

    def get(self, block_id: int, for_write: bool = False) -> np.ndarray:
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            return self._shards[shard].get(block_id, for_write=for_write)

    def create(self, block_id: int) -> np.ndarray:
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            return self._shards[shard].create(block_id)

    def mark_dirty(self, block_id: int) -> None:
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            self._shards[shard].mark_dirty(block_id)

    def pin(self, block_id: int) -> None:
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            self._shards[shard].pin(block_id)

    def unpin(self, block_id: int) -> None:
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            self._shards[shard].unpin(block_id)

    def fetch_and_pin(self, block_id: int) -> np.ndarray:
        """Fault a block in (if needed) and pin it, atomically.

        A plain ``get`` + ``pin`` pair can race with concurrent traffic
        evicting the block in between; prefetching goes through this.
        """
        shard = self.shard_of(block_id)
        with self._locks[shard]:
            return self._shards[shard].get(block_id, pin=True)

    def flush(self, block_id: Optional[int] = None) -> None:
        if block_id is not None:
            shard = self.shard_of(block_id)
            with self._locks[shard]:
                self._shards[shard].flush(block_id)
            return
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                shard.flush()

    def drop_all(self) -> None:
        for shard, lock in zip(self._shards, self._locks):
            with lock:
                shard.drop_all()

    def invalidate(self, block_ids) -> List[int]:
        """Discard (without write-back) the resident frames for
        ``block_ids``; returns the pinned ids that could not be
        discarded.  Used after replication replay rewrites blocks
        beneath the pool — stale frames must not serve old bytes."""
        by_shard: Dict[int, List[int]] = {}
        for block_id in block_ids:
            by_shard.setdefault(self.shard_of(block_id), []).append(block_id)
        leftover: List[int] = []
        for shard_index, ids in by_shard.items():
            with self._locks[shard_index]:
                leftover.extend(self._shards[shard_index].invalidate(ids))
        return leftover

    @property
    def io_lock(self) -> threading.Lock:
        """The device-serialising lock.  Replication replay writes to
        the arena beneath the pool and takes this lock so a concurrent
        query's miss cannot interleave with a half-applied group."""
        return self._io_lock

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard hit/miss/eviction tallies and hit rates."""
        out = []
        for index, (shard, lock) in enumerate(zip(self._shards, self._locks)):
            with lock:
                out.append(
                    {
                        "shard": index,
                        "capacity": shard.capacity,
                        "resident": shard.resident,
                        "hits": shard.hits,
                        "misses": shard.misses,
                        "evictions": shard.evictions,
                        "hit_rate": shard.hit_rate,
                    }
                )
        return out

    def snapshot(self) -> dict:
        """Aggregate + per-shard view for the metrics report."""
        shards = self.shard_stats()
        hits = sum(s["hits"] for s in shards)
        misses = sum(s["misses"] for s in shards)
        lookups = hits + misses
        return {
            "num_shards": self._num_shards,
            "capacity": self.capacity,
            "resident": sum(s["resident"] for s in shards),
            "hits": hits,
            "misses": misses,
            "evictions": sum(s["evictions"] for s in shards),
            "hit_rate": hits / lookups if lookups else 0.0,
            "shards": shards,
        }
