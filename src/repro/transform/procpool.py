"""True process-parallel SHIFT-SPLIT bulk loads (no GIL, no pin churn).

Python threads cannot speed up the scatters: they serialise the numpy
work on the GIL, and cross-thread tile pinning re-fetches blocks
another thread just evicted.  This module is a ``multiprocessing``
scatter pool instead, built on two facts:

* every coefficient of a standard-form bulk load lands in exactly one
  tile, and the set of ``(chunk, region)`` scatters that touch a tile
  is known *geometrically* before any data is read — so tiles can be
  partitioned into **disjoint ownership ranges** and each worker can
  assemble its tiles to completion with no locks, no pins and no
  cross-worker traffic at all;
* a forked child shares the parent's page mappings — a
  :class:`~repro.storage.mmap_device.MmapBlockDevice` (``MAP_SHARED``
  file) or an anonymous shared ``mmap`` arena (for the in-memory
  :class:`~repro.storage.block_device.BlockDevice`) is written in the
  child and read in the parent with zero serialisation.

Execution is two-phase, and the parent **is worker 0** — only workers
1..N-1 fork, so a two-worker pool pays for exactly one fork and half
the copy-on-write fault surface::

    phase 1   chunks round-robin over workers: fetch -> DWT ->
              plan.contributions() -> flat tensor into a shared
              anonymous scratch mmap (disjoint per-chunk offsets)
    barrier   every contribution tensor is in shared memory
    phase 2   owned z-order tile ranges: replay the tile's fused
              scatter jobs into a local block buffer, write the block
              exactly once (one counted block write)

Phase 2 is *tile-major*: instead of streaming chunks through a buffer
pool (create, re-hit, evict, flush), each owner accumulates a tile in
a process-local buffer and issues a single device write.  Against a
serial cached load whose pool holds the whole footprint (0 reads,
``num_tiles`` writes) the block I/O is **identical — reads and
writes** — and every write is charged on the worker's own
:class:`~repro.storage.iostats.IOStats`, merged losslessly into the
parent's counters after join.  Values are bit-identical to the serial
path: the schedule fuses a tile's scatter jobs only across provably
disjoint slot sets (SHIFT assignments never collide, and SPLIT
accumulations are merged only while disjoint, preserving their serial
accumulation order per slot — verified per tile at compile time, with
an ordered fallback when the geometry ever violates it).

The pool runs on **raw** devices only: a
:class:`~repro.storage.journal.JournaledDevice` (or any other
wrapper) in the chain would be bypassed by the workers' direct block
writes, silently invalidating its summaries — that is rejected, not
worked around.

Tracing crosses the fork boundary: when a tracer is installed, each
forked worker gets a **fresh child tracer** (the inherited parent
copy is dead weight — charges to it would vanish with the child),
opens ``procpool.worker`` / ``worker.chunks`` / ``worker.tiles``
spans, and ships its finished span records, orphan I/O and drop count
back through the results queue.  The driver absorbs them into the
parent tracer under the ``transform.procpool`` span with fresh span
ids, so the lossless invariant — merged span I/O plus orphans equals
the global ``IOStats`` delta, field for field — holds across
processes exactly as it does across threads.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plans import get_standard_plan
from repro.obs.tracer import Tracer, charge as _trace_charge
from repro.obs.tracer import get_tracer, set_tracer, span_record
from repro.storage.block_device import BlockDevice
from repro.storage.iostats import IOStats
from repro.storage.mmap_device import MmapBlockDevice
from repro.transform.chunked import ChunkSource, _chunk_getter, _chunk_order
from repro.transform.report import TransformReport
from repro.util.morton import morton_encode
from repro.util.validation import require_power_of_two_shape
from repro.wavelet.standard import standard_dwt

__all__ = [
    "ProcPoolError",
    "ScatterSchedule",
    "build_scatter_schedule",
    "release_pool_buffers",
    "transform_standard_procpool",
]

#: Seconds a worker waits at the phase barrier before declaring its
#: siblings dead; generous — failed workers abort the barrier, so the
#: timeout only fires if a sibling died without reporting at all.
_BARRIER_TIMEOUT_S = 300.0

#: Span capacity of a forked worker's fresh child tracer.  A worker
#: opens exactly three spans, so the ring never overflows in practice;
#: a nonzero shipped ``dropped`` count still reaches the parent store.
_CHILD_TRACE_SPANS = 64

#: IOStats fields merged from workers into the parent, field-wise.
_STATS_FIELDS = (
    "block_reads",
    "block_writes",
    "coefficient_reads",
    "coefficient_writes",
    "cache_hits",
    "cache_misses",
    "journal_writes",
)


class ProcPoolError(RuntimeError):
    """The store/device cannot run the process pool, or a worker died."""


# ----------------------------------------------------------------------
# Reusable shared buffers
# ----------------------------------------------------------------------
#
# A fresh anonymous mmap costs one page fault per 4 KiB on first touch
# (~0.5 ms/MB) — a measurable slice of a bulk load that is pure
# overhead on every run after the first.  The pool keeps one scratch
# and one arena mapping alive between runs and reuses them when large
# enough; correctness does not depend on their contents because every
# run fully overwrites its scratch region (each chunk writes its whole
# contribution tensor) and every owned arena row (whole-row batch
# writes).  Concurrent runs in one process fall back to ephemeral
# buffers.

_BUFFER_POOL: Dict[str, mmap.mmap] = {}
_BUFFER_POOL_BUSY: set = set()


def _acquire_buffer(role: str, nbytes: int) -> Tuple[mmap.mmap, bool]:
    """Return ``(buffer, pooled)``; pooled buffers are released via
    :func:`_release_buffer`, ephemeral ones closed by the caller."""
    if role in _BUFFER_POOL_BUSY:
        return mmap.mmap(-1, nbytes), False
    pooled = _BUFFER_POOL.get(role)
    if pooled is not None and len(pooled) < nbytes:
        try:
            pooled.close()
        except BufferError:  # leaked export somewhere: abandon, not crash
            pass
        pooled = None
        _BUFFER_POOL.pop(role, None)
    if pooled is None:
        pooled = mmap.mmap(-1, nbytes)
        _BUFFER_POOL[role] = pooled
    _BUFFER_POOL_BUSY.add(role)
    return pooled, True


def _release_buffer(role: str) -> None:
    _BUFFER_POOL_BUSY.discard(role)


def release_pool_buffers() -> None:
    """Drop the cached scratch/arena mappings (frees ~the footprint of
    the last bulk load; the next run re-faults fresh pages)."""
    for role in list(_BUFFER_POOL):
        if role not in _BUFFER_POOL_BUSY:
            buffer = _BUFFER_POOL.pop(role)
            try:
                buffer.close()
            except BufferError:
                pass


# ----------------------------------------------------------------------
# Scatter schedule: the geometric pre-pass
# ----------------------------------------------------------------------


class ScatterSchedule:
    """Everything phase 2 needs, derived from geometry alone.

    The per-tile scatter jobs are stored **compiled flat**: a handful
    of large contiguous arrays instead of thousands of small python
    tuples.  That matters twice — the phase-2 inner loop touches only
    array slices, and a forked child faults in a few read-only pages
    instead of dirtying (via refcounts) one page per tiny object.

    Attributes
    ----------
    chunk_positions:
        Included chunk grid positions, in serial application order.
    tensor_sizes / tensor_offsets:
        Flat contribution-tensor length per chunk and its float64
        offset in the shared scratch arena (offsets are disjoint —
        boundary chunks have different SPLIT path lengths, so sizes
        are per-chunk).
    tile_keys:
        Tile keys in **serial first-touch order** — the exact order
        the serial cached path creates directory entries and
        allocates blocks, so a pool run allocates identical ids.
    job_tile_start:
        ``int64[num_tiles + 1]``; tile ``t`` owns jobs
        ``job_tile_start[t] : job_tile_start[t + 1]``.
    job_accumulate:
        ``uint8[num_jobs]``; 1 = ``+=`` (SPLIT), 0 = assignment
        (SHIFT).
    job_entry_start:
        ``int64[num_jobs + 1]``; job ``j`` owns entries
        ``job_entry_start[j] : job_entry_start[j + 1]``.
    entry_slots / entry_source:
        ``intp`` arrays over all entries: block slot index and
        **global** scratch offset (per-chunk tensor offset already
        folded in), so phase 2 reads one flat scratch array.
    vector_ok:
        True when *every* tile passed the disjointness checks — then
        phase 2 runs fully vectorised (one fancy assignment for all
        SHIFT entries, one ordered ``np.add.at`` for all SPLIT
        entries) instead of the per-job loop.
    assign_tile / assign_slot / assign_src:
        All SHIFT entries flattened (tile index, block slot, global
        scratch offset); pairwise-disjoint targets, order free.
    accum_tile / accum_slot / accum_src:
        All SPLIT entries flattened in **serial order** — ``add.at``
        applies its index array sequentially, so a slot hit by many
        chunks still accumulates in exact serial order.
    entry_counts:
        Coefficients moved into each tile — the ownership balance
        weight.
    fused_jobs / raw_jobs:
        Compile-time accounting: jobs after and before fusion (see
        :func:`build_scatter_schedule`).
    """

    __slots__ = (
        "domain",
        "chunk_shape",
        "block_edge",
        "order",
        "chunk_positions",
        "tensor_sizes",
        "tensor_offsets",
        "tile_keys",
        "job_tile_start",
        "job_accumulate",
        "job_entry_start",
        "entry_slots",
        "entry_source",
        "vector_ok",
        "assign_tile",
        "assign_slot",
        "assign_src",
        "accum_tile",
        "accum_slot",
        "accum_src",
        "entry_counts",
        "total_entries",
        "fused_jobs",
        "raw_jobs",
        "partitions",
    )

    def __init__(
        self,
        domain: Tuple[int, ...],
        chunk_shape: Tuple[int, ...],
        block_edge: int,
        order: str,
        chunk_positions: Tuple[Tuple[int, ...], ...],
        tensor_sizes: np.ndarray,
        tile_keys: List[tuple],
        jobs: List[List[Tuple[int, np.ndarray, np.ndarray, bool]]],
    ) -> None:
        self.domain = domain
        self.chunk_shape = chunk_shape
        self.block_edge = block_edge
        self.order = order
        self.chunk_positions = chunk_positions
        self.tensor_sizes = tensor_sizes
        self.tensor_offsets = np.concatenate(
            ([0], np.cumsum(tensor_sizes)[:-1])
        )
        self.tile_keys = tile_keys
        self.raw_jobs = sum(len(tile_jobs) for tile_jobs in jobs)
        self._compile(jobs)
        self.total_entries = int(self.entry_counts.sum())
        #: ownership partitions memoised per worker count
        self.partitions: Dict[int, List[np.ndarray]] = {}

    def _compile(
        self, jobs: List[List[Tuple[int, np.ndarray, np.ndarray, bool]]]
    ) -> None:
        """Fuse each tile's jobs across disjoint slot sets and flatten.

        Serial semantics per tile are: jobs replay in chunk order,
        SHIFT slices assigned, SPLIT slices accumulated.  Two
        reorderings are bitwise-safe and verified per tile against a
        slot-occupancy bitmap:

        * all SHIFT assignments fuse into one leading job — each
          coefficient is SHIFTed at most once and never also SPLIT
          into, so the assignment targets are pairwise disjoint and
          disjoint from every accumulation target;
        * consecutive SPLIT jobs fuse while their slot sets stay
          disjoint — fancy ``+=`` over unique indices, and any slot
          hit twice still sees its contributions in serial order
          because fusion stops at the first overlap.

        Tiles that violate either check (no known geometry does) keep
        their original ordered job list.
        """
        block_slots = self.block_edge ** len(self.domain)
        offsets = self.tensor_offsets
        tile_starts = [0]
        accumulate_flags: List[int] = []
        entry_starts = [0]
        slot_parts: List[np.ndarray] = []
        source_parts: List[np.ndarray] = []
        entry_counts = np.zeros(len(jobs), dtype=np.int64)
        vector_ok = True
        assign_tiles: List[np.ndarray] = []
        assign_slots: List[np.ndarray] = []
        assign_sources: List[np.ndarray] = []
        accum_tiles: List[np.ndarray] = []
        accum_slots: List[np.ndarray] = []
        accum_sources: List[np.ndarray] = []

        def emit(
            accumulate: bool,
            slot_group: List[np.ndarray],
            source_group: List[np.ndarray],
        ) -> None:
            slots = (
                slot_group[0]
                if len(slot_group) == 1
                else np.concatenate(slot_group)
            )
            sources = (
                source_group[0]
                if len(source_group) == 1
                else np.concatenate(source_group)
            )
            accumulate_flags.append(1 if accumulate else 0)
            entry_starts.append(entry_starts[-1] + slots.size)
            slot_parts.append(slots)
            source_parts.append(sources)

        occupancy = np.zeros(block_slots, dtype=bool)
        for tile_index, tile_jobs in enumerate(jobs):
            entry_counts[tile_index] = sum(
                job[1].size for job in tile_jobs
            )
            assigns = [job for job in tile_jobs if not job[3]]
            accums = [job for job in tile_jobs if job[3]]
            fusable = True
            occupancy[:] = False
            for __, slots, __, __ in assigns:
                if occupancy[slots].any():
                    fusable = False
                    break
                occupancy[slots] = True
            if fusable:
                for __, slots, __, __ in accums:
                    if occupancy[slots].any():
                        fusable = False
                        break
            if not fusable:
                vector_ok = False
                for chunk_index, slots, source, accumulate in tile_jobs:
                    emit(
                        accumulate,
                        [slots],
                        [source + offsets[chunk_index]],
                    )
            else:
                for chunk_index, slots, source, accumulate in tile_jobs:
                    tiles = np.full(slots.size, tile_index, dtype=np.intp)
                    if accumulate:
                        accum_tiles.append(tiles)
                        accum_slots.append(slots)
                        accum_sources.append(source + offsets[chunk_index])
                    else:
                        assign_tiles.append(tiles)
                        assign_slots.append(slots)
                        assign_sources.append(source + offsets[chunk_index])
                if assigns:
                    emit(
                        False,
                        [job[1] for job in assigns],
                        [job[2] + offsets[job[0]] for job in assigns],
                    )
                group_slots: List[np.ndarray] = []
                group_sources: List[np.ndarray] = []
                occupancy[:] = False
                for chunk_index, slots, source, __ in accums:
                    if group_slots and occupancy[slots].any():
                        emit(True, group_slots, group_sources)
                        group_slots, group_sources = [], []
                        occupancy[:] = False
                    group_slots.append(slots)
                    group_sources.append(source + offsets[chunk_index])
                    occupancy[slots] = True
                if group_slots:
                    emit(True, group_slots, group_sources)
            tile_starts.append(len(accumulate_flags))

        self.job_tile_start = np.asarray(tile_starts, dtype=np.int64)
        self.job_accumulate = np.asarray(
            accumulate_flags, dtype=np.uint8
        )
        self.job_entry_start = np.asarray(entry_starts, dtype=np.int64)
        self.entry_slots = (
            np.concatenate(slot_parts)
            if slot_parts
            else np.empty(0, dtype=np.intp)
        )
        self.entry_source = (
            np.concatenate(source_parts)
            if source_parts
            else np.empty(0, dtype=np.intp)
        )

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            return (
                np.concatenate(parts).astype(np.intp, copy=False)
                if parts
                else np.empty(0, dtype=np.intp)
            )

        self.vector_ok = vector_ok
        self.assign_tile = cat(assign_tiles)
        self.assign_slot = cat(assign_slots)
        self.assign_src = cat(assign_sources)
        self.accum_tile = cat(accum_tiles)
        self.accum_slot = cat(accum_slots)
        self.accum_src = cat(accum_sources)
        self.entry_counts = entry_counts
        self.fused_jobs = len(accumulate_flags)

    @property
    def num_tiles(self) -> int:
        return len(self.tile_keys)

    @property
    def scratch_floats(self) -> int:
        return int(self.tensor_sizes.sum())


def build_scatter_schedule(
    domain: Tuple[int, ...],
    chunk_shape: Tuple[int, ...],
    tiling,
    order: str,
    chunk_positions: Sequence[Tuple[int, ...]],
) -> ScatterSchedule:
    """Compile the batch's exact tile footprint into fused scatter jobs.

    Walks chunks in serial order and, per chunk, the plan's regions and
    compiled tiles in serial order — the ``setdefault`` below therefore
    assigns tile indices in serial first-touch order, and each tile's
    job list is its serial mutation sequence (then fused; see
    :meth:`ScatterSchedule._compile`).  Warms the plan cache as a side
    effect, so forked children inherit every compiled plan
    copy-on-write and recompile nothing.
    """
    directory: Dict[tuple, int] = {}
    tile_keys: List[tuple] = []
    jobs: List[List[Tuple[int, np.ndarray, np.ndarray, bool]]] = []
    sizes = np.zeros(len(chunk_positions), dtype=np.int64)
    for chunk_index, grid_position in enumerate(chunk_positions):
        plan = get_standard_plan(domain, chunk_shape, grid_position)
        sizes[chunk_index] = int(np.prod(plan.tensor_shape))
        for is_shift, compiled in plan.iter_compiled(tiling):
            accumulate = not is_shift
            for key, slots, source in compiled.tiles:
                tile_index = directory.setdefault(key, len(tile_keys))
                if tile_index == len(tile_keys):
                    tile_keys.append(key)
                    jobs.append([])
                jobs[tile_index].append(
                    (chunk_index, slots, source, accumulate)
                )
    return ScatterSchedule(
        tuple(domain),
        tuple(chunk_shape),
        tiling.block_edge,
        order,
        tuple(tuple(p) for p in chunk_positions),
        sizes,
        tile_keys,
        jobs,
    )


_SCHEDULE_CACHE: Dict[tuple, ScatterSchedule] = {}
_SCHEDULE_CACHE_CAPACITY = 4


def _cached_schedule(
    domain, chunk_shape, tiling, order, chunk_positions
) -> ScatterSchedule:
    key = (
        tuple(domain),
        tuple(chunk_shape),
        tiling.block_edge,
        order,
        tuple(tuple(p) for p in chunk_positions),
    )
    schedule = _SCHEDULE_CACHE.pop(key, None)
    if schedule is None:
        schedule = build_scatter_schedule(
            domain, chunk_shape, tiling, order, chunk_positions
        )
    _SCHEDULE_CACHE[key] = schedule  # re-insert = move to MRU position
    while len(_SCHEDULE_CACHE) > _SCHEDULE_CACHE_CAPACITY:
        _SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE)))
    return schedule


# ----------------------------------------------------------------------
# Ownership partitioning
# ----------------------------------------------------------------------


def _axis_part_ordinal(tiling_1d, part: Tuple[int, int]) -> int:
    """Dense spatial ordinal of one axis tile part (band-major)."""
    band, root = part
    ordinal = root
    for lower in range(band):
        ordinal += tiling_1d.tiles_in_band(lower)
    return ordinal


def partition_ownership(
    schedule: ScatterSchedule, tiling, workers: int
) -> List[np.ndarray]:
    """Disjoint per-worker tile sets: z-order sorted, weight balanced.

    Tiles are sorted by the Morton code of their per-axis part
    ordinals (spatially adjacent tiles share chunk contribution
    tensors, so a contiguous z-order range keeps each worker's
    phase-2 reads local) and cut into ``workers`` contiguous ranges
    whose summed entry weights are balanced greedily.
    """
    codes = np.empty(schedule.num_tiles, dtype=np.int64)
    ordinal_cache: List[Dict[Tuple[int, int], int]] = [
        {} for _ in range(len(schedule.domain))
    ]
    for tile_index, key in enumerate(schedule.tile_keys):
        coords = []
        for axis, part in enumerate(key):
            cache = ordinal_cache[axis]
            ordinal = cache.get(part)
            if ordinal is None:
                ordinal = _axis_part_ordinal(tiling.dim(axis), part)
                cache[part] = ordinal
            coords.append(ordinal)
        codes[tile_index] = morton_encode(coords)
    zorder = np.argsort(codes, kind="stable")
    weights = schedule.entry_counts[zorder]
    total = int(weights.sum())
    ranges: List[np.ndarray] = []
    start = 0
    for worker_index in range(workers):
        remaining_workers = workers - worker_index
        target = total // remaining_workers if remaining_workers else 0
        end = start
        acc = 0
        limit = schedule.num_tiles - (remaining_workers - 1)
        while end < limit and (acc < target or end == start):
            acc += int(weights[end])
            end += 1
        if worker_index == workers - 1:
            end = schedule.num_tiles
            acc = int(weights[start:end].sum())
        ranges.append(zorder[start:end])
        total -= acc
        start = end
    return ranges


class _WorkerShare:
    """One worker's phase-2 inputs: its owned tiles plus its slices of
    the schedule's vector entry arrays, re-targeted to a worker-local
    row numbering (``owned[r]`` assembles in row ``r``)."""

    __slots__ = ("owned", "a_tgt", "a_src", "c_tgt", "c_src")

    def __init__(self, owned, a_tgt, a_src, c_tgt, c_src) -> None:
        self.owned = owned
        self.a_tgt = a_tgt
        self.a_src = a_src
        self.c_tgt = c_tgt
        self.c_src = c_src


def _worker_shares(
    schedule: ScatterSchedule, ranges: List[np.ndarray]
) -> Optional[List[_WorkerShare]]:
    """Split the schedule's vector entry arrays along tile ownership.

    Boolean selection preserves the global entry order, so each
    worker's SPLIT entries stay in serial accumulation order.  Returns
    ``None`` when the schedule could not be vectorised (the workers
    then fall back to the ordered per-job loop).
    """
    if not schedule.vector_ok:
        return None
    block_slots = schedule.block_edge ** len(schedule.domain)
    worker_of = np.empty(schedule.num_tiles, dtype=np.intp)
    row_of = np.empty(schedule.num_tiles, dtype=np.intp)
    for worker_index, owned in enumerate(ranges):
        worker_of[owned] = worker_index
        row_of[owned] = np.arange(owned.size, dtype=np.intp)
    shares: List[_WorkerShare] = []
    for worker_index, owned in enumerate(ranges):
        a_sel = worker_of[schedule.assign_tile] == worker_index
        c_sel = worker_of[schedule.accum_tile] == worker_index
        shares.append(
            _WorkerShare(
                owned,
                row_of[schedule.assign_tile[a_sel]] * block_slots
                + schedule.assign_slot[a_sel],
                schedule.assign_src[a_sel],
                row_of[schedule.accum_tile[c_sel]] * block_slots
                + schedule.accum_slot[c_sel],
                schedule.accum_src[c_sel],
            )
        )
    return shares


# ----------------------------------------------------------------------
# Shared-memory arena for the in-memory device
# ----------------------------------------------------------------------


class _SharedArenaDevice:
    """Charged write path into an anonymous shared mmap arena.

    Stands in for the in-memory :class:`BlockDevice` inside forked
    workers: the simulated device's dict lives in copy-on-write pages,
    so child writes would be invisible to the parent.  Workers write
    here instead (one counted block write each, same accounting as the
    real device) and the parent restores the arena into the simulated
    device uncounted — the I/O was already paid by the workers.
    """

    def __init__(
        self,
        buffer: mmap.mmap,
        block_slots: int,
        base_id: int,
        num_blocks: int,
    ) -> None:
        self._block_slots = block_slots
        self._base_id = base_id  # arena row 0 holds this block id
        self._num_blocks = num_blocks
        self._data = np.frombuffer(
            buffer, dtype=np.float64, count=num_blocks * block_slots
        ).reshape(num_blocks, block_slots)
        self.stats = IOStats()

    @property
    def block_slots(self) -> int:
        return self._block_slots

    def _view(self, block_id: int) -> np.ndarray:
        row = block_id - self._base_id
        if not 0 <= row < self._num_blocks:
            raise KeyError(f"block {block_id} outside the arena")
        return self._data[row]

    def read_block(self, block_id: int) -> np.ndarray:
        self.stats.block_reads += 1
        _trace_charge("block_reads")
        return self._view(block_id).copy()

    def write_block(self, block_id: int, data: np.ndarray) -> None:
        if data.shape != (self._block_slots,):
            raise ValueError(
                f"block data must have shape ({self._block_slots},), "
                f"got {data.shape}"
            )
        self.stats.block_writes += 1
        _trace_charge("block_writes")
        self._view(block_id)[:] = np.asarray(data, dtype=np.float64)

    def write_blocks(
        self, block_ids: np.ndarray, rows: np.ndarray
    ) -> None:
        """Batch write, one block-write I/O per row (device contract)."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._block_slots:
            raise ValueError(
                f"rows must have shape (*, {self._block_slots}), "
                f"got {rows.shape}"
            )
        block_rows = np.asarray(block_ids, dtype=np.int64) - self._base_id
        if block_rows.size and not (
            0 <= int(block_rows.min())
            and int(block_rows.max()) < self._num_blocks
        ):
            raise KeyError("write_blocks targets outside the arena")
        count = rows.shape[0]
        self.stats.block_writes += count
        _trace_charge("block_writes", count)
        self._data[block_rows] = rows


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------


def _scatter_worker(
    worker_index: int,
    schedule: ScatterSchedule,
    share,
    chunk_stride: int,
    device,
    block_ids: np.ndarray,
    scratch: mmap.mmap,
    getter: Callable[[Tuple[int, ...]], np.ndarray],
    barrier,
    results,
    trace_parent=None,
    ship_trace: bool = False,
) -> None:
    """One scatter worker: contribute assigned chunks, then own tiles.

    Worker 0 runs inline in the parent; workers 1..N-1 run in forked
    children where every argument is inherited, nothing pickled.
    Charges land on a fresh :class:`IOStats` installed on the worker's
    (copy-on-write, for children) device object and are shipped back
    through ``results`` for the parent to merge — the driver restores
    the parent device's original stats object after the inline run.

    When tracing is on, the worker's phases run under a
    ``procpool.worker`` span — parented to ``trace_parent`` for the
    inline worker, rooted in the child's fresh tracer otherwise — so
    every device charge attributes to a span instead of leaking to the
    orphan bucket of a dead copy-on-write tracer.  ``ship_trace``
    (children only) appends the finished span records, orphan I/O and
    drop count to the ok result for the driver to absorb.  A failing
    worker aborts the barrier so its siblings fail fast instead of
    waiting out the timeout.
    """
    try:
        stats = IOStats()
        device.stats = stats
        domain = schedule.domain
        offsets = schedule.tensor_offsets
        sizes = schedule.tensor_sizes
        source_reads = 0
        chunks_done = 0
        shared = np.frombuffer(scratch, dtype=np.float64)
        block_slots = schedule.block_edge ** len(domain)
        owned = share.owned if isinstance(share, _WorkerShare) else share
        tracer = get_tracer()
        with tracer.span(
            "procpool.worker", parent=trace_parent, worker=worker_index
        ):
            # --- phase 1: contribution tensors into shared scratch ---
            with tracer.span("worker.chunks") as chunks_span:
                for chunk_index in range(
                    worker_index,
                    len(schedule.chunk_positions),
                    chunk_stride,
                ):
                    grid_position = schedule.chunk_positions[chunk_index]
                    chunk = getter(grid_position)
                    chunk_hat = standard_dwt(chunk)
                    plan = get_standard_plan(
                        domain, schedule.chunk_shape, grid_position
                    )
                    offset = int(offsets[chunk_index])
                    plan.contributions(
                        chunk_hat,
                        out=shared[
                            offset : offset + int(sizes[chunk_index])
                        ],
                    )
                    source_reads += chunk.size
                    chunks_done += 1
                chunks_span.set(
                    chunks=chunks_done, source_reads=source_reads
                )
            barrier.wait(_BARRIER_TIMEOUT_S)
            # --- phase 2: assemble owned tiles, one write each -------
            with tracer.span("worker.tiles", tiles=int(owned.size)):
                if isinstance(share, _WorkerShare):
                    # Vectorised: one fancy assignment covers every
                    # SHIFT entry, one sequential ``add.at`` covers
                    # every SPLIT entry in serial order, one batch
                    # write pays one counted block write per owned
                    # tile.
                    out = np.zeros(
                        owned.size * block_slots, dtype=np.float64
                    )
                    out[share.a_tgt] = shared[share.a_src]
                    if share.c_tgt.size:
                        np.add.at(out, share.c_tgt, shared[share.c_src])
                    device.write_blocks(
                        block_ids[owned],
                        out.reshape(owned.size, block_slots),
                    )
                else:
                    tile_start = schedule.job_tile_start
                    job_accumulate = schedule.job_accumulate
                    entry_start = schedule.job_entry_start
                    entry_slots = schedule.entry_slots
                    entry_source = schedule.entry_source
                    write_block = device.write_block
                    acc = np.zeros(block_slots, dtype=np.float64)
                    for tile_index in owned:
                        acc[:] = 0.0
                        for job in range(
                            tile_start[tile_index],
                            tile_start[tile_index + 1],
                        ):
                            lo = entry_start[job]
                            hi = entry_start[job + 1]
                            slots = entry_slots[lo:hi]
                            values = shared[entry_source[lo:hi]]
                            if job_accumulate[job]:
                                acc[slots] += values
                            else:
                                acc[slots] = values
                        write_block(int(block_ids[tile_index]), acc)
        del shared  # release the scratch mmap export
        trace_payload = None
        if ship_trace and isinstance(tracer, Tracer):
            trace_payload = {
                "spans": [
                    span_record(span) for span in tracer.spans()
                ],
                "orphan_io": dict(tracer.orphan_io),
                "dropped": tracer.store.dropped,
            }
        results.put(
            (
                worker_index,
                "ok",
                {
                    field: getattr(stats, field)
                    for field in _STATS_FIELDS
                },
                source_reads,
                chunks_done,
                trace_payload,
            )
        )
    except BaseException:
        try:
            barrier.abort()  # fail siblings fast, not on timeout
        except Exception:
            pass
        results.put((worker_index, "error", traceback.format_exc()))


def _forked_worker(ship_trace: bool, *args) -> None:
    """Child entry: gc off (a collection would touch every inherited
    object's gc header and fault in its copy-on-write page; the child
    is short-lived and allocates no cycles worth collecting).

    With tracing on, the inherited tracer is a copy-on-write *copy* —
    spans and charges recorded on it die with the child.  Install a
    small fresh tracer instead; its records ship back through the
    results queue and the driver absorbs them into the real one.
    """
    gc.disable()
    if ship_trace:
        set_tracer(Tracer(max_spans=_CHILD_TRACE_SPANS))
    _scatter_worker(*args, trace_parent=None, ship_trace=ship_trace)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def _raw_device_of(store):
    tile_store = getattr(store, "tile_store", None)
    if tile_store is None:
        raise ProcPoolError(
            "the process pool needs a tiled standard store "
            "(store.tile_store missing)"
        )
    device = tile_store.device
    if not isinstance(device, (BlockDevice, MmapBlockDevice)):
        raise ProcPoolError(
            f"the process pool writes blocks directly and would bypass "
            f"{type(device).__name__} — run it on a raw BlockDevice or "
            f"MmapBlockDevice (journal the result afterwards if "
            f"durability is needed)"
        )
    return tile_store, device


def transform_standard_procpool(
    store,
    source: ChunkSource,
    chunk_shape: Sequence[int],
    order: str = "rowmajor",
    skip_zero_chunks: bool = False,
    workers: int = 2,
) -> TransformReport:
    """Bulk-load a fresh tiled standard store with forked scatter workers.

    Drop-in for ``transform_standard_chunked`` on a *fresh*
    :class:`~repro.storage.tiled.TiledStandardStore` over a raw
    (unwrapped) device: bit-identical coefficients, identical block
    directory and allocation order, and block reads/writes identical
    to a serial cached load whose pool holds the whole tile footprint
    (0 reads, ``num_tiles`` writes — tile-major assembly writes each
    tile exactly once).  Buffer-pool hit/miss counters stay zero: the
    pool is never consulted, which is the point.

    The parent participates as worker 0, so ``workers=1`` degenerates
    to the inline two-phase pipeline with no fork at all, and
    ``workers=2`` forks exactly once.

    ``skip_zero_chunks`` needs the chunk values before the schedule is
    built, so it is supported for array sources only.  Requires the
    ``fork`` start method (inherited page mappings are the zero-copy
    transport).
    """
    domain = require_power_of_two_shape(store.shape, "store shape")
    chunk_shape = require_power_of_two_shape(chunk_shape, "chunk_shape")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:
        raise ProcPoolError(
            "the process pool shares plan caches and mmap arenas by "
            "forking; this platform offers no fork start method"
        )
    tile_store, device = _raw_device_of(store)
    if tile_store.num_tiles != 0:
        raise ProcPoolError(
            "the process pool is a fresh bulk loader; the store already "
            f"holds {tile_store.num_tiles} tiles — load it through "
            f"transform_standard_chunked instead"
        )
    if skip_zero_chunks and callable(source):
        raise ProcPoolError(
            "skip_zero_chunks with a callable source would fetch every "
            "chunk twice across processes; materialise the array or "
            "use transform_standard_chunked"
        )
    grid_shape = tuple(
        extent // chunk_extent
        for extent, chunk_extent in zip(domain, chunk_shape)
    )
    getter = _chunk_getter(source, chunk_shape)
    all_positions = list(_chunk_order(order, grid_shape))
    skipped = 0
    if skip_zero_chunks:
        positions = []
        for grid_position in all_positions:
            if np.any(getter(grid_position)):
                positions.append(grid_position)
            else:
                skipped += 1
    else:
        positions = all_positions
    workers = max(1, min(workers, max(1, len(positions))))
    report = TransformReport(
        extras={
            "order": order,
            "form": "standard",
            "skipped_chunks": skipped,
            "workers": workers,
            "mode": "procpool",
        }
    )
    tracer = get_tracer()
    trace_enabled = isinstance(tracer, Tracer)
    with tracer.span(
        "transform.procpool",
        shape=domain,
        chunk=tuple(chunk_shape),
        order=order,
        workers=workers,
    ) as pool_span:
        with tracer.span("procpool.schedule"):
            schedule = _cached_schedule(
                domain, chunk_shape, store.tiling, order, positions
            )
            memo = schedule.partitions.get(workers)
            if memo is None:
                ownership = partition_ownership(
                    schedule, store.tiling, workers
                )
                shares = _worker_shares(schedule, ownership)
                memo = (ownership, shares)
                schedule.partitions[workers] = memo
            ownership, shares = memo
        # Pre-allocate every block in serial first-touch order *before*
        # forking: ids match the serial run and the mmap file never
        # resizes under a child's mapping.
        block_ids = np.array(
            [device.allocate() for _ in range(schedule.num_tiles)],
            dtype=np.int64,
        )
        tile_store.restore_directory(
            {
                key: int(block_ids[tile_index])
                for tile_index, key in enumerate(schedule.tile_keys)
            }
        )
        scratch, scratch_pooled = _acquire_buffer(
            "scratch", max(1, schedule.scratch_floats) * 8
        )
        arena: Optional[mmap.mmap] = None
        arena_pooled = False
        worker_device = None
        try:
            base_id = int(block_ids[0]) if block_ids.size else 0
            if isinstance(device, MmapBlockDevice):
                worker_device = device
            else:
                block_slots = tile_store.block_slots
                arena, arena_pooled = _acquire_buffer(
                    "arena",
                    max(1, schedule.num_tiles * block_slots * 8),
                )
                worker_device = _SharedArenaDevice(
                    arena, block_slots, base_id, schedule.num_tiles
                )
            barrier = ctx.Barrier(workers)
            results = ctx.SimpleQueue()
            processes = [
                ctx.Process(
                    target=_forked_worker,
                    args=(
                        trace_enabled,
                        worker_index,
                        schedule,
                        shares[worker_index]
                        if shares is not None
                        else ownership[worker_index],
                        workers,
                        worker_device,
                        block_ids,
                        scratch,
                        getter,
                        barrier,
                        results,
                    ),
                )
                for worker_index in range(1, workers)
            ]
            for process in processes:
                process.start()
            # The parent is worker 0: it runs its chunk share and its
            # owned tile range inline (no fork, no copy-on-write), and
            # only its fresh worker-local IOStats — merged below like
            # any other worker's — must not leak onto the device.
            original_stats = worker_device.stats
            try:
                # Inline worker 0 records straight into the parent
                # tracer, parented under the procpool span; nothing to
                # ship.
                _scatter_worker(
                    0,
                    schedule,
                    shares[0] if shares is not None else ownership[0],
                    workers,
                    worker_device,
                    block_ids,
                    scratch,
                    getter,
                    barrier,
                    results,
                    trace_parent=pool_span if trace_enabled else None,
                    ship_trace=False,
                )
            finally:
                worker_device.stats = original_stats
            for process in processes:
                process.join()
            outcomes = []
            while not results.empty():
                outcomes.append(results.get())
            results.close()
            errors = [o for o in outcomes if o[1] == "error"]
            if errors:
                # Prefer the root cause over siblings' broken-barrier
                # fallout.
                primary = next(
                    (
                        e
                        for e in errors
                        if "BrokenBarrierError" not in e[2]
                    ),
                    errors[0],
                )
                raise ProcPoolError(
                    f"scatter worker {primary[0]} failed (the store's "
                    f"pre-allocated blocks are orphaned — recreate the "
                    f"store and device/arena before retrying):"
                    f"\n{primary[2]}"
                )
            if len(outcomes) != workers:
                dead = [
                    p.exitcode for p in processes if p.exitcode != 0
                ]
                raise ProcPoolError(
                    f"{workers - len(outcomes)} scatter worker(s) died "
                    f"without reporting (exit codes {dead}; the "
                    f"store's pre-allocated blocks are orphaned — "
                    f"recreate the store and device/arena before "
                    f"retrying)"
                )
            stats = device.stats
            for outcome in outcomes:
                __, __, fields, source_reads, chunks_done, shipped = (
                    outcome
                )
                for field, value in fields.items():
                    setattr(stats, field, getattr(stats, field) + value)
                report.source_reads += source_reads
                report.chunks += chunks_done
                if shipped is not None and trace_enabled:
                    # Forked workers' spans re-id and re-parent under
                    # the procpool span; their orphan I/O and ring
                    # drops fold into the parent tracer, keeping the
                    # receipt lossless across the fork boundary.
                    tracer.absorb(
                        shipped["spans"],
                        orphan_io=shipped["orphan_io"],
                        parent=pool_span,
                        dropped=shipped["dropped"],
                    )
            if arena is not None and schedule.num_tiles:
                # The workers paid one counted write per tile into the
                # shared arena; adopting it into the simulated device
                # is the uncounted restore path, not a second write.
                arena_blocks = np.frombuffer(
                    arena, dtype=np.float64
                )[: schedule.num_tiles * tile_store.block_slots].reshape(
                    schedule.num_tiles, tile_store.block_slots
                )
                if base_id == 0 and device.num_blocks == (
                    schedule.num_tiles
                ):
                    # Fresh device: the arena *is* the block image.
                    # lint: uncounted (adopting the shared arena; workers already charged one write per tile)
                    device.restore_blocks(arena_blocks)
                else:
                    # lint: uncounted (adopting the shared arena; workers already charged one write per tile)
                    full = device.dump_blocks()
                    full[
                        base_id : base_id + schedule.num_tiles
                    ] = arena_blocks
                    # lint: uncounted (adopting the shared arena; workers already charged one write per tile)
                    device.restore_blocks(full)
                del arena_blocks  # release the mmap export before close
            elif isinstance(device, MmapBlockDevice):
                device.sync()
        except BaseException:
            # Blocks were pre-allocated and the directory restored
            # before the workers ran; the device's allocation cursor
            # cannot roll back, so clear the directory rather than
            # leave a half-loaded store that masquerades as populated.
            tile_store.restore_directory({})
            raise
        finally:
            if scratch_pooled:
                _release_buffer("scratch")
            else:
                scratch.close()
            if arena is not None:
                if isinstance(worker_device, _SharedArenaDevice):
                    worker_device._data = None  # release the export
                if arena_pooled:
                    _release_buffer("arena")
                else:
                    arena.close()
        report.extras["ownership"] = [
            {
                "tiles": int(owned.size),
                "entries": int(schedule.entry_counts[owned].sum()),
            }
            for owned in ownership
        ]
        if hasattr(store, "flush"):
            store.flush()
    report.store_stats = store.stats.snapshot()
    return report
