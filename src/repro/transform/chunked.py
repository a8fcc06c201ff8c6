"""I/O-efficient bulk transformation by chunks (paper, Section 5.1).

The dataset is consumed in memory-sized hypercube chunks; each chunk is
transformed in memory, its details are SHIFTed into place and its
average is SPLIT into path contributions.

Standard form (Result 1)
    ``O((N/M)^d (M + log(N/M))^d)`` coefficient I/Os, improving to
    ``O((N/M)^d (M/B + log_B(N/M))^d)`` blocks under tiling.

Non-standard form (Result 2)
    ``O((N/M)^d (M^d + (2^d-1) log(N/M)))`` coefficient I/Os; with
    z-order chunk traversal and a crest buffer of
    ``(2^d - 1) log(N/M)`` coefficients the SPLIT contributions never
    hit the disk before they are final, reaching the optimal
    ``O(N^d)`` (``O((N/B)^d)`` blocks).

Both drivers are one serial loop over the chunks, each chunk applied
through its cached plan from :mod:`repro.core.plans`, so at most one
chunk is in memory at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.plans import get_nonstandard_plan, get_standard_plan
from repro.obs.tracer import get_tracer
from repro.transform.report import TransformReport
from repro.util.morton import rowmajor_chunks, zorder_chunks
from repro.util.validation import (
    require_power_of_two,
    require_power_of_two_shape,
)
from repro.wavelet.keys import NonStandardKey
from repro.wavelet.nonstandard import nonstandard_dwt
from repro.wavelet.standard import standard_dwt

__all__ = [
    "ChunkSource",
    "transform_standard_chunked",
    "transform_nonstandard_chunked",
]

#: A chunk supplier: either the full dense array, or a callable mapping
#: a chunk grid position to the chunk's data (so benchmarks can stream
#: synthetic data without materialising the whole cube).
ChunkSource = Union[np.ndarray, Callable[[Tuple[int, ...]], np.ndarray]]


def _chunk_getter(
    source: ChunkSource, chunk_shape: Sequence[int]
) -> Callable[[Tuple[int, ...]], np.ndarray]:
    if callable(source):
        return source

    array = np.asarray(source, dtype=np.float64)

    def getter(grid_position: Tuple[int, ...]) -> np.ndarray:
        selector = tuple(
            slice(g * extent, (g + 1) * extent)
            for g, extent in zip(grid_position, chunk_shape)
        )
        return array[selector]

    return getter


def _chunk_order(order: str, grid_shape: Sequence[int]):
    if order == "zorder":
        return zorder_chunks(grid_shape)
    if order == "rowmajor":
        return rowmajor_chunks(grid_shape)
    raise ValueError(f"unknown chunk order {order!r}")


def transform_standard_chunked(
    store,
    source: ChunkSource,
    chunk_shape: Sequence[int],
    order: str = "rowmajor",
    skip_zero_chunks: bool = False,
) -> TransformReport:
    """Bulk-load a standard-form transform chunk by chunk (Result 1).

    ``store`` is any standard-store region interface whose ``shape``
    is the full domain; ``chunk_shape`` is the memory budget ``M^d``.

    ``skip_zero_chunks`` models the paper's sparse-data variant
    (``O(z + (z/M^d) log(N/M))``-style cost for ``z`` non-zero values):
    all-zero chunks contribute nothing to any coefficient and are
    skipped entirely, as a chunk directory over sparse data would never
    fetch them.  Skipped chunks are counted in
    ``extras["skipped_chunks"]`` and charge no I/O.
    """
    domain = require_power_of_two_shape(store.shape, "store shape")
    chunk_shape = require_power_of_two_shape(chunk_shape, "chunk_shape")
    if len(chunk_shape) != len(domain) or any(
        m > n for m, n in zip(chunk_shape, domain)
    ):
        raise ValueError(
            f"chunk_shape {chunk_shape} must have the rank of the store "
            f"shape {domain} and no larger extent"
        )
    grid_shape = tuple(
        extent // chunk_extent
        for extent, chunk_extent in zip(domain, chunk_shape)
    )
    getter = _chunk_getter(source, chunk_shape)
    report = TransformReport(
        extras={"order": order, "form": "standard", "skipped_chunks": 0}
    )
    cells_per_chunk = int(np.prod(chunk_shape))
    tracer = get_tracer()

    with tracer.span(
        "transform.standard",
        shape=domain,
        chunk=tuple(chunk_shape),
        order=order,
    ):
        for grid_position in _chunk_order(order, grid_shape):
            with tracer.span("chunk", grid=grid_position) as span:
                chunk = getter(grid_position)
                if skip_zero_chunks and not np.any(chunk):
                    report.extras["skipped_chunks"] += 1
                    span.set(skipped=True)
                    continue
                report.source_reads += cells_per_chunk
                chunk_hat = standard_dwt(chunk)
                plan = get_standard_plan(domain, chunk_hat.shape, grid_position)
                plan.apply(store, chunk_hat, fresh=True)
                report.chunks += 1

        if hasattr(store, "flush"):
            store.flush()
    report.store_stats = store.stats.snapshot()
    return report


class _CrestBuffer:
    """In-memory accumulator for not-yet-final SPLIT contributions.

    Keyed by quadtree node ``(level, position)``; each entry holds the
    ``2^d - 1`` detail accumulators of the node plus a countdown of
    outstanding chunk contributions.  A node is flushed to the store
    the moment its last contribution arrives, so with z-order chunk
    traversal at most one node per level is ever live — the paper's
    ``(2^d - 1) log(N/M)`` extra memory.  Completed nodes are tracked
    in an explicit list as their countdowns hit zero, so draining them
    never rescans the live entries.
    """

    def __init__(self, ndim: int) -> None:
        self._ndim = ndim
        self._entries: Dict[Tuple[int, Tuple[int, ...]], list] = {}
        self._completed: list = []
        self.max_live_nodes = 0

    def is_empty(self) -> bool:
        return not self._entries

    def add(
        self,
        key: NonStandardKey,
        delta: float,
        chunk_level_gap: int,
    ) -> None:
        """Accumulate one contribution; ``chunk_level_gap`` is
        ``level - m`` (how many levels above the chunks the node is)."""
        node_id = (key.level, key.node)
        entry = self._entries.get(node_id)
        if entry is None:
            expected = (1 << (chunk_level_gap * self._ndim)) * (
                (1 << self._ndim) - 1
            )
            entry = [np.zeros((1 << self._ndim) - 1), expected]
            self._entries[node_id] = entry
            self.max_live_nodes = max(self.max_live_nodes, len(self._entries))
        entry[0][key.type_mask - 1] += delta
        entry[1] -= 1
        if entry[1] == 0:
            self._completed.append(node_id)

    def pop_complete(self):
        """Yield and remove nodes that received every contribution."""
        while self._completed:
            node_id = self._completed.pop(0)
            values = self._entries.pop(node_id)[0]
            yield node_id, values


def transform_nonstandard_chunked(
    store,
    source: ChunkSource,
    chunk_edge: int,
    order: str = "zorder",
    buffer_crest: bool = True,
    skip_zero_chunks: bool = False,
) -> TransformReport:
    """Bulk-load a non-standard transform chunk by chunk (Result 2).

    With ``buffer_crest`` the SPLIT contributions are accumulated in
    memory and written exactly once when final — combined with
    ``order="zorder"`` this is the paper's optimal ``O(N^d)`` variant.
    With ``buffer_crest=False`` every SPLIT contribution is a
    read-modify-write against the store (the unbuffered bound of
    Result 2).

    ``skip_zero_chunks`` models sparse data: all-zero chunks do no
    SHIFT writes and charge no source reads.  (Under ``buffer_crest``
    their zero SPLIT contributions are still booked — in memory, for
    free — so crest finalisation stays exact.)

    The per-chunk SHIFT regions and SPLIT path weights come from cached
    :class:`~repro.core.plans.NonStandardChunkPlan` objects instead of
    being re-derived every chunk.
    """
    size = store.size
    ndim = store.ndim
    require_power_of_two(chunk_edge, "chunk_edge")
    if chunk_edge > size:
        raise ValueError(
            f"chunk_edge {chunk_edge} exceeds the store size {size}"
        )
    grid_side = size // chunk_edge
    grid_shape = (grid_side,) * ndim
    getter = _chunk_getter(source, (chunk_edge,) * ndim)
    report = TransformReport(
        extras={
            "order": order,
            "form": "nonstandard",
            "buffered": buffer_crest,
            "skipped_chunks": 0,
        }
    )
    cells_per_chunk = chunk_edge**ndim
    crest = _CrestBuffer(ndim) if buffer_crest else None
    scaling_accumulator = 0.0

    with get_tracer().span(
        "transform.nonstandard",
        size=size,
        chunk_edge=chunk_edge,
        order=order,
        buffered=bool(buffer_crest),
    ):
        for grid_position in _chunk_order(order, grid_shape):
            chunk = getter(grid_position)
            skipped = skip_zero_chunks and not np.any(chunk)
            plan = get_nonstandard_plan(size, chunk_edge, grid_position)
            if skipped:
                report.extras["skipped_chunks"] += 1
                if crest is None:
                    continue
                chunk_hat = None
            else:
                report.source_reads += cells_per_chunk
                chunk_hat = nonstandard_dwt(chunk)
                for level, mask, start, chunk_slices in plan.shift_regions:
                    store.set_details(
                        level, mask, start, chunk_hat[chunk_slices]
                    )
            average = (
                0.0 if chunk_hat is None else float(chunk_hat[(0,) * ndim])
            )
            details = plan.split_pairs(average)
            scaling_delta = average * plan.scaling_weight
            if crest is None:
                for key, delta in details:
                    store.add_detail(key, delta)
                store.add_scaling(scaling_delta)
            else:
                for (key, delta), gap in zip(details, plan.split_level_gaps):
                    crest.add(key, delta, gap)
                scaling_accumulator += scaling_delta
                for (level, node), values in crest.pop_complete():
                    if skip_zero_chunks and not np.any(values):
                        continue  # a fully-zero subtree: nothing to store
                    for type_mask in range(1, 1 << ndim):
                        store.set_detail(
                            NonStandardKey(level, node, type_mask),
                            float(values[type_mask - 1]),
                        )
            if not skipped:
                report.chunks += 1

        if crest is not None:
            # Any residue means the source did not cover the whole cube.
            if not crest.is_empty():
                raise RuntimeError(
                    "crest buffer not empty after the last chunk — "
                    "incomplete chunk coverage"
                )
            store.set_scaling(scaling_accumulator)
            report.max_buffer_coefficients = crest.max_live_nodes * (
                (1 << ndim) - 1
            )
        if hasattr(store, "flush"):
            store.flush()
        report.store_stats = store.stats.snapshot()
    return report
