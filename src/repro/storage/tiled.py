"""Tiled (block-granularity) coefficient stores.

These stores present the same region/key interfaces as their dense
counterparts in :mod:`repro.storage.dense`, but persist coefficients in
tile blocks through a :class:`~repro.storage.tile_store.TileStore`, so
that the I/O counters measure *disk blocks* under the paper's optimal
allocation strategy (Section 3).  All region operations group the
touched coefficients by tile and move whole blocks, exactly as the
paper's tiled SHIFT-SPLIT does (Section 4.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.iostats import IOStats
from repro.storage.tile_store import TileStore
from repro.tiling.nonstandard import NonStandardTiling
from repro.tiling.standard import StandardTiling
from repro.wavelet.keys import NonStandardKey

__all__ = ["TiledStandardStore", "TiledNonStandardStore"]

def _group_by_tile(
    bands: np.ndarray, roots: np.ndarray
) -> List[Tuple[Tuple[int, int], np.ndarray]]:
    """Group positions of one axis by their (band, root) tile part.

    Returns ``[(tile_part, selector), ...]`` where ``selector`` indexes
    the original per-axis arrays.
    """
    span = int(roots.max()) + 1 if roots.size else 1
    combined = bands * span + roots
    unique, inverse = np.unique(combined, return_inverse=True)
    groups = []
    for group_index, key in enumerate(unique):
        selector = np.nonzero(inverse == group_index)[0]
        groups.append(((int(key) // span, int(key) % span), selector))
    return groups


class TiledStandardStore:
    """Standard-form transform stored in cross-product tiles.

    Mirrors :class:`~repro.storage.dense.DenseStandardStore`'s interface
    (``set_region`` / ``add_region`` / ``read_region`` / point ops) so
    the maintenance algorithms are store-agnostic.
    """

    def __init__(
        self,
        shape: Sequence[int],
        block_edge: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
        device=None,
    ) -> None:
        self._tiling = StandardTiling(shape, block_edge)
        self._edge = block_edge
        self._store = TileStore(
            block_slots=self._tiling.block_slots,
            pool_capacity=pool_capacity,
            stats=stats,
            device=device,
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._tiling.shape

    @property
    def ndim(self) -> int:
        return self._tiling.ndim

    @property
    def tiling(self) -> StandardTiling:
        return self._tiling

    @property
    def tile_store(self) -> TileStore:
        return self._store

    @property
    def stats(self) -> IOStats:
        return self._store.stats

    def flush(self) -> None:
        self._store.flush()

    def drop_cache(self) -> None:
        self._store.drop_cache()

    # ------------------------------------------------------------------

    def _axis_groups(self, per_axis: Sequence[np.ndarray]):
        """Locate and tile-group every axis' index array.

        Duplicated positions would make fancy-index accumulation
        silently drop updates, so they are rejected, as in the dense
        and naive stores.
        """
        if len(per_axis) != self.ndim:
            raise ValueError(
                f"need {self.ndim} index arrays, got {len(per_axis)}"
            )
        located = []
        for axis, indices in enumerate(per_axis):
            flat = np.asarray(indices, dtype=np.int64)
            if np.unique(flat).size != flat.size:
                raise ValueError(
                    f"axis {axis} index array contains duplicates"
                )
            bands, roots, slots = self._tiling.locate_axis_indices(axis, flat)
            located.append((slots, _group_by_tile(bands, roots)))
        return located

    def _update_region(
        self,
        per_axis: Sequence[np.ndarray],
        values: np.ndarray,
        accumulate: bool,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        located = self._axis_groups(per_axis)
        edge_shape = (self._edge,) * self.ndim

        def recurse(axis: int, tile_parts: list, selectors: list) -> None:
            if axis == self.ndim:
                key = tuple(tile_parts)
                tile = self._store.tile(key, for_write=True)
                view = tile.reshape(edge_shape)
                slot_ix = np.ix_(
                    *[
                        located[a][0][selectors[a]]
                        for a in range(self.ndim)
                    ]
                )
                sub_values = values[np.ix_(*selectors)]
                if accumulate:
                    view[slot_ix] += sub_values
                else:
                    view[slot_ix] = sub_values
                return
            for part, selector in located[axis][1]:
                tile_parts.append(part)
                selectors.append(selector)
                recurse(axis + 1, tile_parts, selectors)
                tile_parts.pop()
                selectors.pop()

        recurse(0, [], [])

    def set_region(
        self, per_axis: Sequence[np.ndarray], values: np.ndarray
    ) -> None:
        """Overwrite the cross-product region, tile by tile."""
        self._update_region(per_axis, values, accumulate=False)

    def add_region(
        self, per_axis: Sequence[np.ndarray], values: np.ndarray
    ) -> None:
        """Accumulate into the cross-product region, tile by tile."""
        self._update_region(per_axis, values, accumulate=True)

    def read_region(self, per_axis: Sequence[np.ndarray]) -> np.ndarray:
        """Read the cross-product region, tile by tile."""
        located = self._axis_groups(per_axis)
        out_shape = tuple(np.asarray(axis).size for axis in per_axis)
        out = np.zeros(out_shape, dtype=np.float64)
        edge_shape = (self._edge,) * self.ndim

        def recurse(axis: int, tile_parts: list, selectors: list) -> None:
            if axis == self.ndim:
                key = tuple(tile_parts)
                tile = self._store.peek(key)
                if tile is None:
                    return  # never-written tiles read as zero, no I/O
                view = tile.reshape(edge_shape)
                slot_ix = np.ix_(
                    *[
                        located[a][0][selectors[a]]
                        for a in range(self.ndim)
                    ]
                )
                out[np.ix_(*selectors)] = view[slot_ix]
                return
            for part, selector in located[axis][1]:
                tile_parts.append(part)
                selectors.append(selector)
                recurse(axis + 1, tile_parts, selectors)
                tile_parts.pop()
                selectors.pop()

        recurse(0, [], [])
        return out

    # ------------------------------------------------------------------

    def read_point(self, position: Sequence[int]) -> float:
        key, slot = self._tiling.locate(position)
        return self._store.read_slot(key, slot)

    def write_point(self, position: Sequence[int], value: float) -> None:
        key, slot = self._tiling.locate(position)
        self._store.write_slot(key, slot, value)

    def add_point(self, position: Sequence[int], delta: float) -> None:
        key, slot = self._tiling.locate(position)
        self._store.add_to_slot(key, slot, delta)

    def to_array(self) -> np.ndarray:
        """Uncounted dense snapshot (verification only).

        Decodes every materialised tile.  Per-axis slot 0 is a valid
        transform coefficient only for the per-axis *top* tile (where
        it holds the axis' overall-smooth direction, flat index 0);
        slot 0 of other tiles is the redundant scaling slot and is
        skipped.
        """
        saved = self.stats.snapshot()  # snapshots are free of I/O charges
        dense = np.zeros(self.shape, dtype=np.float64)
        edge_shape = (self._edge,) * self.ndim
        for key in list(self._store.keys()):
            tile = self._store.peek(key)
            view = tile.reshape(edge_shape)
            axis_slots: List[np.ndarray] = []
            axis_flats: List[np.ndarray] = []
            usable = True
            for axis, part in enumerate(key):
                tiling = self._tiling.dim(axis)
                slots = []
                flats = []
                band, root = part
                if band == tiling.num_bands - 1 and root == 0:
                    slots.append(0)
                    flats.append(0)
                for level, position, slot in tiling.details_of_tile(part):
                    slots.append(slot)
                    flats.append(
                        (1 << (tiling.levels - level)) + position
                    )
                if not slots:
                    usable = False
                    break
                axis_slots.append(np.asarray(slots, dtype=np.intp))
                axis_flats.append(np.asarray(flats, dtype=np.intp))
            if usable:
                dense[np.ix_(*axis_flats)] = view[np.ix_(*axis_slots)]
        self.stats.block_reads = saved.block_reads
        self.stats.block_writes = saved.block_writes
        self.stats.cache_hits = saved.cache_hits
        self.stats.cache_misses = saved.cache_misses
        return dense


class TiledNonStandardStore:
    """Non-standard transform stored in quadtree-subtree tiles.

    Mirrors :class:`~repro.storage.dense.DenseNonStandardStore`'s
    interface.
    """

    def __init__(
        self,
        size: int,
        ndim: int,
        block_edge: int,
        pool_capacity: int = 8,
        stats: Optional[IOStats] = None,
    ) -> None:
        self._tiling = NonStandardTiling(size, ndim, block_edge)
        self._store = TileStore(
            block_slots=self._tiling.block_slots,
            pool_capacity=pool_capacity,
            stats=stats,
        )

    @property
    def size(self) -> int:
        return self._tiling.size

    @property
    def ndim(self) -> int:
        return self._tiling.ndim

    @property
    def tiling(self) -> NonStandardTiling:
        return self._tiling

    @property
    def tile_store(self) -> TileStore:
        return self._store

    @property
    def stats(self) -> IOStats:
        return self._store.stats

    def flush(self) -> None:
        self._store.flush()

    def drop_cache(self) -> None:
        self._store.drop_cache()

    # ------------------------------------------------------------------

    def _region_tiles(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        node_counts: Sequence[int],
    ):
        """Iterate (tile key, flat slot array, region selector) for a
        contiguous node region of one subband."""
        band = self._tiling.band_of_level(level)
        depth = self._tiling.band_root_level(band) - level
        side = 1 << depth
        branching = self._tiling.branching
        base = ((branching ** depth) - 1) // (branching - 1)
        nodes = [
            np.arange(int(start), int(start) + int(count), dtype=np.int64)
            for start, count in zip(node_start, node_counts)
        ]
        roots = [axis_nodes >> depth for axis_nodes in nodes]
        groups_per_axis = []
        for axis_roots in roots:
            unique, inverse = np.unique(axis_roots, return_inverse=True)
            groups_per_axis.append(
                [
                    (int(root), np.nonzero(inverse == g)[0])
                    for g, root in enumerate(unique)
                ]
            )

        def recurse(axis: int, chosen_roots: list, selectors: list):
            if axis == self._tiling.ndim:
                key = (band, tuple(chosen_roots))
                # Flat within-tile slot for every node in this sub-block.
                ordinal = np.zeros(
                    tuple(sel.size for sel in selectors), dtype=np.int64
                )
                for a in range(self._tiling.ndim):
                    local = (
                        nodes[a][selectors[a]]
                        - (chosen_roots[a] << depth)
                    )
                    shape = [1] * self._tiling.ndim
                    shape[a] = local.size
                    ordinal = ordinal * side + local.reshape(shape)
                slots = (
                    1
                    + (base + ordinal) * (branching - 1)
                    + (type_mask - 1)
                )
                yield key, slots, selectors
                return
            for root, selector in groups_per_axis[axis]:
                chosen_roots.append(root)
                selectors.append(selector)
                yield from recurse(axis + 1, chosen_roots, selectors)
                chosen_roots.pop()
                selectors.pop()

        yield from recurse(0, [], [])

    def set_details(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        values: np.ndarray,
    ) -> None:
        """Overwrite a contiguous node region of one subband."""
        values = np.asarray(values, dtype=np.float64)
        for key, slots, selectors in self._region_tiles(
            level, type_mask, node_start, values.shape
        ):
            tile = self._store.tile(key, for_write=True)
            tile[slots.ravel()] = values[np.ix_(*selectors)].ravel()

    def read_details(
        self,
        level: int,
        type_mask: int,
        node_start: Sequence[int],
        node_counts: Sequence[int],
    ) -> np.ndarray:
        """Read a contiguous node region of one subband."""
        out = np.zeros(tuple(int(c) for c in node_counts), dtype=np.float64)
        for key, slots, selectors in self._region_tiles(
            level, type_mask, node_start, node_counts
        ):
            tile = self._store.peek(key)
            if tile is None:
                continue
            out[np.ix_(*selectors)] = tile[slots.ravel()].reshape(slots.shape)
        return out

    def add_detail(self, key: NonStandardKey, delta: float) -> None:
        tile, slot = self._tiling.locate_key(key)
        self._store.add_to_slot(tile, slot, delta)

    def set_detail(self, key: NonStandardKey, value: float) -> None:
        tile, slot = self._tiling.locate_key(key)
        self._store.write_slot(tile, slot, value)

    def read_detail(self, key: NonStandardKey) -> float:
        tile, slot = self._tiling.locate_key(key)
        return self._store.read_slot(tile, slot)

    def read_scaling(self) -> float:
        tile, slot = self._tiling.locate_scaling()
        return self._store.read_slot(tile, slot)

    def add_scaling(self, delta: float) -> None:
        tile, slot = self._tiling.locate_scaling()
        self._store.add_to_slot(tile, slot, delta)

    def set_scaling(self, value: float) -> None:
        tile, slot = self._tiling.locate_scaling()
        self._store.write_slot(tile, slot, value)

    def to_array(self) -> np.ndarray:
        """Uncounted dense Mallat-layout snapshot (verification only)."""
        saved = self.stats.snapshot()
        dense = np.zeros((self.size,) * self.ndim, dtype=np.float64)
        for key in list(self._store.keys()):
            tile = self._store.peek(key)
            for detail_key in self._tiling.keys_of_tile(key):
                __, slot = self._tiling.locate_key(detail_key)
                dense[detail_key.position(self.size)] = tile[slot]
        top_tile, top_slot = self._tiling.locate_scaling()
        stored = self._store.peek(top_tile)
        if stored is not None:
            dense[(0,) * self.ndim] = stored[top_slot]
        self.stats.block_reads = saved.block_reads
        self.stats.block_writes = saved.block_writes
        self.stats.cache_hits = saved.cache_hits
        self.stats.cache_misses = saved.cache_misses
        return dense
