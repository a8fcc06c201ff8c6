"""Plan-compiled SHIFT-SPLIT: cached chunk plans for both forms.

Applying a chunk re-derives, on every call, structure that depends only
on the chunk's *geometry*: the per-axis SHIFT-SPLIT mappings of
:mod:`repro.core.shiftsplit1d`, the selectors that carve the
contribution tensor into its SHIFT block and per-axis SPLIT fans, and —
for tiled stores — the per-tile index arithmetic of every region call.
All chunks of one ``(domain, chunk)`` grid share the per-axis structure
entirely (the separable factoring of the standard form means a 1024²
load with 64² chunks needs only 16 distinct per-axis mappings, not
256), and a chunk at a fixed translation reuses *everything* across
repeated loads and batch updates.

This module compiles that structure once into a :class:`StandardChunkPlan`
/ :class:`NonStandardChunkPlan`, memoised in a thread-safe LRU keyed by
``(domain_shape, chunk_shape, translation)``.  Applying a plan is pure
numpy: one fancy gather + one multiply builds the contribution tensor,
and each region is replayed through a
:class:`~repro.storage.scatter.CompiledRegion` — zero per-call
``np.unique``, recursion, or tuple-loop overhead.

Plans are the only production SHIFT-SPLIT path.  The interpreted
``*_uncached`` functions of :mod:`repro.core.standard_ops` and
:mod:`repro.core.nonstandard_ops` survive as the test oracle: the
compiled path visits tiles in exactly the order they do, so block I/O
counts (the paper's currency) are **identical**; and because every
SHIFT/SPLIT weight is a signed power of two, the results are
**bit-identical** too.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.tracer import get_tracer

from repro.core.shiftsplit1d import AxisShiftSplit, axis_shift_split
from repro.storage.scatter import AxisTileGroups, CompiledRegion, group_axis_indices
from repro.tiling.onedim import OneDimTiling
from repro.tiling.standard import StandardTiling
from repro.util.bits import ilog2
from repro.wavelet.keys import NonStandardKey

__all__ = [
    "NonStandardChunkPlan",
    "StandardChunkPlan",
    "cached_axis_map",
    "clear_plan_caches",
    "get_nonstandard_plan",
    "get_standard_plan",
    "plan_cache_stats",
]


# ----------------------------------------------------------------------
# thread-safe LRU for whole-chunk plans
# ----------------------------------------------------------------------


class _PlanLRU:
    """A small thread-safe LRU keyed by chunk geometry.

    ``get_or_build`` releases the lock while building, so two threads
    racing on the same cold key may build the (pure, identical) plan
    twice; the second build simply replaces the first.  Besides the
    hit/miss/eviction tallies the cache counts its plan ``builds`` and
    opens a ``plans.compile`` span per build when tracing is enabled.
    ``build_seconds`` is the cache's whole compile cost: the plan
    builds plus the per-tile regions a plan compiles lazily on its
    first use against each tile geometry (:meth:`add_build_seconds`),
    which are not builds of their own.
    """

    def __init__(self, capacity: int, name: str = "plans") -> None:
        self._capacity = capacity  # guarded-by: _lock
        self._name = name
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.builds = 0  # guarded-by: _lock
        self.build_seconds = 0.0  # guarded-by: _lock

    @property
    def capacity(self) -> int:
        with self._lock:
            return self._capacity

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_build(self, key: tuple, build: Callable[[], object]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        started = time.perf_counter()
        with get_tracer().span("plans.compile", cache=self._name, key=repr(key)):
            entry = build()
        elapsed = time.perf_counter() - started
        with self._lock:
            self.builds += 1
            self.build_seconds += elapsed
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def add_build_seconds(self, seconds: float) -> None:
        """Charge compile time spent outside :meth:`get_or_build`."""
        with self._lock:
            self.build_seconds += seconds

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> Dict[str, float]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "builds": self.builds,
                "build_seconds": self.build_seconds,
            }


_STANDARD_PLANS = _PlanLRU(capacity=1024, name="standard")
_NONSTANDARD_PLANS = _PlanLRU(capacity=1024, name="nonstandard")


# ----------------------------------------------------------------------
# per-axis caches (shared across every chunk of a grid)
# ----------------------------------------------------------------------


@lru_cache(maxsize=65536)
def cached_axis_map(size: int, chunk: int, translation: int) -> AxisShiftSplit:
    """Memoised :func:`~repro.core.shiftsplit1d.axis_shift_split`.

    A ``(N/M)^d``-chunk grid has only ``N/M`` distinct per-axis maps per
    axis extent, so this cache turns per-chunk map construction into a
    dictionary hit for all but the first chunk of each column/row.
    """
    return axis_shift_split(size, chunk, translation)


@lru_cache(maxsize=65536)
def _cached_axis_inverse_basis(
    size: int, chunk: int, translation: int
) -> np.ndarray:
    """Per-axis inverse SHIFT-SPLIT basis (Section 5.4, Lemma 1).

    Row ``i`` reconstructs chunk-transform entry ``i`` from the gathered
    global coefficients: pass-through for SHIFT entries, signed path
    weights for the average row.
    """
    mp = cached_axis_map(size, chunk, translation)
    basis = np.zeros((mp.chunk, mp.num_entries), dtype=np.float64)
    shift = mp.shift_slice()
    basis[mp.source[shift], np.arange(mp.num_shift)] = 1.0
    split = mp.split_slice()
    basis[0, split] = mp.inverse_weight[split]
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=65536)
def _cached_axis_groups(
    extent: int, chunk: int, translation: int, block_edge: int, kind: str
) -> AxisTileGroups:
    """Tile-grouped per-axis targets of one region kind.

    ``kind`` selects the slice of the axis map the region covers:
    ``"shift"`` (the ``M - 1`` pure-SHIFT entries), ``"split"`` (the
    path details plus the average) or ``"full"`` (all entries).
    """
    mp = cached_axis_map(extent, chunk, translation)
    if kind == "shift":
        selector = mp.shift_slice()
    elif kind == "split":
        selector = mp.split_slice()
    elif kind == "full":
        selector = slice(0, mp.num_entries)
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown region kind {kind!r}")
    tiling = OneDimTiling(extent, block_edge)
    return group_axis_indices(tiling, mp.target[selector])


def _kind_offset(mp: AxisShiftSplit, kind: str) -> int:
    return mp.num_shift if kind == "split" else 0


def _kind_selector(mp: AxisShiftSplit, kind: str) -> slice:
    if kind == "shift":
        return mp.shift_slice()
    if kind == "split":
        return mp.split_slice()
    return slice(0, mp.num_entries)


# ----------------------------------------------------------------------
# standard form
# ----------------------------------------------------------------------


class _PlanRegion:
    """One cross-product region of a standard chunk plan.

    ``kinds`` names, per axis, which slice of the axis map the region
    covers; compiled scatters are memoised per tile ``block_edge``.
    """

    __slots__ = ("kinds", "selectors", "targets", "is_shift", "_scatters")

    def __init__(
        self,
        kinds: Tuple[str, ...],
        selectors: Tuple[slice, ...],
        targets: List[np.ndarray],
        is_shift: bool,
    ) -> None:
        self.kinds = kinds
        self.selectors = selectors
        self.targets = targets
        self.is_shift = is_shift
        self._scatters: Dict[int, CompiledRegion] = {}


class StandardChunkPlan:
    """Everything needed to apply/extract one standard-form chunk.

    Holds the per-axis maps, the precomputed source-gather selector and
    weight tensor (one multiply builds the whole contribution tensor),
    the region decomposition of :func:`apply_chunk_standard` (the SHIFT
    block plus ``d`` disjoint SPLIT fans), and — lazily, per tile
    geometry — the compiled per-tile scatters.
    """

    __slots__ = (
        "domain_shape",
        "chunk_shape",
        "grid_position",
        "maps",
        "src_ix",
        "weight_tensor",
        "tensor_shape",
        "regions",
        "full_region",
        "inverse_bases",
    )

    def __init__(
        self,
        domain_shape: Tuple[int, ...],
        chunk_shape: Tuple[int, ...],
        grid_position: Tuple[int, ...],
    ) -> None:
        self.domain_shape = domain_shape
        self.chunk_shape = chunk_shape
        self.grid_position = grid_position
        self.maps = tuple(
            cached_axis_map(extent, chunk, translation)
            for extent, chunk, translation in zip(
                domain_shape, chunk_shape, grid_position
            )
        )
        self.src_ix = np.ix_(*[mp.source for mp in self.maps])
        self.tensor_shape = tuple(mp.num_entries for mp in self.maps)
        ndim = len(self.maps)
        weight = self.maps[0].weight.reshape(
            (-1,) + (1,) * (ndim - 1)
        ).copy()
        for axis in range(1, ndim):
            shape = [1] * ndim
            shape[axis] = self.maps[axis].weight.size
            weight = weight * self.maps[axis].weight.reshape(shape)
        self.weight_tensor = np.ascontiguousarray(
            np.broadcast_to(weight, self.tensor_shape)
        )
        self.regions = self._build_regions()
        self.full_region = _PlanRegion(
            kinds=("full",) * ndim,
            selectors=tuple(slice(0, mp.num_entries) for mp in self.maps),
            targets=[mp.target for mp in self.maps],
            is_shift=False,
        )
        self.inverse_bases = tuple(
            _cached_axis_inverse_basis(extent, chunk, translation)
            for extent, chunk, translation in zip(
                domain_shape, chunk_shape, grid_position
            )
        )

    def _build_regions(self) -> Tuple[_PlanRegion, ...]:
        ndim = len(self.maps)
        regions: List[_PlanRegion] = []
        if all(mp.num_shift > 0 for mp in self.maps):
            regions.append(
                _PlanRegion(
                    kinds=("shift",) * ndim,
                    selectors=tuple(mp.shift_slice() for mp in self.maps),
                    targets=[
                        mp.target[mp.shift_slice()] for mp in self.maps
                    ],
                    is_shift=True,
                )
            )
        for split_axis in range(ndim):
            kinds = tuple(
                "shift"
                if axis < split_axis
                else ("split" if axis == split_axis else "full")
                for axis in range(ndim)
            )
            # A leading pure-SHIFT axis with no SHIFT entries empties
            # the whole region (matches the interpreted path's
            # ``block.size == 0`` skip).
            if any(
                kind == "shift" and mp.num_shift == 0
                for kind, mp in zip(kinds, self.maps)
            ):
                continue
            selectors = tuple(
                _kind_selector(mp, kind)
                for kind, mp in zip(kinds, self.maps)
            )
            regions.append(
                _PlanRegion(
                    kinds=kinds,
                    selectors=selectors,
                    targets=[
                        mp.target[selector]
                        for mp, selector in zip(self.maps, selectors)
                    ],
                    is_shift=False,
                )
            )
        return tuple(regions)

    # ------------------------------------------------------------------

    def contributions(
        self, chunk_hat: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Flat contribution tensor of a transformed chunk.

        One gather plus one in-place multiply; every weight is a signed
        power of two, so the result is bit-identical to the interpreted
        per-axis broadcasting.  ``out`` (a flat float64 buffer of the
        tensor's size) receives the product directly — bulk loaders
        pass a shared-memory view to skip one copy per chunk.
        """
        gathered = chunk_hat[self.src_ix]
        if out is not None:
            np.multiply(
                gathered,
                self.weight_tensor,
                out=out.reshape(gathered.shape),
            )
            return out
        np.multiply(gathered, self.weight_tensor, out=gathered)
        return gathered.reshape(-1)

    def _tiled_target(
        self, store
    ) -> Optional[Tuple[object, StandardTiling]]:
        tiling = getattr(store, "tiling", None)
        if (
            isinstance(tiling, StandardTiling)
            and hasattr(store, "tile_store")
            and tiling.shape == self.domain_shape
        ):
            return store.tile_store, tiling
        return None

    def compiled_region(
        self, region: _PlanRegion, block_edge: int
    ) -> CompiledRegion:
        """The region's compiled scatter for tile edge ``block_edge``."""
        compiled = region._scatters.get(block_edge)
        if compiled is None:
            groups = [
                _cached_axis_groups(
                    extent, chunk, translation, block_edge, kind
                )
                for extent, chunk, translation, kind in zip(
                    self.domain_shape,
                    self.chunk_shape,
                    self.grid_position,
                    region.kinds,
                )
            ]
            offsets = [
                _kind_offset(mp, kind)
                for mp, kind in zip(self.maps, region.kinds)
            ]
            started = time.perf_counter()
            compiled = CompiledRegion.from_axis_groups(
                groups, offsets, self.tensor_shape, block_edge
            )
            _STANDARD_PLANS.add_build_seconds(time.perf_counter() - started)
            region._scatters[block_edge] = compiled
        return compiled

    def iter_compiled(
        self, tiling: StandardTiling
    ) -> Iterator[Tuple[bool, CompiledRegion]]:
        """``(is_shift, compiled)`` per region, in application order."""
        for region in self.regions:
            yield region.is_shift, self.compiled_region(
                region, tiling.block_edge
            )

    # ------------------------------------------------------------------

    def apply(self, store, chunk_hat: np.ndarray, fresh: bool = True) -> None:  # lint: allow=flag-hygiene (overwrite-vs-accumulate mode, not a feature toggle)
        """Push a transformed chunk into ``store`` (SHIFT + SPLIT)."""
        self.apply_contributions(store, self.contributions(chunk_hat), fresh)

    def apply_contributions(
        self, store, tensor_flat: np.ndarray, fresh: bool = True  # lint: allow=flag-hygiene (overwrite-vs-accumulate mode, not a feature toggle)
    ) -> None:
        """Apply a precomputed flat contribution tensor.

        On a tiled standard store this replays the compiled per-tile
        scatters; any other store goes through its generic region
        interface with the same blocks in the same order, so I/O
        accounting is unchanged either way.
        """
        tiled = self._tiled_target(store)
        if tiled is not None:
            tile_store, tiling = tiled
            for is_shift, compiled in self.iter_compiled(tiling):
                compiled.scatter(
                    tile_store,
                    tensor_flat,
                    accumulate=(not fresh) or not is_shift,
                )
            return
        tensor = tensor_flat.reshape(self.tensor_shape)
        for region in self.regions:
            block = tensor[region.selectors]
            if fresh and region.is_shift:
                store.set_region(region.targets, block)
            else:
                store.add_region(region.targets, block)

    def gather_transform(self, store) -> np.ndarray:
        """Read the chunk's full SHIFT-SPLIT footprint from ``store``."""
        tiled = self._tiled_target(store)
        if tiled is None:
            return store.read_region(self.full_region.targets)
        tile_store, tiling = tiled
        out = np.zeros(self.tensor_shape, dtype=np.float64)
        compiled = self.compiled_region(self.full_region, tiling.block_edge)
        compiled.gather(tile_store, out.reshape(-1))
        return out

    def extract_transform(self, store) -> np.ndarray:
        """The chunk's own standard transform, rebuilt from the global
        coefficients (inverse SHIFT-SPLIT, Section 5.4)."""
        gathered = self.gather_transform(store)
        for axis, basis in enumerate(self.inverse_bases):
            gathered = np.moveaxis(
                np.tensordot(basis, gathered, axes=([1], [axis])), 0, axis
            )
        return gathered


def get_standard_plan(
    domain_shape: Sequence[int],
    chunk_shape: Sequence[int],
    grid_position: Sequence[int],
) -> StandardChunkPlan:
    """The memoised :class:`StandardChunkPlan` of one chunk geometry."""
    domain = tuple(int(extent) for extent in domain_shape)
    chunk = tuple(int(extent) for extent in chunk_shape)
    position = tuple(int(g) for g in grid_position)
    if len(domain) != len(chunk) or len(domain) != len(position):
        raise ValueError("domain, chunk and grid position ranks must match")
    key = (domain, chunk, position)
    return _STANDARD_PLANS.get_or_build(
        key, lambda: StandardChunkPlan(domain, chunk, position)
    )


# ----------------------------------------------------------------------
# non-standard form
# ----------------------------------------------------------------------


class NonStandardChunkPlan:
    """Cached geometry of one non-standard chunk.

    The SHIFT copy regions and the SPLIT path (keys, per-key weights
    relative to the chunk average, level gaps for the crest buffer) are
    pure geometry; only the chunk average varies per application.
    """

    __slots__ = (
        "size",
        "chunk_edge",
        "grid_position",
        "ndim",
        "shift_regions",
        "split_keys",
        "split_weights",
        "split_level_gaps",
        "scaling_weight",
    )

    def __init__(
        self, size: int, chunk_edge: int, grid_position: Tuple[int, ...]
    ) -> None:
        # Imported lazily: nonstandard_ops imports this module at top
        # level for its plan dispatch.
        from repro.core.nonstandard_ops import (
            shift_regions_nonstandard,
            split_weights_nonstandard,
        )

        self.size = size
        self.chunk_edge = chunk_edge
        self.grid_position = grid_position
        self.ndim = len(grid_position)
        self.shift_regions = tuple(
            shift_regions_nonstandard(size, chunk_edge, grid_position)
        )
        levels, nodes, masks, weights, scaling = split_weights_nonstandard(
            size, chunk_edge, grid_position
        )
        self.split_keys = tuple(
            NonStandardKey(int(level), tuple(int(k) for k in node), int(mask))
            for level, node, mask in zip(levels, nodes, masks)
        )
        self.split_weights = weights
        chunk_level = ilog2(chunk_edge)
        self.split_level_gaps = tuple(
            int(level) - chunk_level for level in levels
        )
        self.scaling_weight = scaling

    def split_pairs(
        self, average: float
    ) -> Iterator[Tuple[NonStandardKey, float]]:
        """``(key, delta)`` per SPLIT contribution of ``average``."""
        deltas = average * self.split_weights
        return zip(self.split_keys, deltas.tolist())

    def apply(self, store, chunk_hat: np.ndarray, fresh: bool = True) -> None:  # lint: allow=flag-hygiene (overwrite-vs-accumulate mode, not a feature toggle)
        """Push a transformed cubic chunk into ``store``."""
        for level, mask, start, chunk_slices in self.shift_regions:
            values = chunk_hat[chunk_slices]
            if fresh:
                store.set_details(level, mask, start, values)
            else:
                existing = store.read_details(
                    level, mask, start, values.shape
                )
                store.set_details(level, mask, start, existing + values)
        average = float(chunk_hat[(0,) * self.ndim])
        for key, delta in self.split_pairs(average):
            store.add_detail(key, delta)
        store.add_scaling(average * self.scaling_weight)


def get_nonstandard_plan(
    size: int, chunk_edge: int, grid_position: Sequence[int]
) -> NonStandardChunkPlan:
    """The memoised :class:`NonStandardChunkPlan` of one chunk geometry."""
    position = tuple(int(g) for g in grid_position)
    key = (int(size), int(chunk_edge), position)
    return _NONSTANDARD_PLANS.get_or_build(
        key, lambda: NonStandardChunkPlan(int(size), int(chunk_edge), position)
    )


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------


def plan_cache_stats() -> Dict[str, Dict[str, float]]:
    """Observability view of the plan layer: per-cache LRU hit/miss/
    eviction counters plus compile cost (``builds`` and cumulative
    ``build_seconds``)."""
    return {
        "standard_plans": _STANDARD_PLANS.info(),
        "nonstandard_plans": _NONSTANDARD_PLANS.info(),
        "axis_maps": cached_axis_map.cache_info()._asdict(),
        "axis_groups": _cached_axis_groups.cache_info()._asdict(),
        "axis_inverse_bases": _cached_axis_inverse_basis.cache_info()._asdict(),
    }


def clear_plan_caches() -> None:
    """Drop every cached plan and per-axis artefact (benchmarks use this
    to measure cold-cache behaviour)."""
    from repro.core.nonstandard_ops import _split_weights_cached

    _STANDARD_PLANS.clear()
    _NONSTANDARD_PLANS.clear()
    cached_axis_map.cache_clear()
    _cached_axis_groups.cache_clear()
    _cached_axis_inverse_basis.cache_clear()
    _split_weights_cached.cache_clear()
