"""Multidimensional SHIFT-SPLIT for the standard form (paper, Section 4.1)
and its inverse (Section 5.4).

In the standard decomposition every coefficient factors per dimension,
so a ``d``-dimensional chunk sustains the per-axis mappings of
:mod:`repro.core.shiftsplit1d` independently along each axis: a chunk
coefficient whose per-axis components are all details is purely
SHIFTed (``(M-1)^d`` coefficients), while every component that is the
per-axis average fans out over that axis' SPLIT path —
``(M + n - m)^d - (M - 1)^d`` contributions in total.

The application functions below work against any object implementing
the standard-store region interface (``set_region`` / ``add_region`` /
``read_region`` — both the dense and the tiled stores do).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.plans import get_standard_plan
from repro.core.shiftsplit1d import AxisShiftSplit, axis_shift_split
from repro.util.validation import require_power_of_two_shape
from repro.wavelet.standard import standard_dwt, standard_idwt

__all__ = [
    "chunk_axis_maps",
    "contribution_tensor",
    "apply_chunk_standard",
    "apply_chunk_standard_uncached",
    "extract_region_standard",
    "extract_region_transform_standard",
    "extract_region_transform_standard_uncached",
    "shift_split_region_counts",
]


def chunk_axis_maps(
    domain_shape: Sequence[int],
    chunk_shape: Sequence[int],
    grid_position: Sequence[int],
) -> List[AxisShiftSplit]:
    """Per-axis SHIFT-SPLIT mappings of the chunk at ``grid_position``.

    ``grid_position`` is measured in chunks (the chunk covers cells
    ``[g_i * M_i, (g_i + 1) * M_i)`` along axis ``i``).
    """
    domain_shape = require_power_of_two_shape(domain_shape, "domain_shape")
    chunk_shape = require_power_of_two_shape(chunk_shape, "chunk_shape")
    if len(domain_shape) != len(chunk_shape) or len(domain_shape) != len(
        grid_position
    ):
        raise ValueError("domain, chunk and grid position ranks must match")
    return [
        axis_shift_split(extent, chunk_extent, int(translation))
        for extent, chunk_extent, translation in zip(
            domain_shape, chunk_shape, grid_position
        )
    ]


def contribution_tensor(
    chunk_hat: np.ndarray, maps: Sequence[AxisShiftSplit]
) -> np.ndarray:
    """The full contribution tensor of a transformed chunk.

    Entry ``(p_1..p_d)`` is the value this chunk adds to the global
    coefficient at ``(maps[0].target[p_1], ...)``: the chunk-transform
    entry selected by the per-axis sources times the product of
    per-axis weights.
    """
    gathered = chunk_hat[np.ix_(*[mp.source for mp in maps])]
    for axis, mp in enumerate(maps):
        shape = [1] * len(maps)
        shape[axis] = mp.weight.size
        gathered = gathered * mp.weight.reshape(shape)
    return gathered


def apply_chunk_standard(
    store,
    chunk: np.ndarray,
    grid_position: Sequence[int],
    fresh: bool = True,
    chunk_is_transformed: bool = False,
) -> None:
    """Push one chunk into the global standard-form transform.

    Transforms the chunk in memory, SHIFTs its details into place and
    SPLITs its average into path contributions (Example 1 / Example 2
    of the paper), through the cached
    :class:`~repro.core.plans.StandardChunkPlan` of the chunk's
    geometry.

    Parameters
    ----------
    store:
        Standard-store region interface; its ``shape`` is the domain.
    chunk:
        The chunk's data (or its standard transform when
        ``chunk_is_transformed``).
    grid_position:
        Chunk coordinates within the chunk grid.
    fresh:
        When True (bulk transformation of data that was zero), the
        purely SHIFTed block is written without reading — those
        positions belong to this chunk alone.  When False (batch
        *update* of existing data, Example 2), every target
        accumulates.
    """
    chunk_hat = chunk if chunk_is_transformed else standard_dwt(chunk)
    require_power_of_two_shape(store.shape, "store shape")
    require_power_of_two_shape(chunk_hat.shape, "chunk shape")
    plan = get_standard_plan(store.shape, chunk_hat.shape, grid_position)
    plan.apply(store, chunk_hat, fresh=fresh)


def apply_chunk_standard_uncached(
    store,
    chunk: np.ndarray,
    grid_position: Sequence[int],
    fresh: bool = True,
    chunk_is_transformed: bool = False,
) -> None:
    """The interpreted (plan-free) :func:`apply_chunk_standard`.

    Re-derives every per-axis mapping and region grouping on each call;
    kept as the reference implementation the plan path is verified
    against.
    """
    chunk_hat = chunk if chunk_is_transformed else standard_dwt(chunk)
    maps = chunk_axis_maps(store.shape, chunk_hat.shape, grid_position)
    tensor = contribution_tensor(chunk_hat, maps)
    ndim = len(maps)

    shift_selectors = [mp.shift_slice() for mp in maps]
    if all(mp.num_shift > 0 for mp in maps):
        targets = [mp.target[sel] for mp, sel in zip(maps, shift_selectors)]
        block = tensor[tuple(shift_selectors)]
        if fresh:
            store.set_region(targets, block)
        else:
            store.add_region(targets, block)

    # The remaining contributions — every entry with at least one SPLIT
    # component — decompose into d disjoint cross products by "first
    # axis that is split".
    for split_axis in range(ndim):
        selectors: List[slice] = []
        for axis, mp in enumerate(maps):
            if axis < split_axis:
                selectors.append(mp.shift_slice())
            elif axis == split_axis:
                selectors.append(mp.split_slice())
            else:
                selectors.append(slice(0, mp.num_entries))
        block = tensor[tuple(selectors)]
        if block.size == 0:
            continue
        targets = [mp.target[sel] for mp, sel in zip(maps, selectors)]
        store.add_region(targets, block)


def _region_grid_position(
    corner: Sequence[int], region_shape: Sequence[int]
) -> List[int]:
    grid_position = []
    for axis, (start, extent) in enumerate(zip(corner, region_shape)):
        if int(start) % extent:
            raise ValueError(
                f"corner[{axis}]={start} is not aligned to extent {extent}"
            )
        grid_position.append(int(start) // extent)
    return grid_position


def extract_region_transform_standard(
    store,
    corner: Sequence[int],
    region_shape: Sequence[int],
) -> np.ndarray:
    """The *transform* of a dyadic region, extracted without inverting.

    Inverse SHIFT gathers the region's own details; inverse SPLIT
    rebuilds the region's per-axis averages from the path-to-root
    coefficients (Lemma 1 per axis).  Returns
    ``standard_dwt(data[region])`` computed from ``(M + log(N/M))^d``
    stored coefficients — the wavelet-domain selection that stays in
    the wavelet domain.

    The gather replays the compiled per-tile index plan of the region's
    geometry (same I/O as the interpreted path, no per-call grouping).
    """
    region_shape = require_power_of_two_shape(region_shape, "region_shape")
    grid_position = _region_grid_position(corner, region_shape)
    require_power_of_two_shape(store.shape, "store shape")
    plan = get_standard_plan(store.shape, region_shape, grid_position)
    return plan.extract_transform(store)


def extract_region_transform_standard_uncached(
    store,
    corner: Sequence[int],
    region_shape: Sequence[int],
) -> np.ndarray:
    """The interpreted (plan-free) region-transform extraction."""
    region_shape = require_power_of_two_shape(region_shape, "region_shape")
    grid_position = _region_grid_position(corner, region_shape)
    maps = chunk_axis_maps(store.shape, region_shape, grid_position)
    gathered = store.read_region([mp.target for mp in maps])
    for axis, mp in enumerate(maps):
        basis = np.zeros((mp.chunk, mp.num_entries), dtype=np.float64)
        shift = mp.shift_slice()
        basis[mp.source[shift], np.arange(mp.num_shift)] = 1.0
        split = mp.split_slice()
        basis[0, split] = mp.inverse_weight[split]
        gathered = np.moveaxis(
            np.tensordot(basis, gathered, axes=([1], [axis])), 0, axis
        )
    return gathered


def extract_region_standard(
    store,
    corner: Sequence[int],
    region_shape: Sequence[int],
) -> np.ndarray:
    """Reconstruct a dyadic region from the global transform
    (Result 6, standard form).

    :func:`extract_region_transform_standard` followed by the inverse
    DWT — the region's *data*.
    """
    return standard_idwt(
        extract_region_transform_standard(store, corner, region_shape)
    )


def shift_split_region_counts(
    domain_shape: Sequence[int],
    chunk_shape: Sequence[int],
) -> dict:
    """Analytic touch counts for one chunk (paper, Section 4.1).

    Returns shift/split/total coefficient counts — the quantities in
    Table 1's numerators and the per-chunk terms of Result 1.
    """
    maps = chunk_axis_maps(
        domain_shape, chunk_shape, [0] * len(domain_shape)
    )
    shift = 1
    total = 1
    for mp in maps:
        shift *= mp.num_shift
        total *= mp.num_entries
    return {"shift": shift, "split": total - shift, "total": total}
