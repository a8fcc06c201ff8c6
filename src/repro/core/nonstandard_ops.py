"""Multidimensional SHIFT-SPLIT for the non-standard form
(paper, Section 4.1) and its inverse (Section 5.4).

For a cubic dyadic chunk of edge ``M = 2^m`` inside an ``N^d`` cube,
the chunk's non-standard details (levels ``1..m``) SHIFT verbatim into
the global quadtree — ``M^d - 1`` coefficients — while only the single
chunk average SPLITs, contributing to the ``2^d - 1`` details of each
quadtree node on the path to the root plus the overall average:
``(2^d - 1)(n - m) + 1`` contributions of magnitude
``± u / 2^{(j-m) d}``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.plans import get_nonstandard_plan
from repro.util.bits import ilog2
from repro.util.validation import require_power_of_two
from repro.wavelet.keys import NonStandardKey
from repro.wavelet.nonstandard import nonstandard_dwt, nonstandard_idwt

__all__ = [
    "shift_regions_nonstandard",
    "split_contributions_nonstandard",
    "split_weights_nonstandard",
    "apply_chunk_nonstandard",
    "apply_chunk_nonstandard_uncached",
    "extract_region_nonstandard",
    "shift_split_counts_nonstandard",
]


def _check_geometry(
    size: int, chunk_edge: int, grid_position: Sequence[int]
) -> Tuple[int, int]:
    n = ilog2(require_power_of_two(size, "size"))
    m = ilog2(require_power_of_two(chunk_edge, "chunk_edge"))
    if m > n:
        raise ValueError(f"chunk edge {chunk_edge} exceeds cube edge {size}")
    grid_side = size // chunk_edge
    if any(not 0 <= g < grid_side for g in grid_position):
        raise ValueError(
            f"grid position {tuple(grid_position)} out of "
            f"[0, {grid_side})^{len(grid_position)}"
        )
    return n, m


def shift_regions_nonstandard(
    size: int,
    chunk_edge: int,
    grid_position: Sequence[int],
) -> Iterator[Tuple[int, int, Tuple[int, ...], Tuple[slice, ...]]]:
    """Enumerate the SHIFT copy regions of a non-standard chunk.

    Yields ``(level, type_mask, global_node_start, chunk_slices)``:
    the chunk's Mallat sub-block at ``chunk_slices`` holds the level's
    details of ``type_mask`` and lands at the contiguous global node
    region starting at ``global_node_start``.
    """
    __, m = _check_geometry(size, chunk_edge, grid_position)
    ndim = len(grid_position)
    for level in range(1, m + 1):
        width = chunk_edge >> level  # chunk nodes per axis at this level
        for type_mask in range(1, 1 << ndim):
            chunk_slices = tuple(
                slice(width, 2 * width)
                if (type_mask >> axis) & 1
                else slice(0, width)
                for axis in range(ndim)
            )
            global_start = tuple(
                int(g) * width for g in grid_position
            )
            yield level, type_mask, global_start, chunk_slices


@lru_cache(maxsize=65536)
def _split_weights_cached(
    size: int, chunk_edge: int, grid_position: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    n, m = _check_geometry(size, chunk_edge, grid_position)
    ndim = len(grid_position)
    num_types = (1 << ndim) - 1
    shifts = np.arange(1, n - m + 1, dtype=np.int64)
    grid = np.asarray(grid_position, dtype=np.int64)
    # One row per path level: node positions, per-axis sign bits.
    path_nodes = grid[None, :] >> shifts[:, None]
    sign_bits = (grid[None, :] >> (shifts[:, None] - 1)) & 1
    masks = np.arange(1, 1 << ndim, dtype=np.int64)
    mask_bits = (masks[:, None] >> np.arange(ndim)[None, :]) & 1
    # Sign of (level, mask) = (-1)^(number of negative axes selected).
    parity = (sign_bits @ mask_bits.T) & 1
    signs = 1.0 - 2.0 * parity
    magnitudes = np.ldexp(1.0, -(shifts * ndim))
    weights = signs * magnitudes[:, None]
    levels = np.repeat(shifts + m, num_types)
    nodes = np.repeat(path_nodes, num_types, axis=0)
    type_masks = np.tile(masks, shifts.size)
    weights = np.ascontiguousarray(weights.reshape(-1))
    for array in (levels, nodes, type_masks, weights):
        array.setflags(write=False)
    scaling_weight = float(np.ldexp(1.0, -((n - m) * ndim)))
    return levels, nodes, type_masks, weights, scaling_weight


def split_weights_nonstandard(
    size: int,
    chunk_edge: int,
    grid_position: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Vectorised SPLIT structure of a non-standard chunk.

    Returns ``(levels, nodes, type_masks, weights, scaling_weight)``:
    parallel arrays with one entry per path-node detail contribution
    (level-ascending, type-mask-ascending — the order
    :func:`split_contributions_nonstandard` has always used), where the
    delta of entry ``i`` is ``average * weights[i]``; ``nodes`` has
    shape ``(K, d)``.  ``scaling_weight`` scales the overall-average
    increment.  All weights are signed powers of two, so multiplying by
    the average is exact.  Results are memoised — the arrays are
    read-only.
    """
    return _split_weights_cached(
        int(size), int(chunk_edge), tuple(int(g) for g in grid_position)
    )


def split_contributions_nonstandard(
    size: int,
    chunk_edge: int,
    grid_position: Sequence[int],
    average: float,
) -> Tuple[List[Tuple[NonStandardKey, float]], float]:
    """The SPLIT contributions of a non-standard chunk average.

    Returns ``(detail_contributions, scaling_delta)`` where
    ``detail_contributions`` pairs each path-node detail key with its
    signed delta and ``scaling_delta`` is the overall-average
    increment ``u / 2^{(n-m) d}``.

    Thin tuple-API wrapper over :func:`split_weights_nonstandard`.
    """
    levels, nodes, type_masks, weights, scaling_weight = (
        split_weights_nonstandard(size, chunk_edge, grid_position)
    )
    deltas = average * weights
    contributions = [
        (
            NonStandardKey(
                int(level), tuple(int(k) for k in node), int(mask)
            ),
            delta,
        )
        for level, node, mask, delta in zip(
            levels, nodes, type_masks, deltas.tolist()
        )
    ]
    return contributions, average * scaling_weight


def apply_chunk_nonstandard(
    store,
    chunk: np.ndarray,
    grid_position: Sequence[int],
    fresh: bool = True,
    chunk_is_transformed: bool = False,
) -> None:
    """Push one cubic chunk into the global non-standard transform.

    Mirrors :func:`repro.core.standard_ops.apply_chunk_standard` for
    the non-standard form.  ``store`` implements the non-standard
    store interface (dense or tiled).  The chunk geometry (SHIFT
    regions, SPLIT keys and weights) comes from a cached
    :class:`~repro.core.plans.NonStandardChunkPlan`.
    """
    chunk_hat = chunk if chunk_is_transformed else nonstandard_dwt(chunk)
    _check_geometry(store.size, chunk_hat.shape[0], grid_position)
    plan = get_nonstandard_plan(store.size, chunk_hat.shape[0], grid_position)
    plan.apply(store, chunk_hat, fresh=fresh)


def apply_chunk_nonstandard_uncached(
    store,
    chunk: np.ndarray,
    grid_position: Sequence[int],
    fresh: bool = True,
    chunk_is_transformed: bool = False,
) -> None:
    """The interpreted (plan-free) :func:`apply_chunk_nonstandard`."""
    chunk_hat = chunk if chunk_is_transformed else nonstandard_dwt(chunk)
    chunk_edge = chunk_hat.shape[0]
    size = store.size
    for level, mask, global_start, chunk_slices in shift_regions_nonstandard(
        size, chunk_edge, grid_position
    ):
        values = chunk_hat[chunk_slices]
        if fresh:
            store.set_details(level, mask, global_start, values)
        else:
            existing = store.read_details(
                level, mask, global_start, values.shape
            )
            store.set_details(level, mask, global_start, existing + values)
    average = float(chunk_hat[(0,) * chunk_hat.ndim])
    details, scaling_delta = split_contributions_nonstandard(
        size, chunk_edge, grid_position, average
    )
    for key, delta in details:
        store.add_detail(key, delta)
    store.add_scaling(scaling_delta)


def extract_region_nonstandard(
    store,
    corner: Sequence[int],
    region_edge: int,
) -> np.ndarray:
    """Reconstruct a cubic dyadic region from the global non-standard
    transform (Result 6, non-standard form).

    Inverse SHIFT gathers the region's own details (levels ``<= m``);
    inverse SPLIT rebuilds the region average by walking the quadtree
    path with the same signs the forward SPLIT used.  Cost:
    ``M^d + (2^d - 1) log(N/M) + 1`` coefficient touches.
    """
    size = store.size
    ndim = store.ndim
    require_power_of_two(region_edge, "region_edge")
    grid_position = []
    for axis, start in enumerate(corner):
        if int(start) % region_edge:
            raise ValueError(
                f"corner[{axis}]={start} is not aligned to edge {region_edge}"
            )
        grid_position.append(int(start) // region_edge)
    n, m = _check_geometry(size, region_edge, grid_position)

    region_hat = np.zeros((region_edge,) * ndim, dtype=np.float64)
    for level, mask, global_start, chunk_slices in shift_regions_nonstandard(
        size, region_edge, grid_position
    ):
        width = region_edge >> level
        region_hat[chunk_slices] = store.read_details(
            level, mask, global_start, (width,) * ndim
        )

    average = store.read_scaling()
    for level in range(m + 1, n + 1):
        shift = level - m
        node = tuple(g >> shift for g in grid_position)
        axis_signs = [
            -1.0 if (g >> (shift - 1)) & 1 else 1.0 for g in grid_position
        ]
        for type_mask in range(1, 1 << ndim):
            sign = 1.0
            for axis in range(ndim):
                if (type_mask >> axis) & 1:
                    sign *= axis_signs[axis]
            average += sign * store.read_detail(
                NonStandardKey(level, node, type_mask)
            )
    region_hat[(0,) * ndim] = average
    return nonstandard_idwt(region_hat)


def shift_split_counts_nonstandard(
    size: int, chunk_edge: int, ndim: int
) -> dict:
    """Analytic touch counts for one non-standard chunk
    (Section 4.1): SHIFT moves ``M^d - 1`` coefficients, SPLIT
    computes ``(2^d - 1)(n - m) + 1`` contributions."""
    n = ilog2(size)
    m = ilog2(chunk_edge)
    shift = chunk_edge ** ndim - 1
    split = ((1 << ndim) - 1) * (n - m) + 1
    return {"shift": shift, "split": split, "total": shift + split}
