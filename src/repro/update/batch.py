"""Batch updates to wavelet-transformed data (paper, Example 2).

Updating differs from appending: the touched cells already lie inside
the transformed domain, so no expansion happens — but a naive approach
still updates every coefficient on each touched cell's root path,
``O(M̃ (log N + 1))`` coefficient I/Os for an ``M̃``-cell batch
(``(log N + 1)^d`` per cell in ``d`` dimensions).

SHIFT-SPLIT batches the updates instead: transform the update block in
memory, SHIFT its details onto the stored coefficients (adding), and
SPLIT its average along the path — ``O(M̃ + log(N/M̃))`` per dimension,
the paper's Example 2 bound.

Both strategies are implemented here so the improvement is measurable;
they produce bit-identical transforms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.nonstandard_ops import apply_chunk_nonstandard
from repro.core.standard_ops import apply_chunk_standard
from repro.util.validation import as_float_array, require_power_of_two_shape
from repro.wavelet.tree import WaveletTree

__all__ = [
    "batch_update_standard",
    "batch_update_nonstandard",
    "naive_update_standard",
]


def _update_grid_position(
    corner: Sequence[int], shape: Sequence[int]
) -> tuple:
    grid_position = []
    for axis, (start, extent) in enumerate(zip(corner, shape)):
        if int(start) % extent:
            raise ValueError(
                f"corner[{axis}]={start} is not aligned to extent {extent}"
            )
        grid_position.append(int(start) // extent)
    return tuple(grid_position)


def batch_update_standard(
    store,
    deltas,
    corner: Sequence[int],
) -> None:
    """Apply a block of additive updates via SHIFT-SPLIT (Example 2).

    ``deltas`` is the dyadic update block (its shape must be a
    power-of-two box and ``corner`` aligned to it); every stored
    coefficient the block influences is updated in one batched pass.
    """
    deltas = as_float_array(deltas, "deltas")
    shape = require_power_of_two_shape(deltas.shape, "deltas shape")
    grid_position = _update_grid_position(corner, shape)
    apply_chunk_standard(store, deltas, grid_position, fresh=False)


def batch_update_nonstandard(
    store,
    deltas,
    corner: Sequence[int],
) -> None:
    """Non-standard-form batch update via SHIFT-SPLIT."""
    deltas = as_float_array(deltas, "deltas")
    shape = require_power_of_two_shape(deltas.shape, "deltas shape")
    edges = set(shape)
    if len(edges) != 1:
        raise ValueError(
            f"non-standard updates need a cubic block, got {shape}"
        )
    edge = shape[0]
    grid_position = []
    for axis, start in enumerate(corner):
        if int(start) % edge:
            raise ValueError(
                f"corner[{axis}]={start} is not aligned to edge {edge}"
            )
        grid_position.append(int(start) // edge)
    apply_chunk_nonstandard(store, deltas, tuple(grid_position), fresh=False)


def naive_update_standard(
    store,
    deltas,
    corner: Sequence[int],
) -> None:
    """The baseline Example 2 improves on: update each cell separately.

    Every updated cell walks the cross product of per-axis root paths
    and adjusts each covered coefficient — ``(log N + 1)^d``
    read-modify-writes per cell.  A cell's delta enters a coefficient
    with weight ``prod_axis sign_axis / 2^{level_axis}`` (a delta at
    one cell changes the average of a ``2^j``-cell support by
    ``delta / 2^j``).
    """
    deltas = as_float_array(deltas, "deltas")
    shape = store.shape
    trees = [WaveletTree(extent) for extent in shape]
    for offsets in np.ndindex(*deltas.shape):
        delta = float(deltas[offsets])
        if delta == 0.0:
            continue
        position = tuple(
            int(start) + offset for start, offset in zip(corner, offsets)
        )
        axis_indices = []
        axis_weights = []
        for axis, tree in enumerate(trees):
            path = tree.root_path(position[axis])
            signs = tree.reconstruction_signs(position[axis])
            n = shape[axis].bit_length() - 1
            weights = []
            for index, sign in zip(path, signs):
                if index == 0:
                    weights.append(1.0 / (1 << n))
                else:
                    level = n - (index.bit_length() - 1)
                    weights.append(sign / (1 << level))
            axis_indices.append(np.asarray(path, dtype=np.int64))
            axis_weights.append(np.asarray(weights, dtype=np.float64))
        update = delta
        block = np.full(
            tuple(len(path) for path in axis_indices), update
        )
        for axis, weights in enumerate(axis_weights):
            reshaped = [1] * len(axis_indices)
            reshaped[axis] = weights.size
            block = block * weights.reshape(reshaped)
        store.add_region(axis_indices, block)
