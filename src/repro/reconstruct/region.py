"""Partial reconstruction of arbitrary regions (paper, Section 5.4).

Dyadic regions go straight through the inverse SHIFT-SPLIT
(:func:`repro.core.standard_ops.extract_region_standard`,
:func:`repro.core.nonstandard_ops.extract_region_nonstandard`);
arbitrary axis-aligned boxes are first decomposed into their canonical
dyadic cover (cubic pieces for the non-standard form) and each piece is
extracted independently.

Two naive baselines frame Result 6's comparison:

* full reconstruction then slicing — reasonable when the region spans
  most of the data;
* point-by-point reconstruction — reasonable for tiny regions.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.nonstandard_ops import extract_region_nonstandard
from repro.core.standard_ops import extract_region_standard
from repro.reconstruct.point import (
    point_query_nonstandard,
    point_query_standard,
)
from repro.util.dyadic import DyadicBox, dyadic_box_cover

__all__ = [
    "cubic_dyadic_cover",
    "reconstruct_box_standard",
    "reconstruct_box_nonstandard",
    "reconstruct_box_pointwise",
    "reconstruct_full_standard",
    "reconstruct_full_nonstandard",
]


def cubic_dyadic_cover(
    starts: Sequence[int], stops: Sequence[int]
) -> Iterator[DyadicBox]:
    """Cover a box with disjoint *cubic* dyadic boxes.

    The non-standard inverse SHIFT-SPLIT works on cubic ranges (the
    paper treats arbitrary ranges as collections of cubic intervals);
    each piece of the canonical cover is subdivided to its smallest
    extent.
    """
    for box in dyadic_box_cover(starts, stops):
        edge = min(interval.length for interval in box.intervals)
        grids = [interval.length // edge for interval in box.intervals]
        for offsets in np.ndindex(*grids):
            corner = [
                interval.start + offset * edge
                for interval, offset in zip(box.intervals, offsets)
            ]
            yield DyadicBox.from_corner(corner, [edge] * len(corner))


def reconstruct_box_standard(
    store, starts: Sequence[int], stops: Sequence[int]
) -> np.ndarray:
    """Reconstruct ``data[starts:stops]`` from a standard-form store
    by extracting each piece of the canonical dyadic cover."""
    starts = [int(s) for s in starts]
    stops = [int(s) for s in stops]
    out = np.zeros(
        tuple(stop - start for start, stop in zip(starts, stops)),
        dtype=np.float64,
    )
    for box in dyadic_box_cover(starts, stops):
        piece = extract_region_standard(store, box.starts, box.shape)
        selector = tuple(
            slice(interval.start - start, interval.stop - start)
            for interval, start in zip(box.intervals, starts)
        )
        out[selector] = piece
    return out


def reconstruct_box_nonstandard(
    store, starts: Sequence[int], stops: Sequence[int]
) -> np.ndarray:
    """Reconstruct ``data[starts:stops]`` from a non-standard store via
    the cubic dyadic cover."""
    starts = [int(s) for s in starts]
    stops = [int(s) for s in stops]
    out = np.zeros(
        tuple(stop - start for start, stop in zip(starts, stops)),
        dtype=np.float64,
    )
    for box in cubic_dyadic_cover(starts, stops):
        piece = extract_region_nonstandard(
            store, box.starts, box.intervals[0].length
        )
        selector = tuple(
            slice(interval.start - start, interval.stop - start)
            for interval, start in zip(box.intervals, starts)
        )
        out[selector] = piece
    return out


def reconstruct_box_pointwise(
    store, starts: Sequence[int], stops: Sequence[int], form: str = "standard"
) -> np.ndarray:
    """Naive baseline: reconstruct the box one point query at a time."""
    if form == "standard":
        query = point_query_standard
    elif form == "nonstandard":
        query = point_query_nonstandard
    else:
        raise ValueError(f"unknown form {form!r}")
    starts = [int(s) for s in starts]
    stops = [int(s) for s in stops]
    shape = tuple(stop - start for start, stop in zip(starts, stops))
    out = np.empty(shape, dtype=np.float64)
    for offsets in np.ndindex(*shape):
        position = tuple(
            start + offset for start, offset in zip(starts, offsets)
        )
        out[offsets] = query(store, position)
    return out


def reconstruct_full_standard(store) -> np.ndarray:
    """Naive baseline: reconstruct the entire dataset (then the caller
    slices).  One dyadic region covering everything."""
    return extract_region_standard(
        store, [0] * len(store.shape), store.shape
    )


def reconstruct_full_nonstandard(store) -> np.ndarray:
    """Naive baseline: reconstruct the entire cube."""
    return extract_region_nonstandard(
        store, [0] * store.ndim, store.size
    )
