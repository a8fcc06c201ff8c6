"""Query descriptions the service plans and executes.

Three OLAP query shapes over a standard-form tiled store, mirroring
the reconstruction entry points in :mod:`repro.reconstruct`:

* :class:`PointQuery` — one cell (Lemma 1 root-path read);
* :class:`RangeSumQuery` — aggregate over an inclusive box (Lemma 2
  boundary read);
* :class:`RegionQuery` — reconstruct the data of a half-open box
  (Result 6 dyadic-cover extraction).

Queries are frozen dataclasses so batches can be hashed, deduplicated
and shipped between threads safely.  :func:`execute_query` is the one
dispatch point the engine's workers call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Tuple, Union

from repro.reconstruct.point import point_query_standard
from repro.reconstruct.rangesum import range_sum_standard, range_sum_weights
from repro.reconstruct.region import reconstruct_box_standard
from repro.storage.degrade import collecting_degraded

__all__ = [
    "PointQuery",
    "RangeSumQuery",
    "RegionQuery",
    "CustomQuery",
    "DegradedValue",
    "Query",
    "execute_query",
    "execute_query_degraded",
    "query_weight_bound",
]


@dataclass(frozen=True)
class PointQuery:
    """Reconstruct the single cell at ``position``."""

    position: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "position", tuple(int(x) for x in self.position)
        )


@dataclass(frozen=True)
class RangeSumQuery:
    """Sum of the inclusive box ``[lows, highs]`` (per axis)."""

    lows: Tuple[int, ...]
    highs: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lows", tuple(int(x) for x in self.lows))
        object.__setattr__(self, "highs", tuple(int(x) for x in self.highs))
        if len(self.lows) != len(self.highs):
            raise ValueError("lows/highs rank mismatch")
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            raise ValueError(f"empty box [{self.lows}, {self.highs}]")


@dataclass(frozen=True)
class RegionQuery:
    """Reconstruct the data of the half-open box ``[starts, stops)``."""

    starts: Tuple[int, ...]
    stops: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", tuple(int(x) for x in self.starts))
        object.__setattr__(self, "stops", tuple(int(x) for x in self.stops))
        if len(self.starts) != len(self.stops):
            raise ValueError("starts/stops rank mismatch")
        if any(a >= b for a, b in zip(self.starts, self.stops)):
            raise ValueError(f"empty region [{self.starts}, {self.stops})")


@dataclass(frozen=True)
class CustomQuery:
    """Escape hatch: run an arbitrary callable against the store.

    The planner contributes no tile set for it (no prefetching); the
    engine executes ``fn(store)`` on a worker thread.  Used by tests to
    model slow queries and by callers with bespoke read patterns.
    """

    fn: Callable[[Any], Any] = field(compare=False)


Query = Union[PointQuery, RangeSumQuery, RegionQuery, CustomQuery]


def execute_query(store, query: Query) -> Any:
    """Run ``query`` against a standard-form store and return its value."""
    if isinstance(query, PointQuery):
        return point_query_standard(store, query.position)
    if isinstance(query, RangeSumQuery):
        return range_sum_standard(store, query.lows, query.highs)
    if isinstance(query, RegionQuery):
        return reconstruct_box_standard(store, query.starts, query.stops)
    if isinstance(query, CustomQuery):
        return query.fn(store)
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def query_weight_bound(store, query: Query) -> float:
    """Bound on the magnitude of the weight any single coefficient
    carries in ``query``'s answer.

    A query's value is a weighted sum of stored coefficients, so a
    block the store could not read contributes at most
    ``query_weight_bound * ||block||_1`` of absolute error — the bound
    degraded execution reports.

    * Point and region reconstructions combine coefficients with signs
      (products of ±1 per axis under the unnormalised Haar basis):
      bound 1.
    * A range sum's per-coefficient weight is the product of per-axis
      overlap counts (Lemma 2); the bound is the product of each axis'
      maximum absolute weight.
    * A custom query's read pattern is opaque: ``inf`` (a degraded
      custom result carries no usable bound).
    """
    if isinstance(query, (PointQuery, RegionQuery)):
        return 1.0
    if isinstance(query, RangeSumQuery):
        bound = 1.0
        for extent, low, high in zip(store.shape, query.lows, query.highs):
            __, weights = range_sum_weights(extent, low, high)
            bound *= float(max(abs(weights)))
        return bound
    return math.inf


@dataclass(frozen=True)
class DegradedValue:
    """A degraded query answer: the value computed with unreadable
    blocks zero-filled, plus the worst-case absolute error that
    substitution can have introduced and the blocks involved."""

    value: Any
    error_bound: float
    missing_blocks: Tuple[int, ...]


def execute_query_degraded(store, query: Query, cache_only: bool = False):
    """Run ``query`` tolerating unreadable blocks.

    Returns the plain value when every read succeeded, or a
    :class:`DegradedValue` when blocks had to be zero-filled.  Raises
    only for failures outside the store's read path.  With
    ``cache_only=True`` the buffer pool refuses every miss, so only
    resident blocks are read and no device read is issued.
    """
    with collecting_degraded(cache_only=cache_only) as collector:
        value = execute_query(store, query)
    if not collector.degraded:
        return value
    return DegradedValue(
        value=value,
        error_bound=collector.error_bound(query_weight_bound(store, query)),
        missing_blocks=tuple(b.block_id for b in collector.missing),
    )
