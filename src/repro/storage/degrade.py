"""Graceful degradation: answer queries around unreadable blocks.

When a device read fails (an injected fault, or a checksum mismatch
from :mod:`repro.storage.journal`), a query does not have to fail with
it: every wavelet reconstruction is a weighted sum of coefficients, so
a missing block's contribution is bounded by ``W * ||block||_1`` where
``W`` bounds the query's per-coefficient weight magnitudes and the L1
norm comes from the block's durable summary
(:meth:`~repro.storage.journal.JournaledDevice.block_summary`).

The mechanism is a context-local collector: a query executor that opts
in wraps its evaluation in :func:`collecting_degraded`, and the tile
store — on a read failure *inside that scope only* — records a
:class:`MissingBlock` and substitutes zeros (without installing a pool
frame, so the zeros can never be mistaken for cached truth by later
non-degraded reads).  Outside the scope nothing changes: read failures
propagate exactly as before.

A ``cache_only`` scope treats "no time left" as "unreadable": the
buffer pool refuses every miss with :class:`BlockNotResidentError`
before it reaches the device, so a deadline-expired query is answered
from resident blocks alone, with the same ``W * ||block||_1`` bound
per refused block and zero block reads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional

__all__ = [
    "BlockNotResidentError",
    "DegradedCollector",
    "MissingBlock",
    "active_collector",
    "collecting_degraded",
]


class BlockNotResidentError(IOError):
    """Read refused: the deadline budget allows no device I/O."""

    def __init__(self, block_id: int) -> None:
        super().__init__(
            f"block {block_id} is not resident and the deadline "
            f"budget allows no device read"
        )
        self.block_id = block_id


@dataclass(frozen=True)
class MissingBlock:
    """One block a degraded read had to zero-fill.

    ``abs_sum`` is the L1 norm of the block's last durably-written
    content (``math.inf`` when the device keeps no summaries — the
    error is then unbounded and the result must not be trusted as an
    approximation).
    """

    key: Hashable
    block_id: int
    abs_sum: float
    error: str


@dataclass
class DegradedCollector:
    """Accumulates the blocks zero-filled during one query evaluation.

    With ``cache_only`` set, buffer-pool misses are refused instead of
    read, so every non-resident block is zero-filled and recorded."""

    missing: List[MissingBlock] = field(default_factory=list)
    cache_only: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.missing)

    def record(
        self, key: Hashable, block_id: int, abs_sum: float, error: str
    ) -> None:
        self.missing.append(MissingBlock(key, block_id, abs_sum, error))

    def error_bound(self, weight_bound: float) -> float:
        """Worst-case absolute error of a result whose per-coefficient
        weights are bounded by ``weight_bound`` in magnitude:
        ``weight_bound * sum(abs_sum of missing blocks)``."""
        if not self.missing:
            return 0.0
        total = 0.0
        for block in self.missing:
            if not math.isfinite(block.abs_sum):
                return math.inf
            total += block.abs_sum
        return weight_bound * total


_collector: "ContextVar[Optional[DegradedCollector]]" = ContextVar(
    "repro_degraded_collector", default=None
)


def active_collector() -> Optional[DegradedCollector]:
    """The collector of the current scope (``None`` when degraded reads
    are not enabled here — the fast-path check the tile store makes)."""
    return _collector.get()


@contextmanager
def collecting_degraded(
    cache_only: bool = False,
) -> Iterator[DegradedCollector]:
    """Scope within which tile-read failures degrade to zero-fills.

    Yields the :class:`DegradedCollector` that will hold whatever went
    missing; inspect ``collector.degraded`` / ``error_bound`` after.
    ``cache_only=True`` also refuses every device read on a pool miss
    (the deadline-expired path)."""
    collector = DegradedCollector(cache_only=cache_only)
    token = _collector.set(collector)
    try:
        yield collector
    finally:
        _collector.reset(token)
