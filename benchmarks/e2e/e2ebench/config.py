"""Geometries and fixed operation counts.

Operation counts per rep are fixed, so count metrics repeat exactly from
rep to rep; ``--seconds`` only decides how many reps a run measures.

``bench`` is what ``BENCHMARK.json`` runs.  It is the issue's TEMPERATURE
cube at a quarter of the cells (16x16x16x128 instead of 32x32x16x128):
at the full size one hub build costs 7-11 s, and the driver's budget for
a whole run (several set-ups, the measured reps and the answer checks) is
about 35 s.  Pool sizes shrink by the same factor so the pool-to-arena
ratios of the issue hold.  ``full`` keeps the issue's numbers for a
hand-run; ``smoke`` is the test geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

DIMS = ("lat", "lon", "alt", "time")
BLOCK_EDGE = 4
BLOCK_SLOTS = BLOCK_EDGE ** len(DIMS)  # 256 slots = 2 KiB blocks
UPDATE_SHAPE = (4, 4, 4, 4)
API_KEY = "bench-key"
TENANT = "bench"
CUBE = "temperature"

#: Untraced reps a traced run measures first, the base of
#: ``bench.trace_overhead_ratio``.
UNTRACED_REPS = 2


@dataclass(frozen=True)
class Geometry:
    name: str
    shape: Tuple[int, int, int, int]
    yqm: Tuple[int, int, int]  # fanouts of the time hierarchy
    chunk: Tuple[int, int, int, int]
    min_reps: int
    setups: int  # full set-ups per run; setup_s is their median
    # bulk_load: library-level load, read-back and updates per rep
    bulk_pool: int
    bulk_ops: Dict[str, int]
    # dashboard_hot: 2 clients x hot_ops requests, then hot_writes updates
    hot_pool: int
    hot_ops: int
    hot_writes: int
    # cold_scan: 1 client x scan_ops requests, then scan_writes updates
    scan_build_pool: int
    scan_pool: int
    scan_ops: int
    scan_writes: int
    # ingest_mixed: writer posts ingest_writes updates beside one reader
    ingest_pool: int
    ingest_writes: int
    ingest_reads: int  # length of the reader's cycle of requests
    ingest_think_s: float  # the writer's pause after each acknowledged batch

    @property
    def cells(self) -> int:
        cells = 1
        for extent in self.shape:
            cells *= extent
        return cells


_BENCH = Geometry(
    name="bench",
    shape=(16, 16, 16, 128),
    yqm=(8, 4, 4),
    chunk=(8, 8, 8, 8),
    min_reps=3,
    setups=5,
    bulk_pool=64,
    bulk_ops={"rollup": 100, "drill": 30, "point": 100, "write": 20},
    hot_pool=8192,
    hot_ops=120,
    hot_writes=24,
    scan_build_pool=64,
    scan_pool=16,
    scan_ops=150,
    scan_writes=3,
    ingest_pool=64,
    ingest_writes=12,
    ingest_reads=400,
    ingest_think_s=0.05,
)

GEOMETRIES = {
    "bench": _BENCH,
    # the issue's cube: four times the cells, hence four times the pools;
    # one set-up, since a hub build costs 7-11 s here
    "full": replace(
        _BENCH,
        name="full",
        shape=(32, 32, 16, 128),
        setups=1,
        bulk_pool=256,
        hot_pool=32768,
        scan_build_pool=256,
        scan_pool=64,
        ingest_pool=256,
    ),
    "smoke": Geometry(
        name="smoke",
        shape=(8, 8, 4, 16),
        yqm=(2, 2, 4),
        chunk=(4, 4, 4, 4),
        min_reps=2,
        setups=2,
        bulk_pool=8,
        bulk_ops={"rollup": 10, "drill": 4, "point": 10, "write": 2},
        hot_pool=512,
        hot_ops=20,
        hot_writes=2,
        scan_build_pool=16,
        scan_pool=8,
        scan_ops=20,
        scan_writes=2,
        ingest_pool=16,
        ingest_writes=3,
        ingest_reads=20,
        ingest_think_s=0.02,
    ),
}
