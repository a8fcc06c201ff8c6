"""Kernel-speed benchmark: the serial bulk load vs its parallel and
file-backed variants.

Times the standard-form bulk load over 1-d / 2-d / 3-d tiled-store
geometries, with the pool sized to the whole tile footprint so the
serial reference never evicts:

``serial_cached``
    ``transform_standard_chunked`` with a warm plan cache + flush — the
    baseline (0 block reads, one write per tile);
``procpool``
    ``transform_standard_procpool`` scatter workers, auto-sized to one
    per CPU (``--procpool-workers`` overrides; on a 1-CPU box that is
    the inline no-fork path — forking past the core count only adds
    overhead) — asserted **bit-identical** to the serial reference
    with **identical** block reads AND writes, and timed interleaved
    with it trial by trial so machine drift cannot fake a win either
    way;
``mmap``
    the same serial cached load onto a file-backed
    ``MmapBlockDevice`` — asserted bit-identical with identical I/O
    counts (the file backend must cost no extra charged I/O).

Every run is checked bit-identical to the baseline; a speedup is pure
CPU, never bought with extra I/O.

Writes ``BENCH_kernels.json`` (see ``--out``).  ``--smoke`` shrinks the
geometries for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_speed.py
    PYTHONPATH=src python benchmarks/bench_kernel_speed.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from typing import Optional

import numpy as np

from repro.core.plans import plan_cache_info
from repro.storage.mmap_device import MmapBlockDevice
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked
from repro.transform.procpool import transform_standard_procpool

FULL_GEOMETRIES = [
    {"name": "1d-4096", "shape": (4096,), "chunk": (256,), "block_edge": 64},
    # The acceptance geometry: 1024^2 cells, 64^2 chunks, 16^2 tiles.
    {"name": "2d-1024", "shape": (1024, 1024), "chunk": (64, 64),
     "block_edge": 16},
    {"name": "3d-64", "shape": (64, 64, 64), "chunk": (16, 16, 16),
     "block_edge": 8},
]

SMOKE_GEOMETRIES = [
    {"name": "1d-512", "shape": (512,), "chunk": (64,), "block_edge": 16},
    {"name": "2d-128", "shape": (128, 128), "chunk": (16, 16),
     "block_edge": 8},
    {"name": "3d-32", "shape": (32, 32, 32), "chunk": (8, 8, 8),
     "block_edge": 4},
]


def _block_counts(stats) -> dict:
    return {
        "block_reads": stats.block_reads,
        "block_writes": stats.block_writes,
    }


def bench_procpool_geometry(geom, workers: int, trials: int) -> dict:
    """Interleaved serial-cached vs procpool vs mmap timings.

    The pool is sized past the tile footprint so the serial cached
    reference does 0 block reads and exactly one write per tile — the
    trace the process pool must (and does) replay exactly.  Serial and
    procpool runs alternate within each trial so clock drift hits both
    equally; ``min`` over trials is reported.
    """
    rng = np.random.default_rng(7)
    data = rng.standard_normal(geom["shape"])
    cells = float(np.prod(geom["shape"]))
    pool_capacity = 1 << 20  # >= any geometry's tile footprint

    def fresh_store(device=None):
        return TiledStandardStore(
            geom["shape"],
            block_edge=geom["block_edge"],
            pool_capacity=pool_capacity,
            device=device,
        )

    def serial_run():
        store = fresh_store()
        start = time.perf_counter()
        transform_standard_chunked(store, data, geom["chunk"])
        store.flush()
        return time.perf_counter() - start, store

    def procpool_run():
        store = fresh_store()
        start = time.perf_counter()
        transform_standard_procpool(
            store, data, geom["chunk"], workers=workers
        )
        return time.perf_counter() - start, store

    # Warm everything first: plan cache, scatter schedule, shared
    # buffer pool — the steady state of repeated batch loads.
    __, reference = serial_run()
    procpool_run()

    t_serial = float("inf")
    t_procpool = float("inf")
    serial_store = procpool_store = None
    for __trial in range(trials):
        elapsed, store = serial_run()
        if elapsed < t_serial:
            t_serial, serial_store = elapsed, store
        elapsed, store = procpool_run()
        if elapsed < t_procpool:
            t_procpool, procpool_store = elapsed, store

    name = geom["name"]
    serial_io = _block_counts(serial_store.stats.snapshot())
    procpool_io = _block_counts(procpool_store.stats.snapshot())
    assert serial_io["block_reads"] == 0, name  # pool covers footprint
    assert procpool_io == serial_io, (name, procpool_io, serial_io)
    assert (
        procpool_store.tile_store.directory()
        == serial_store.tile_store.directory()
    ), name
    assert np.array_equal(
        procpool_store.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity assert)
        serial_store.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity assert)
    ), name
    del reference

    # The same serial cached load onto the file-backed device: the
    # backend swap must cost no charged I/O and change no bit.
    handle, path = tempfile.mkstemp(suffix=".blocks")
    os.close(handle)
    os.unlink(path)  # MmapBlockDevice creates it fresh
    try:
        t_mmap = float("inf")
        device = None
        for __trial in range(trials):
            if device is not None:
                device.close()
                os.unlink(path)
            device = MmapBlockDevice(
                path, block_slots=geom["block_edge"] ** len(geom["shape"])
            )
            store = fresh_store(device=device)
            start = time.perf_counter()
            transform_standard_chunked(store, data, geom["chunk"])
            store.flush()
            t_mmap = min(t_mmap, time.perf_counter() - start)
            mmap_store = store
        mmap_io = _block_counts(mmap_store.stats.snapshot())
        assert mmap_io == serial_io, (name, mmap_io, serial_io)
        assert np.array_equal(
            mmap_store.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity assert)
            serial_store.tile_store.device.dump_blocks(),  # lint: uncounted (bit-identity assert)
        ), name
        device.close()
        device = None
    finally:
        if device is not None:
            device.close()
        if os.path.exists(path):
            os.unlink(path)

    return {
        "geometry": name,
        "workers": workers,
        "trials": trials,
        "pool_capacity": pool_capacity,
        "num_tiles": int(serial_store.tile_store.num_tiles),
        "seconds": {
            "serial_cached": t_serial,
            "procpool": t_procpool,
            "mmap": t_mmap,
        },
        "cells_per_second": {
            "serial_cached": cells / t_serial,
            "procpool": cells / t_procpool,
            "mmap": cells / t_mmap,
        },
        "speedup_procpool_vs_serial": t_serial / t_procpool,
        "block_io": {
            "serial_cached": serial_io,
            "procpool": procpool_io,
            "mmap": mmap_io,
        },
        "bit_identical": True,
        "io_identical": True,
    }


def main(argv: Optional[list] = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small geometries for CI")
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path")
    parser.add_argument("--procpool-workers", type=int, default=0,
                        help="forked scatter workers (procpool mode); "
                             "0 = auto (one per CPU — forking more "
                             "workers than cores only adds overhead)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode (best-of)")
    args = parser.parse_args(argv)

    geometries = SMOKE_GEOMETRIES if args.smoke else FULL_GEOMETRIES
    repeats = args.repeats or (1 if args.smoke else 3)
    procpool_workers = args.procpool_workers or (os.cpu_count() or 1)

    results = {"mode": "smoke" if args.smoke else "full", "procpool": []}
    procpool_trials = max(3 * repeats, 9) if not args.smoke else repeats
    for geom in geometries:
        row = bench_procpool_geometry(
            geom, procpool_workers, procpool_trials
        )
        results["procpool"].append(row)
        print(
            f"[procpool {row['geometry']}] serial_cached"
            f" {row['seconds']['serial_cached']:.3f}s"
            f" | procpool w{procpool_workers}"
            f" {row['seconds']['procpool']:.3f}s"
            f" ({row['speedup_procpool_vs_serial']:.2f}x)"
            f" | mmap {row['seconds']['mmap']:.3f}s"
            f" | io {row['block_io']['procpool']['block_reads']}r/"
            f"{row['block_io']['procpool']['block_writes']}w identical"
        )

    results["plan_caches"] = plan_cache_info()
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.out}")
    return results


if __name__ == "__main__":
    main()
