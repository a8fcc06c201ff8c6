"""The four workloads.

Each stresses different layers (see ``../README.md`` for the table):

``bulk_load``      library level, no server or service code runs;
``dashboard_hot``  in-memory hub, working set resident, zero device reads;
``cold_scan``      reopened mmap hub, pool far smaller than the arena;
``ingest_mixed``   fresh mmap hub, one writer beside one reader.

A rep is a fixed list of operations made from the seed before anything is
timed.  Answers are checked against the dense model between the timed
phases, never inside them.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Sequence

import numpy as np

from .config import (
    API_KEY,
    BLOCK_EDGE,
    BLOCK_SLOTS,
    CUBE,
    DIMS,
    TENANT,
    UPDATE_SHAPE,
    Geometry,
)
from .harness import (
    COUNTER_KEYS,
    Rep,
    exact,
    median_of,
    percentile_of,
    spread,
)
from .ops import (
    ClientPlan,
    Op,
    Oracle,
    Sample,
    drill,
    mixed,
    point,
    rollup_aligned,
    rollup_random,
    run_clients,
    write,
)

WORKLOADS = ("bulk_load", "dashboard_hot", "cold_scan", "ingest_mixed")


def _plan_counters() -> Dict[str, float]:
    from repro.core.plans import plan_cache_stats

    return dict(plan_cache_stats()["standard_plans"])


def _ratio(reps: Sequence[Rep], top: str, bottom: str, unit: str, offset=0.0) -> dict:
    """Σ top / Σ bottom over the reps (plus ``offset``); the spread is
    that of the same ratio taken rep by rep."""
    per_rep = [rep.values[top] / rep.values[bottom] + offset for rep in reps]
    total = sum(rep.values[top] for rep in reps) / sum(
        rep.values[bottom] for rep in reps
    )
    return {
        "value": total + offset,
        "unit": unit,
        "n": len(reps),
        "spread": spread(per_rep),
    }


class Workload:
    """Common bookkeeping; subclasses provide set-up, prepare and rep."""

    name = ""
    #: whether ``service.pool`` exists in this workload (it does not in
    #: the library workload, whose pool is the plain ``BufferPool``)
    service_pool = True

    def __init__(self, geometry: Geometry, seed: int, workdir: str) -> None:
        self.geometry = geometry
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, WORKLOADS.index(self.name)])
        self.correct = True
        self.notes: Dict[str, object] = {}
        self.extra_attempted = 0
        self.extra_failed = 0
        self.cold_load_seconds: List[float] = []
        self.space_bytes = 0
        self.fill_reads_per_req = 0.0
        self.setup_counters: Dict[str, float] = {}

    def _set_setup_counters(self, before: Dict[str, float], sidecar_bytes=0) -> None:
        after = _plan_counters()
        self.setup_counters = {
            "plan_builds": after["builds"] - before["builds"],
            "sidecar_bytes": sidecar_bytes,
            "service_pool": self.service_pool,
        }

    def teardown(self) -> None:
        """Release what set-up opened; safe to call twice."""

    def end_to_end(self, setups: Sequence[dict], reps: Sequence[Rep]) -> dict:
        cells = self.geometry.cells
        metrics = {
            "setup_s": median_of([entry["wall_s"] for entry in setups], "s"),
            "cells_per_s": median_of(
                [rep.values["cells_per_s"] for rep in reps], "cells/s"
            ),
            "cold_cells_per_s": median_of(
                [cells / seconds for seconds in self.cold_load_seconds],
                "cells/s",
            ),
            "block_io_per_kcell": _ratio(
                reps, "maintenance_io", "maintenance_kcells", "blocks"
            ),
            "space_amp": exact(self.space_bytes / (cells * 8.0), "ratio"),
            "req_per_s": median_of(
                [rep.values["req_per_s"] for rep in reps], "req/s"
            ),
            "block_reads_per_req": _ratio(
                reps, "read_blocks", "read_ops", "blocks",
                offset=self.fill_reads_per_req,
            ),
        }
        for cls in ("rollup", "drill", "point"):
            samples = [rep.latency_ms[cls] for rep in reps]
            metrics[f"{cls}_p50_ms"] = percentile_of(samples, 0.50)
            metrics[f"{cls}_p95_ms"] = percentile_of(samples, 0.95)
        metrics["write_p50_ms"] = percentile_of(
            [rep.latency_ms["write"] for rep in reps], 0.50
        )
        return metrics


# ----------------------------------------------------------------------
# bulk_load
# ----------------------------------------------------------------------


class BulkLoad(Workload):
    """Library level: chunked SHIFT-SPLIT bulk load into a fresh tiled
    store whose pool is ~1 % of the footprint, then the loaded transform
    is read back and updated through the library's own entry points."""

    name = "bulk_load"
    service_pool = False

    def __init__(self, geometry, seed, workdir) -> None:
        super().__init__(geometry, seed, workdir)
        counts = geometry.bulk_ops
        self.ops_per_rep = {
            "load": 1,
            "read": counts["rollup"] + counts["drill"] + counts["point"],
            "write": counts["write"],
        }
        self._load_io = None

    def _draw(self):
        """This rep's reads and writes.  Drawn afresh every rep: a query's
        cost depends on where its box cuts the dyadic grid, and a run
        that replayed one short list would report that list's luck."""
        geometry, rng, counts = self.geometry, self.rng, self.geometry.bulk_ops
        reads = mixed(
            rng,
            self.ops_per_rep["read"],
            [
                (counts["rollup"], lambda: rollup_random(geometry, rng)),
                (counts["drill"], lambda: drill(geometry, rng, aligned=False)),
                (counts["point"], lambda: point(geometry, rng)),
            ],
        )
        return reads, [write(geometry, rng) for __ in range(counts["write"])]

    def _load(self):
        """A fresh store with the cube loaded into it, and the seconds
        the load took.  Every load must cost the same block I/O."""
        # looked up through its module at call time, so the traced run's
        # rebinding of the name takes effect
        import repro.transform.chunked as chunked_module
        from repro.storage.tiled import TiledStandardStore

        store = TiledStandardStore(
            self.geometry.shape,
            block_edge=BLOCK_EDGE,
            pool_capacity=self.geometry.bulk_pool,
        )
        started = time.perf_counter()
        chunked_module.transform_standard_chunked(
            store, self.data, self.geometry.chunk
        )
        store.flush()
        seconds = time.perf_counter() - started
        io = store.stats
        signature = (
            io.block_reads, io.block_writes, io.cache_hits, io.cache_misses
        )
        if self._load_io is None:
            self._load_io = signature
        elif signature != self._load_io:
            self.correct = False
            self.notes["load_io_differs"] = [self._load_io, signature]
        return store, seconds

    def setup(self) -> dict:
        """Generate the cube and load it once with empty plan caches —
        the plan compilation a process pays before its first warm load."""
        from repro.core.plans import clear_plan_caches
        from repro.datasets.synthetic import temperature_cube

        clear_plan_caches()
        before = _plan_counters()
        started = time.perf_counter()
        self.data = temperature_cube(self.geometry.shape, self.seed)
        __, load_s = self._load()
        wall_s = time.perf_counter() - started
        self.cold_load_seconds.append(load_s)
        self._set_setup_counters(before)
        return {"wall_s": wall_s}

    def prepare(self) -> None:
        """One untimed rep, which compiles the update plans."""
        warm = self.rep(nullcontext)
        self.extra_attempted += warm.ops
        self.extra_failed += warm.failed

    def rep(self, phase) -> Rep:
        import repro.reconstruct.point as point_module
        import repro.reconstruct.rangesum as rangesum_module
        import repro.update.batch as batch_module

        geometry, now = self.geometry, time.perf_counter
        rep = Rep()
        oracle = Oracle(self.data)
        reads, writes = self._draw()
        plans_before = _plan_counters()
        with phase():
            store, load_s = self._load()
        load_io = store.stats.snapshot()

        answers = []
        with phase():
            read_started = now()
            for op in reads:
                started = now()
                if op.cls == "point":
                    values = [
                        point_module.point_query_standard(store, op.boxes[0][0])
                    ]
                else:
                    values = [
                        rangesum_module.range_sum_standard(store, lows, highs)
                        for lows, highs in op.boxes
                    ]
                rep.latency_ms[op.cls].append((now() - started) * 1e3)
                answers.append(values)
            read_s = now() - read_started
        read_io = store.stats.delta_since(load_io)
        for op, values in zip(reads, answers):
            rep.failed += not all(
                oracle.value_ok(box, value)
                for box, value in zip(op.boxes, values)
            )

        with phase():
            for op in writes:
                started = now()
                batch_module.batch_update_standard(store, op.deltas, op.corner)
                store.flush()
                rep.latency_ms["write"].append((now() - started) * 1e3)
        for op in writes:
            oracle.apply(op)

        total = store.stats
        pool = store.tile_store.pool
        plans = _plan_counters()
        rep.counters.update(
            block_reads=total.block_reads,
            block_writes=total.block_writes,
            journal_writes=total.journal_writes,
            pool_hits=pool.hits,
            pool_misses=pool.misses,
            pool_evictions=pool.evictions,
            plan_hits=plans["hits"] - plans_before["hits"],
            plan_misses=plans["misses"] - plans_before["misses"],
        )
        rep.ops = 1 + len(reads) + len(writes)
        rep.writes = len(writes)
        rep.wall_s = load_s + read_s + sum(rep.latency_ms["write"]) / 1e3
        rep.values.update(
            cells_per_s=geometry.cells / load_s,
            req_per_s=len(reads) / read_s,
            maintenance_io=load_io.block_reads
            + load_io.block_writes
            + load_io.journal_writes,
            maintenance_kcells=geometry.cells / 1e3,
            read_blocks=read_io.block_reads,
            read_ops=len(reads),
        )
        self.space_bytes = store.tile_store.device.bytes_used()
        self._last = (store, oracle)
        return rep

    def finish(self) -> int:
        """Reconstruct the last rep's cube (load + its updates) and
        compare it with the model, cell by cell."""
        from repro.wavelet.standard import standard_idwt

        store, oracle = self._last
        rebuilt = standard_idwt(store.to_array())
        worst = float(np.abs(rebuilt - oracle.model).max())
        self.notes["reconstruct_max_abs_error"] = worst
        self.extra_attempted += 1
        return int(worst > 1e-9 * float(np.abs(oracle.model).max()))


# ----------------------------------------------------------------------
# hub workloads
# ----------------------------------------------------------------------


class HubWorkload(Workload):
    """A ``ServingHub`` served by ``repro.server.http.spawn`` on loopback,
    in this process so the hub's public counters can be read exactly."""

    data_dir_backed = False

    def __init__(self, geometry, seed, workdir) -> None:
        super().__init__(geometry, seed, workdir)
        self.hub = self.server = self.server_thread = self.data_dir = None

    # -- set-up --------------------------------------------------------

    def _dimensions(self):
        from repro.olap.schema import Dimension, Hierarchy, Level

        names = ("year", "quarter", "month")
        hierarchy = Hierarchy(
            "yqm",
            [Level(n, fanout) for n, fanout in zip(names, self.geometry.yqm)],
        )
        return [
            Dimension(name, extent, hierarchies=(hierarchy,) if name == "time" else ())
            for name, extent in zip(DIMS, self.geometry.shape)
        ]

    def _new_hub(self, pool_blocks: int):
        from repro.server.hub import ServingHub

        # production defaults: flight recorder, request log and heat
        # recorder on, tracer off
        return ServingHub(
            block_slots=BLOCK_SLOTS,
            pool_blocks=pool_blocks,
            data_dir=self.data_dir,
        )

    def _load(self, hub) -> float:
        """Provision the tenant and bulk-load the cube; returns the
        load's seconds."""
        hub.add_tenant(TENANT, api_key=API_KEY)
        started = time.perf_counter()
        hub.add_cube(
            TENANT,
            CUBE,
            self._dimensions(),
            data=self.data,
            chunk_shape=self.geometry.chunk,
        )
        return time.perf_counter() - started

    def _build(self):
        """Returns ``(hub, load_seconds)``."""
        raise NotImplementedError

    def setup(self) -> dict:
        from repro.core.plans import clear_plan_caches
        from repro.datasets.synthetic import temperature_cube
        from repro.server.http import spawn

        self.teardown()
        # every set-up pays plan compilation, as a process start does
        clear_plan_caches()
        before = _plan_counters()
        if self.data_dir_backed:
            self.data_dir = tempfile.mkdtemp(dir=self.workdir)
        started = time.perf_counter()
        self.data = temperature_cube(self.geometry.shape, self.seed)
        self.hub, load_s = self._build()
        self.server, self.server_thread = spawn(self.hub)
        wall_s = time.perf_counter() - started
        self.cold_load_seconds.append(load_s)
        self._set_setup_counters(before, self._sidecar_bytes())
        self.oracle = Oracle(self.data)
        return {"wall_s": wall_s}

    def _sidecar_bytes(self) -> int:
        from repro.server import persist

        if self.data_dir is None:
            return 0
        return os.path.getsize(persist.state_path(self.data_dir))

    def _stop_serving(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server_thread.join()
            self.server = None
        if self.hub is not None:
            self.hub.close()
            self.hub = None

    def teardown(self) -> None:
        self._stop_serving()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    # -- counters ------------------------------------------------------

    def _raw_device(self):
        return self.hub.journaled.inner

    def _counters(self) -> Dict[str, float]:
        hub = self.hub
        stats, pool = hub.stats, hub.pool.snapshot()
        labels = {"tenant": TENANT, "cube": CUBE}
        wait = hub.metrics.histogram("admission_wait_s", labels)
        telemetry = getattr(self._raw_device(), "telemetry", None)
        arena = telemetry() if telemetry is not None else {}
        plans = _plan_counters()
        return {
            "plan_hits": plans["hits"],
            "plan_misses": plans["misses"],
            "block_reads": stats.block_reads,
            "block_writes": stats.block_writes,
            "journal_writes": stats.journal_writes,
            "pool_hits": pool["hits"],
            "pool_misses": pool["misses"],
            "pool_evictions": pool["evictions"],
            "msyncs": arena.get("msyncs", 0),
            "msync_seconds": arena.get("msync_seconds", 0.0),
            "admission_wait_s": wait.total,
            "admitted": wait.count,
            "planned_tile_refs": hub.metrics.counter(
                "planned_tile_refs", labels
            ).value,
            "planned_unique_tiles": hub.metrics.counter(
                "planned_unique_tiles", labels
            ).value,
        }

    # -- phases --------------------------------------------------------

    @property
    def address(self):
        return self.server.server_address

    @staticmethod
    def _wall(samples: Sequence[Sample]) -> float:
        return max(s.received for s in samples) - min(s.sent for s in samples)

    def _reads(self, rep: Rep, plans: Sequence[ClientPlan], phase) -> List[Sample]:
        """Timed read phase; records latencies, throughput and reads."""
        before = self.hub.stats.snapshot()
        results = run_clients(self.address, plans, phase)
        delta = self.hub.stats.delta_since(before)
        samples = [sample for client in results for sample in client]
        for sample in samples:
            rep.latency_ms[sample.op.cls].append(sample.ms)
        wall = self._wall(samples)
        rep.wall_s += wall
        rep.ops += len(samples)
        rep.values.update(
            req_per_s=len(samples) / wall,
            read_blocks=delta.block_reads,
            read_ops=len(samples),
        )
        return samples

    def _record_writes(self, rep: Rep, samples: Sequence[Sample]) -> int:
        """Records the update batches of a rep; returns the block reads
        the hub charged to them."""
        io = reads = 0
        for sample in samples:
            rep.latency_ms["write"].append(sample.ms)
            if sample.status == 200:
                # the hub's own receipt of the batch's block I/O
                receipt = json.loads(sample.body)["io"]
                io += sum(receipt.values())
                reads += receipt["block_reads"]
        # acknowledged cells over the time spent waiting for the acks, so
        # a writer that pauses between batches reads the same
        busy_s = sum(sample.ms for sample in samples) / 1e3
        cells = len(samples) * int(np.prod(UPDATE_SHAPE))
        rep.ops += len(samples)
        rep.writes += len(samples)
        rep.values.update(
            cells_per_s=cells / busy_s,
            maintenance_io=io,
            maintenance_kcells=cells / 1e3,
        )
        return reads

    def _writes(self, rep: Rep, ops: Sequence[Op], phase) -> None:
        """Timed write phase by one client with no reader beside it."""
        (samples,) = run_clients(self.address, [ClientPlan(ops)], phase)
        rep.wall_s += self._wall(samples)
        self._record_writes(rep, samples)
        rep.failed += self.oracle.apply_writes(samples)

    def _counted(self, rep: Rep, before: Dict[str, float]) -> Rep:
        after = self._counters()
        for key in COUNTER_KEYS:
            rep.counters[key] = after[key] - before[key]
        return rep

    def prepare(self) -> None:
        """One untimed rep: fills the pool and the update-plan cache, so
        the timed reps all start from the same state."""
        warm = self.rep(nullcontext)
        self.extra_attempted += warm.ops
        self.extra_failed += warm.failed
        self._warm = warm
        arena = getattr(self._raw_device(), "telemetry", None)
        self.space_bytes = (
            arena()["mapped_bytes"]
            if arena is not None
            else self.hub.journaled.bytes_used()
        )

    def finish(self) -> int:
        self.teardown()
        return 0


class DashboardHot(HubWorkload):
    """In-memory hub, pool as large as the arena: hierarchy-aligned
    rollups, year-to-month drill-downs and points from a hot box, by two
    clients; then a short burst of updates."""

    name = "dashboard_hot"

    def __init__(self, geometry, seed, workdir) -> None:
        super().__init__(geometry, seed, workdir)
        rng = self.rng
        edge = tuple(min(extent, 8 if axis == 3 else 4)
                     for axis, extent in enumerate(geometry.shape))
        low = tuple(
            int(rng.integers(extent // size)) * size
            for extent, size in zip(geometry.shape, edge)
        )
        high = tuple(lo + size for lo, size in zip(low, edge))
        makers = [
            (0.5, lambda: rollup_aligned(geometry, rng)),
            (0.3, lambda: drill(geometry, rng, aligned=True)),
            (0.2, lambda: point(geometry, rng, low, high)),
        ]
        self.clients = [mixed(rng, geometry.hot_ops, makers) for __ in range(2)]
        self.writes = [write(geometry, rng) for __ in range(geometry.hot_writes)]
        self.ops_per_rep = {
            "clients": 2,
            "read": 2 * geometry.hot_ops,
            "write": len(self.writes),
        }

    def _build(self):
        hub = self._new_hub(self.geometry.hot_pool)
        return hub, self._load(hub)

    def rep(self, phase) -> Rep:
        rep, before = Rep(), self._counters()
        reads = self._reads(
            rep, [ClientPlan(ops) for ops in self.clients], phase
        )
        rep.failed += self.oracle.check_reads(reads)
        self._writes(rep, self.writes, phase)
        return self._counted(rep, before)

    def prepare(self) -> None:
        super().prepare()
        # the timed reps read nothing from the device (asserted below), so
        # the metric carries the one-off fill of the working set, spread
        # over the warm-up rep's requests: it is never 0 and any re-read
        # in steady state adds to it
        self.fill_reads_per_req = (
            self._warm.values["read_blocks"] / self._warm.values["read_ops"]
        )

    def end_to_end(self, setups, reps) -> dict:
        hits = sum(rep.counters["pool_hits"] for rep in reps)
        misses = sum(rep.counters["pool_misses"] for rep in reps)
        self.notes["pool_hit_rate"] = hits / (hits + misses)
        if self.notes["pool_hit_rate"] < 0.99:
            self.correct = False  # the working set was meant to be resident
        return super().end_to_end(setups, reps)


class ColdScan(HubWorkload):
    """mmap hub, closed and reopened (the arena is adopted, not read),
    pool a fraction of a percent of it: uniformly random range cuts,
    unaligned drill-downs and uniform points by one client."""

    name = "cold_scan"
    data_dir_backed = True

    def __init__(self, geometry, seed, workdir) -> None:
        super().__init__(geometry, seed, workdir)
        self.ops_per_rep = {
            "clients": 1,
            "read": geometry.scan_ops,
            "write": geometry.scan_writes,
        }

    def _build(self):
        hub = self._new_hub(self.geometry.scan_build_pool)
        load_s = self._load(hub)
        hub.close()
        return self._new_hub(self.geometry.scan_pool), load_s

    def rep(self, phase) -> Rep:
        geometry, rng = self.geometry, self.rng
        # drawn afresh every rep (see BulkLoad._draw)
        reads = mixed(
            rng,
            geometry.scan_ops,
            [
                (0.55, lambda: rollup_random(geometry, rng)),
                (0.25, lambda: point(geometry, rng)),
                # one quarter's months: a year's 16 unaligned cells cost
                # ~15x a rollup here and would leave the other classes
                # few samples
                (
                    0.20,
                    lambda: drill(geometry, rng, aligned=False, by_quarter=True),
                ),
            ],
        )
        writes = [write(geometry, rng) for __ in range(geometry.scan_writes)]
        rep, before = Rep(), self._counters()
        rep.failed += self.oracle.check_reads(
            self._reads(rep, [ClientPlan(reads)], phase)
        )
        self._writes(rep, writes, phase)
        return self._counted(rep, before)


class IngestMixed(HubWorkload):
    """Fresh mmap hub: one client posts update batches while a second
    reads rollups, drill-downs and points over the region being updated;
    afterwards the hub is closed, reopened from its data dir and read
    again, so every acknowledged batch is shown to be durable."""

    name = "ingest_mixed"
    data_dir_backed = True
    # A durable update holds the GIL for most of its ~0.1 s (the sidecar
    # rewrite), so the reads beside it fall into two modes: unstalled, and
    # stalled behind a write for up to that long.  A percentile repeats
    # only when it sits well inside one mode.  The writer pauses
    # ``ingest_think_s`` after each acknowledged batch, which lets about
    # eight reads through per batch: 10-20 % of the reads of every class
    # are stalled, so p50 is the unstalled latency and p95 is the stall a
    # write imposes on a reader.  Back to back (no pause) about half the
    # reads are stalled and p50 flips between the modes from run to run;
    # with a pause of a second the stalled share is near 5 % and p95
    # flips instead.

    def __init__(self, geometry, seed, workdir) -> None:
        super().__init__(geometry, seed, workdir)
        self.acknowledged: List[Op] = []
        self.ops_per_rep = {
            "clients": 2,
            "write": geometry.ingest_writes,
            "read": "until the writer finishes",
        }

    def _read_over(self, target: Op) -> Op:
        """A read whose box overlaps the block ``target`` updates."""
        geometry, rng = self.geometry, self.rng
        years, quarters, months = geometry.yqm
        cell = target.corner[3]
        year = cell // (quarters * months)
        kind = rng.random()
        if kind < 0.4:
            quarter = (cell // months) % quarters
            half = geometry.shape[0] // 2
            first = 0 if target.corner[0] < half else half
            start = (year * quarters + quarter) * months
            lows = (first, 0, 0, start)
            highs = (
                first + half - 1,
                geometry.shape[1] - 1,
                geometry.shape[2] - 1,
                start + months - 1,
            )
            path = (
                f"/cube/{CUBE}/aggregate?cut=time@yqm:{year}.{quarter}"
                f"|lat:{first}-{first + half - 1}"
            )
            return Op("rollup", path, None, ((lows, highs),), None, None)
        if kind < 0.7:
            return drill(geometry, rng, aligned=True, year=year)
        high = tuple(c + e for c, e in zip(target.corner, UPDATE_SHAPE))
        return point(geometry, rng, target.corner, high)

    def _build(self):
        hub = self._new_hub(self.geometry.ingest_pool)
        return hub, self._load(hub)

    def rep(self, phase) -> Rep:
        geometry, rng = self.geometry, self.rng
        # drawn afresh every rep (see BulkLoad._draw)
        writes = [write(geometry, rng) for __ in range(geometry.ingest_writes)]
        reads = [
            self._read_over(writes[int(pick)])
            for pick in rng.integers(len(writes), size=geometry.ingest_reads)
        ]
        rep, before = Rep(), self._counters()
        finished = threading.Event()
        io_before = self.hub.stats.snapshot()
        written, read = run_clients(
            self.address,
            [
                ClientPlan(writes, done=finished, think_s=geometry.ingest_think_s),
                ClientPlan(reads, until=finished),
            ],
            phase,
        )
        self.acknowledged += [s.op for s in written if s.status == 200]
        delta = self.hub.stats.delta_since(io_before)
        for sample in read:
            rep.latency_ms[sample.op.cls].append(sample.ms)
        update_reads = self._record_writes(rep, written)
        read_wall = self._wall(read)
        rep.wall_s = self._wall(written + read)
        rep.ops += len(read)
        rep.values.update(
            req_per_s=len(read) / read_wall,
            # The shared counter cannot tell the two clients apart, and a
            # batch reads ~35x what a request does: every block read
            # while a batch was in flight is on that batch's receipt and
            # counts in block_io_per_kcell, the rest is the reader's.
            read_blocks=delta.block_reads - update_reads,
            read_ops=len(read),
        )
        failed, torn = self.oracle.check_concurrent(read, written)
        rep.failed += failed
        self.notes["torn_reads"] = self.notes.get("torn_reads", 0) + torn
        return self._counted(rep, before)

    def finish(self) -> int:
        """Close, reopen from the data dir, and read over every batch
        that was acknowledged."""
        from repro.server.http import spawn

        self._stop_serving()
        self.hub = self._new_hub(self.geometry.ingest_pool)
        self.server, self.server_thread = spawn(self.hub)
        reads = [self._read_over(op) for op in self.acknowledged]
        (samples,) = run_clients(self.address, [ClientPlan(reads)], nullcontext)
        failed = self.oracle.check_reads(samples)
        self.extra_attempted += len(samples)
        self.notes["reads_after_reopen"] = len(samples)
        self.teardown()
        return failed


CLASSES = {
    cls.name: cls for cls in (BulkLoad, DashboardHot, ColdScan, IngestMixed)
}
