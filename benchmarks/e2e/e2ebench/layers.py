"""Layer boundaries (what the traced run wraps) and per-layer metrics.

Layers are this repository's module names.  Every wrapped callable is a
public function or method; code between two wrapped boundaries (for
example ``DeadlineGuardDevice``, ``TileStore``, the engine's worker loop)
counts toward the self time of the span that encloses it.

Normalisers, so a number reads as "per what":

* *op* — one client operation of the workload: an HTTP request, or a
  library call (load, query, update) in ``bulk_load``;
* *aggregate* — one ``/aggregate`` request;
* *write* — one update batch (HTTP ``/update`` or ``batch_update_standard``);
* *maintenance op* — one bulk load or one update batch (the SHIFT-SPLIT
  kernels run in both).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spans import COUNT, DUR, SELF, VALUE, Shims

#: (name, unit, better) — must match ``per_layer`` in BENCHMARK.json.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("server.http.overhead_ms", "ms", "lower"),
    ("server.app.self_ms", "ms", "lower"),
    ("server.slicer.compile_ms", "ms", "lower"),
    ("server.slicer.cells_per_req", "count", "lower"),
    ("service.engine.batch_self_ms", "ms", "lower"),
    ("service.engine.admission_wait_ms", "ms", "lower"),
    ("service.planner.plan_ms", "ms", "lower"),
    ("service.planner.dedup_ratio", "ratio", "higher"),
    ("reconstruct.rangesum_ms_per_cell", "ms", "lower"),
    ("reconstruct.point_ms", "ms", "lower"),
    ("obs.recorders_ms", "ms", "lower"),
    ("service.pool.hit_rate", "ratio", "higher"),
    ("service.pool.evictions", "count", "lower"),
    ("service.pool.get_self_ms", "ms", "lower"),
    ("storage.journal.read_self_ms", "ms", "lower"),
    ("storage.journal.commit_ms", "ms", "lower"),
    ("storage.journal.journal_writes_per_batch", "count", "lower"),
    ("storage.device.read_ms", "ms", "lower"),
    ("storage.device.write_ms", "ms", "lower"),
    ("storage.device.block_reads", "count", "lower"),
    ("storage.device.block_writes", "count", "lower"),
    ("storage.device.sync_ms", "ms", "lower"),
    ("storage.device.syncs", "count", "lower"),
    ("server.hub.update_self_ms", "ms", "lower"),
    ("server.persist.save_ms", "ms", "lower"),
    ("server.persist.sidecar_bytes", "bytes", "lower"),
    ("olap.cube.update_ms", "ms", "lower"),
    ("update.batch.apply_ms", "ms", "lower"),
    ("core.plans.compile_s", "s", "lower"),
    ("core.plans.builds", "count", "lower"),
    ("core.plans.hit_rate", "ratio", "higher"),
    ("wavelet.dwt_ms", "ms", "lower"),
    ("core.plans.apply_ms", "ms", "lower"),
    ("transform.chunked.self_ms", "ms", "lower"),
    ("storage.tiled.scatter_ms", "ms", "lower"),
    ("storage.tiled.read_ms", "ms", "lower"),
    ("storage.buffer_pool.hit_rate", "ratio", "higher"),
    ("storage.buffer_pool.evictions", "count", "lower"),
    ("bench.unattributed_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]

#: Spans that are blocked on another thread's work, not busy themselves.
WAIT_KEYS = ("bench.client:request", "bench.client:think", "service.engine:wait")


def _point_or_box(args: tuple) -> str:
    # range_sum_standard(store, lows, highs): a fully cut aggregate is a
    # one-cell box, which is how the HTTP API serves a point
    return "point" if tuple(args[1]) == tuple(args[2]) else "box"


def install_shims(shims: Shims, client_cls=None) -> None:
    """Wrap the public callables at every layer boundary."""
    import repro.server.persist as persist
    from repro.core.plans import StandardChunkPlan, get_standard_plan
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.heat import HeatRecorder
    from repro.obs.reqlog import RequestLog
    from repro.olap.cube import WaveletCube
    from repro.reconstruct.point import point_query_standard
    from repro.reconstruct.rangesum import range_sum_standard
    from repro.server.app import ServingApp
    from repro.server.hub import ServingHub
    from repro.server.slicer import compile_aggregate
    from repro.service.engine import QueryEngine, Submission
    from repro.service.planner import plan_batch
    from repro.service.pool import ShardedBufferPool
    from repro.storage.block_device import BlockDevice
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.journal import JournaledDevice
    from repro.storage.mmap_device import MmapBlockDevice
    from repro.storage.scatter import CompiledRegion
    from repro.storage.tiled import TiledStandardStore
    from repro.transform.chunked import transform_standard_chunked
    from repro.update.batch import batch_update_standard
    from repro.wavelet.standard import standard_dwt

    method, function = shims.attribute, shims.function
    if client_cls is not None:
        method(client_cls, "roundtrip", "bench.client:request")
        method(client_cls, "think", "bench.client:think")
    method(ServingApp, "__call__", "server.app:call")
    function(
        compile_aggregate,
        "server.slicer:compile",
        measure=lambda args, plan: len(plan.cells),
    )
    method(QueryEngine, "execute_batch", "service.engine:execute_batch")
    method(QueryEngine, "submit", "service.engine:submit")
    method(Submission, "result", "service.engine:wait")
    function(plan_batch, "service.planner:plan_batch")
    function(range_sum_standard, "reconstruct:", variant=_point_or_box)
    function(point_query_standard, "reconstruct:point")
    method(RequestLog, "record", "obs:reqlog")
    method(FlightRecorder, "record", "obs:flightrec")
    method(HeatRecorder, "touch", "obs:heat")
    for name in ("get", "fetch_and_pin", "create", "flush"):
        method(ShardedBufferPool, name, "service.pool:" + name)
    for name in ("get", "create", "flush"):
        method(BufferPool, name, "storage.buffer_pool:" + name)
    method(JournaledDevice, "read_block", "storage.journal:read_block")
    method(JournaledDevice, "write_batch", "storage.journal:write_batch")
    for device in (BlockDevice, MmapBlockDevice):
        method(device, "read_block", "storage.device:read")
        method(device, "write_block", "storage.device:write")
        method(device, "write_blocks", "storage.device:write")
    method(MmapBlockDevice, "sync", "storage.device:sync")
    method(ServingHub, "update", "server.hub:update")
    method(persist, "save_state", "server.persist:save_state")
    method(WaveletCube, "update", "olap.cube:update")
    function(batch_update_standard, "update.batch:apply")
    function(get_standard_plan, "core.plans:get_plan")
    method(CompiledRegion, "from_axis_groups", "storage.scatter:compile")
    method(StandardChunkPlan, "apply", "core.plans:apply")
    function(standard_dwt, "wavelet:dwt")
    function(transform_standard_chunked, "transform.chunked:load")
    for name in ("scatter", "gather"):
        method(CompiledRegion, name, "storage.tiled:" + name)
    for name in ("add_region", "set_region", "read_region"):
        method(TiledStandardStore, name, "storage.tiled:" + name)


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    agg: Dict[str, list], counts: dict, setup_agg: Dict[str, list]
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from span aggregates and counter deltas.

    ``agg`` maps span key to ``[count, duration_s, self_s, value]`` over
    the traced reps and ``setup_agg`` over the traced set-up; ``counts``
    holds the deltas of the program's public counters over the reps (see
    ``harness.COUNTER_KEYS``) and what the workload counted at set-up.
    """

    def slot(key: str, index: int) -> float:
        entry = agg.get(key)
        return entry[index] if entry else 0.0

    def layer(prefix: str, index: int) -> float:
        return sum(
            entry[index] for key, entry in agg.items() if key.startswith(prefix)
        )

    ms = 1e3
    ops = counts["ops"]
    aggregates = slot("server.slicer:compile", COUNT)
    writes = counts["writes"]
    maintenance = slot("transform.chunked:load", COUNT) + slot(
        "update.batch:apply", COUNT
    )
    commits = slot("storage.journal:write_batch", COUNT)
    pool_lookups = counts["pool_hits"] + counts["pool_misses"]
    # the hub's ShardedBufferPool is K plain BufferPools, so on a hub
    # workload both layers read the same tallies; the library workload
    # has no service pool
    sharded = 1.0 if counts["service_pool"] else 0.0
    plan_lookups = counts["plan_hits"] + counts["plan_misses"]
    out = {
        "server.http.overhead_ms": _per(
            (slot("bench.client:request", DUR) - slot("server.app:call", DUR))
            * ms,
            slot("server.app:call", COUNT),
        ),
        "server.app.self_ms": _per(slot("server.app:call", SELF) * ms, ops),
        "server.slicer.compile_ms": _per(
            slot("server.slicer:compile", DUR) * ms, aggregates
        ),
        "server.slicer.cells_per_req": _per(
            slot("server.slicer:compile", VALUE), aggregates
        ),
        "service.engine.batch_self_ms": _per(
            (
                slot("service.engine:execute_batch", SELF)
                + slot("service.engine:submit", SELF)
            )
            * ms,
            aggregates,
        ),
        "service.engine.admission_wait_ms": _per(
            counts["admission_wait_s"] * ms, counts["admitted"]
        ),
        "service.planner.plan_ms": _per(
            slot("service.planner:plan_batch", DUR) * ms, aggregates
        ),
        "service.planner.dedup_ratio": _per(
            counts["planned_tile_refs"], counts["planned_unique_tiles"]
        ),
        "reconstruct.rangesum_ms_per_cell": _per(
            slot("reconstruct:box", SELF) * ms, slot("reconstruct:box", COUNT)
        ),
        "reconstruct.point_ms": _per(
            slot("reconstruct:point", SELF) * ms,
            slot("reconstruct:point", COUNT),
        ),
        "obs.recorders_ms": _per(layer("obs:", DUR) * ms, ops),
        "service.pool.hit_rate": sharded * _per(counts["pool_hits"], pool_lookups),
        "service.pool.evictions": sharded * _per(counts["pool_evictions"], ops),
        "service.pool.get_self_ms": _per(layer("service.pool:", SELF) * ms, ops),
        "storage.journal.read_self_ms": _per(
            slot("storage.journal:read_block", SELF) * ms, ops
        ),
        "storage.journal.commit_ms": _per(
            slot("storage.journal:write_batch", SELF) * ms, commits
        ),
        "storage.journal.journal_writes_per_batch": _per(
            counts["journal_writes"], commits
        ),
        "storage.device.read_ms": _per(
            slot("storage.device:read", DUR) * ms, ops
        ),
        "storage.device.write_ms": _per(
            slot("storage.device:write", DUR) * ms, ops
        ),
        "storage.device.block_reads": _per(counts["block_reads"], ops),
        "storage.device.block_writes": _per(counts["block_writes"], ops),
        "storage.device.sync_ms": _per(counts["msync_seconds"] * ms, writes),
        "storage.device.syncs": _per(counts["msyncs"], writes),
        "server.hub.update_self_ms": _per(
            slot("server.hub:update", SELF) * ms, writes
        ),
        "server.persist.save_ms": _per(
            slot("server.persist:save_state", DUR) * ms, writes
        ),
        "server.persist.sidecar_bytes": float(counts["sidecar_bytes"]),
        "olap.cube.update_ms": _per(slot("olap.cube:update", SELF) * ms, writes),
        "update.batch.apply_ms": _per(
            slot("update.batch:apply", DUR) * ms, writes
        ),
        # a set-up with empty plan caches builds every chunk plan and, on
        # first use, compiles each plan's scatter regions
        "core.plans.compile_s": sum(
            setup_agg.get(key, (0, 0.0))[DUR]
            for key in ("core.plans:get_plan", "storage.scatter:compile")
        ),
        "core.plans.builds": float(counts["plan_builds"]),
        "core.plans.hit_rate": _per(counts["plan_hits"], plan_lookups),
        "wavelet.dwt_ms": _per(slot("wavelet:dwt", DUR) * ms, maintenance),
        "core.plans.apply_ms": _per(
            slot("core.plans:apply", SELF) * ms, maintenance
        ),
        "transform.chunked.self_ms": _per(
            slot("transform.chunked:load", SELF) * ms,
            slot("transform.chunked:load", COUNT),
        ),
        "storage.tiled.scatter_ms": _per(
            sum(
                slot("storage.tiled:" + name, SELF)
                for name in ("scatter", "add_region", "set_region")
            )
            * ms,
            maintenance,
        ),
        "storage.tiled.read_ms": _per(
            (
                slot("storage.tiled:read_region", SELF)
                + slot("storage.tiled:gather", SELF)
            )
            * ms,
            ops,
        ),
        "storage.buffer_pool.hit_rate": _per(counts["pool_hits"], pool_lookups),
        "storage.buffer_pool.evictions": _per(counts["pool_evictions"], ops),
    }
    return out


def layer_shares(agg: Dict[str, list]) -> Dict[str, float]:
    """Each layer's share of all busy (non-waiting) self time."""
    busy: Dict[str, float] = {}
    for key, entry in agg.items():
        if key in WAIT_KEYS:
            continue
        name = key.partition(":")[0]
        busy[name] = busy.get(name, 0.0) + entry[SELF]
    total = sum(busy.values())
    return {
        name: seconds / total
        for name, seconds in sorted(busy.items(), key=lambda kv: -kv[1])
        if total
    }
