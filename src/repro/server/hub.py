"""Multi-tenant serving hub: shared storage arena, per-tenant engines.

One :class:`ServingHub` owns the whole serving-side storage stack:

* a single **shared block arena** — one raw
  :class:`~repro.storage.block_device.BlockDevice` wrapped in a
  :class:`~repro.storage.journal.JournaledDevice` (group-commit
  durability, per-block L1 summaries for degraded error bounds);
* one **shared** :class:`~repro.service.pool.ShardedBufferPool` over
  that arena — the memory budget every tenant competes for;
* per-cube :class:`~repro.olap.WaveletCube`\\ s constructed *on* the
  shared device (block ids stay globally unique because all allocation
  funnels through the one arena) and per-cube
  :class:`~repro.service.engine.QueryEngine`\\ s with tenant-labeled
  metrics, the tenant's in-flight quota, and deadline degradation
  enabled.

Tenant isolation is therefore exactly what the engine primitives give:
a tenant saturating its quota gets :class:`QuotaError` (HTTP 429)
without occupying another tenant's queue slots, and a tenant whose
deadlines expire gets cache-only degraded answers without issuing
device reads that would queue ahead of others.

Updates mutate shared structures (device allocation, tile
directories), so the hub serialises all update batches behind one
write lock; queries only ever ``peek`` and run lock-free against the
pool.
"""

from __future__ import annotations

import os
import secrets
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fault.breaker import CircuitBreaker
from repro.fault.device import FaultyBlockDevice
from repro.fault.retry import RetryPolicy
from repro.obs.exporters import (
    heat_to_prometheus,
    io_receipt,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.heat import HeatRecorder, get_heat, heat_context, set_heat
from repro.obs.reqlog import RequestLog
from repro.obs.tracer import NULL_TRACER, get_tracer
from repro.olap.cube import WaveletCube
from repro.olap.schema import Dimension, SchemaError
from repro.replica.client import ReplicationClient
from repro.replica.follower import FollowerEngine
from repro.replica.shipper import JournalShipper
from repro.server import persist
from repro.service.engine import QueryEngine
from repro.service.metrics import MetricsRegistry
from repro.service.pool import ShardedBufferPool
from repro.storage.block_device import BlockDevice
from repro.storage.iostats import IOStats
from repro.storage.journal import JournaledDevice
from repro.storage.mmap_device import MmapBlockDevice

__all__ = [
    "CubeState",
    "ReplicaReadOnlyError",
    "ServingHub",
    "Tenant",
]


class ReplicaReadOnlyError(RuntimeError):
    """An update reached a hub that is not (or not yet) the primary.

    Maps to HTTP 503 with ``Retry-After``: a *replica* stays read-only
    until promoted, a *promoting* hub is seconds away from accepting
    the retried write.
    """

    def __init__(self, role: str, retry_after_s: float = 1.0) -> None:
        super().__init__(
            f"updates rejected: this hub is role={role!r}, not primary"
        )
        self.role = role
        self.retry_after_s = retry_after_s


class Tenant:
    """One tenant: an API key, a quota, and its cubes."""

    def __init__(
        self,
        name: str,
        api_key: str,
        max_inflight: int,
        num_workers: int,
        default_deadline_s: Optional[float],
    ) -> None:
        self.name = name
        self.api_key = api_key
        self.max_inflight = max_inflight
        self.num_workers = num_workers
        self.default_deadline_s = default_deadline_s
        self.cubes: Dict[str, "CubeState"] = {}


class CubeState:
    """One served cube: the cube, its engine, and its labels."""

    def __init__(
        self, name: str, tenant: str, cube: WaveletCube, engine: QueryEngine
    ) -> None:
        self.name = name
        self.tenant = tenant
        self.cube = cube
        self.engine = engine

    def model(self) -> dict:
        """The cube's logical model (the ``/model`` payload)."""
        return {
            "name": self.name,
            "shape": list(self.cube.shape),
            "dimensions": [
                dimension.to_dict() for dimension in self.cube.dimensions
            ],
            "measures": ["sum", "count", "avg"],
        }


class ServingHub:
    """Shared-arena multi-tenant serving state.

    Parameters
    ----------
    block_slots:
        Coefficient slots per device block, shared by every cube; a
        cube of ``d`` dimensions is tiled with ``block_edge =
        block_slots ** (1/d)``, which must be integral (64 slots serve
        1-D edge 64, 2-D edge 8, 3-D edge 4, 6-D edge 2).
    pool_blocks:
        Total shared buffer-pool budget, in blocks.
    num_shards:
        Lock shards of the shared pool.
    queue_depth / num_workers / max_inflight / default_deadline_s:
        Per-tenant engine defaults; overridable per tenant.
    breaker_threshold:
        When set, every engine gets its own
        :class:`~repro.fault.breaker.CircuitBreaker` with this failure
        threshold (surfaced through ``/healthz``).
    flight_capacity:
        Per-ring bound of the always-on
        :class:`~repro.obs.flightrec.FlightRecorder` behind
        ``/debug/queries`` (slowest / degraded / faulted request
        receipts).  ``0`` disables the recorder.
    reqlog_capacity:
        Ring bound of the structured
        :class:`~repro.obs.reqlog.RequestLog`; ``0`` disables it.
    reqlog_stream:
        Optional text stream each request-log record is also written
        to as one JSON line (e.g. ``sys.stderr`` for the CLI's
        ``--reqlog``).
    heat_max_tiles:
        Per-label tile bound of the
        :class:`~repro.obs.heat.HeatRecorder` the hub installs as the
        process-wide recorder; ``0`` disables heat accounting.
    admin_key:
        Key granting unfiltered access to the ``/debug/*`` endpoints;
        generated when omitted (read it back via :attr:`admin_key`).
    data_dir:
        When set, the shared arena lives in
        ``<data_dir>/arena.blocks`` on a file-backed
        :class:`~repro.storage.mmap_device.MmapBlockDevice` instead of
        an in-memory :class:`~repro.storage.block_device.BlockDevice`,
        and the hub's logical state (tenants, cube schemas, tile
        directories) is mirrored to ``<data_dir>/hub_state.json`` on
        every mutation.  A hub constructed over an existing directory
        reopens the arena and serves the stored coefficients
        bit-identically — no reload.  The journal layer stacks on the
        mmap device exactly as on the in-memory one.
    """

    def __init__(
        self,
        block_slots: int = 64,
        pool_blocks: int = 64,
        num_shards: int = 4,
        queue_depth: int = 64,
        num_workers: int = 2,
        max_inflight: int = 32,
        default_deadline_s: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        data_dir: Optional[str] = None,
        flight_capacity: int = 64,
        reqlog_capacity: int = 512,
        reqlog_stream=None,
        heat_max_tiles: int = 65536,
        admin_key: Optional[str] = None,
        replicate: bool = False,
        ship_retain: int = 256,
        replica_of: Optional[str] = None,
        replica_id: str = "replica",
        replica_poll_s: float = 0.1,
        primary_api_key: Optional[str] = None,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
    ) -> None:
        if replica_of is not None and data_dir is not None:
            raise ValueError(
                "replica_of and data_dir are mutually exclusive: a "
                "replica's arena is defined by the primary's stream, "
                "not by a local sidecar"
            )
        if replica_of is not None and replicate:
            raise ValueError(
                "a hub starts as either a shipping primary (replicate) "
                "or a replica (replica_of); promotion turns the latter "
                "into the former"
            )
        self._stats = IOStats()
        self._data_dir = data_dir
        self._restoring = False
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            arena_path = os.path.join(data_dir, persist.ARENA_FILENAME)
            reopening = (
                os.path.exists(arena_path)
                and os.path.getsize(arena_path) > 0
            )
            raw = MmapBlockDevice(
                arena_path,
                block_slots=None if reopening else block_slots,
                stats=self._stats,
            )
            block_slots = raw.block_slots
        else:
            raw = BlockDevice(block_slots, stats=self._stats)
        self._block_slots = block_slots
        self._raw = raw
        self._fault_rate = fault_rate
        self._fault_seed = fault_seed
        device = raw
        if fault_rate > 0.0:
            # Fault injection goes *under* the journal so injected
            # read errors and torn writes are subject to checksum
            # verification, exactly as serve-replay wires it.
            device = FaultyBlockDevice(
                raw, seed=fault_seed, read_error_rate=fault_rate
            )
        self._journaled = JournaledDevice(device)
        self._pool = ShardedBufferPool(
            self._journaled, pool_blocks, num_shards=num_shards
        )
        self._metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self._queue_depth = queue_depth
        self._num_workers = num_workers
        self._max_inflight = max_inflight
        self._default_deadline_s = default_deadline_s
        self._breaker_threshold = breaker_threshold
        self._tenants: Dict[str, Tenant] = {}
        self._api_keys: Dict[str, str] = {}  # key -> tenant name
        self._write_lock = threading.Lock()
        self._closed = False
        self._admin_key = (
            admin_key if admin_key is not None else secrets.token_hex(16)
        )
        self._flightrec = (
            FlightRecorder(flight_capacity) if flight_capacity > 0 else None
        )
        self._reqlog = (
            RequestLog(reqlog_capacity, stream=reqlog_stream)
            if reqlog_capacity > 0
            else None
        )
        self._heat: Optional[HeatRecorder] = None
        self._heat_previous: Optional[HeatRecorder] = None
        if heat_max_tiles > 0:
            # The hub installs its recorder as the process-wide one so
            # the zero-argument storage hooks can reach it; restored on
            # close (last-constructed hub wins, like set_tracer).
            self._heat = HeatRecorder(max_tiles=heat_max_tiles)
            self._heat_previous = set_heat(self._heat)
        # ------------------------------------------------------------------
        # replication roles (ROADMAP item 3)
        # ------------------------------------------------------------------
        self._role = "replica" if replica_of is not None else "primary"
        self._state_version = 0
        self._ship_retain = ship_retain
        self._shipper: Optional[JournalShipper] = None
        self.follower: Optional[FollowerEngine] = None
        self._client: Optional[ReplicationClient] = None
        self._pending_invalid: List[int] = []  # guarded-by: _write_lock
        if data_dir is not None and os.path.exists(
            persist.state_path(data_dir)
        ):
            self._restore(persist.load_state(data_dir))
        if replicate:
            self._shipper = JournalShipper(
                self._journaled, retain=ship_retain
            )
        if replica_of is not None:
            self.follower = FollowerEngine(journaled=self._journaled)
            self._client = ReplicationClient(
                self,
                replica_of,
                primary_api_key or "",
                follower_id=replica_id,
                poll_interval_s=replica_poll_s,
            )
            # Bootstrap synchronously: a replica that cannot reach its
            # primary should fail construction, not serve emptiness.
            self._client.fetch_snapshot()
            self._client.start()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _restore(self, state: dict) -> None:
        """Rebuild tenants and cubes from the ``hub_state.json``
        sidecar, adopting the blocks already in the arena file."""
        self._restoring = True
        try:
            for tenant_record in state["tenants"]:
                self.add_tenant(
                    tenant_record["name"],
                    api_key=tenant_record["api_key"],
                    max_inflight=tenant_record["max_inflight"],
                    num_workers=tenant_record["num_workers"],
                    default_deadline_s=tenant_record["default_deadline_s"],
                )
                for cube_record in tenant_record["cubes"]:
                    cube_state = self.add_cube(
                        tenant_record["name"],
                        cube_record["name"],
                        [
                            persist.dimension_from_state(record)
                            for record in cube_record["dimensions"]
                        ],
                    )
                    cube_state.cube.adopt(
                        {
                            persist.key_from_state(key): block_id
                            for key, block_id in cube_record["directory"]
                        }
                    )
        finally:
            self._restoring = False

    def _persist(self) -> None:
        """Mirror the logical state to disk (no-op without a data dir,
        and during :meth:`_restore`, which only replays it)."""
        if self._data_dir is None or self._restoring:
            return
        # lint: protocol-exempt=REPRO-P003 (wrapper: call sites carry the flush+sync obligation)
        persist.save_state(self, self._data_dir)

    # ------------------------------------------------------------------
    # replication: primary side
    # ------------------------------------------------------------------

    @property
    def role(self) -> str:
        """``"primary"``, ``"replica"`` or ``"promoting"``."""
        return self._role

    @property
    def shipper(self) -> Optional[JournalShipper]:
        return self._shipper

    @property
    def replication_client(self) -> Optional[ReplicationClient]:
        return self._client

    @property
    def state_version(self) -> int:
        """Monotone counter over logical-state changes (tenants, cube
        schemas, tile directories).  Followers compare it per poll and
        refetch ``/replica/state`` only when it moved."""
        return self._state_version

    @property
    def journaled(self) -> JournaledDevice:
        return self._journaled

    def snapshot_payload(self) -> dict:
        """Full-arena snapshot for follower bootstrap, taken under the
        write lock so the image is a committed prefix: blocks, the seq
        they correspond to, and the logical state."""
        import base64

        with self._write_lock:
            # Dirty pool frames hold bytes the arena does not; flush so
            # the image *is* the committed state.  (Primary-only path:
            # a flush group-commits through the journal and ships like
            # any other group — followers skip it as a duplicate once
            # the snapshot seq covers it.)
            self._pool.flush()
            blocks = self._journaled.dump_blocks()  # lint: uncounted (bulk snapshot export, not per-block I/O)
            last_seq = self._journaled.journal.next_seq - 1
            state = persist.hub_to_state(self)
            return {
                "blocks": base64.b64encode(
                    np.ascontiguousarray(blocks, dtype=np.float64).tobytes()
                ).decode("ascii"),
                "num_blocks": int(blocks.shape[0]),
                "block_slots": int(self._block_slots),
                "last_seq": int(last_seq),
                "state": state,
                "state_version": int(self._state_version),
            }

    # ------------------------------------------------------------------
    # replication: replica side (driven by ReplicationClient)
    # ------------------------------------------------------------------

    def _install_snapshot(
        self, blocks: np.ndarray, last_seq: int, state: dict
    ) -> None:
        """Adopt a primary snapshot wholesale (bootstrap or gap
        resync)."""
        assert self.follower is not None
        if blocks.size and blocks.shape[1] != self._block_slots:
            raise ValueError(
                f"primary block_slots {blocks.shape[1]} != replica "
                f"block_slots {self._block_slots}; start the replica "
                f"with matching geometry"
            )
        with self._write_lock:
            with self._pool.io_lock:
                # may-acquire: TraceStore._lock, Tracer._orphan_lock
                self.follower.install_snapshot(blocks, last_seq)
            self._apply_state_locked(state)
            stale = list(range(self._journaled.num_blocks))
            self._pending_invalid = self._pool.invalidate(
                self._pending_invalid + stale
            )

    def _replica_apply(self, data: bytes) -> None:
        """Feed shipped bytes to the follower and invalidate the pool
        frames the replay rewrote.  Applies run under the pool's I/O
        lock so a concurrent query miss cannot observe a half-applied
        group; stale-but-resident frames are then dropped (pinned ones
        retry next round via ``_pending_invalid``)."""
        assert self.follower is not None
        with self._write_lock:
            with self._pool.io_lock:
                # may-acquire: TraceStore._lock, Tracer._orphan_lock
                touched = self.follower.feed(data)
            if touched or self._pending_invalid:
                self._pending_invalid = self._pool.invalidate(
                    self._pending_invalid + touched
                )

    def _apply_state(self, state: dict, version: int) -> None:
        """Refresh tenant/cube provisioning from the primary's logical
        state (new tenants, new cubes, grown tile directories)."""
        with self._write_lock:
            self._apply_state_locked(state)
            self._state_version = version

    def _apply_state_locked(self, state: dict) -> None:
        # Callers hold _write_lock.
        self._restoring = True  # suppress _persist / version bumps
        try:
            for tenant_record in state["tenants"]:
                if tenant_record["name"] not in self._tenants:
                    self.add_tenant(
                        tenant_record["name"],
                        api_key=tenant_record["api_key"],
                        max_inflight=tenant_record["max_inflight"],
                        num_workers=tenant_record["num_workers"],
                        default_deadline_s=tenant_record[
                            "default_deadline_s"
                        ],
                    )
                tenant = self._tenants[tenant_record["name"]]
                for cube_record in tenant_record["cubes"]:
                    directory = {
                        persist.key_from_state(key): block_id
                        for key, block_id in cube_record["directory"]
                    }
                    if cube_record["name"] not in tenant.cubes:
                        cube_state = self._add_cube_impl(
                            tenant_record["name"],
                            cube_record["name"],
                            [
                                persist.dimension_from_state(record)
                                for record in cube_record["dimensions"]
                            ],
                            None,
                            None,
                        )
                        cube_state.cube.adopt(directory)
                    else:
                        cube_state = tenant.cubes[cube_record["name"]]
                        cube_state.cube.store.tile_store.restore_directory(
                            directory
                        )
        finally:
            self._restoring = False

    def replication_state(self) -> dict:
        """Role, lag and stream counters — the ``/healthz`` replication
        block and the :class:`FailoverController`'s catch-up ordering.

        The staleness bound on a replica is ``lag_groups``: the number
        of committed groups the primary has acknowledged that this
        follower has not yet applied (``primary_next_seq - 1 -
        applied_seq`` as of the last successful poll).  A reader at
        ``applied_seq = s`` sees exactly the primary's state after
        group ``s`` — bit-identical, never interleaved — so lag is a
        whole-group delta, not a byte-level approximation.
        """
        out: Dict[str, object] = {
            "role": self._role,
            "state_version": self._state_version,
        }
        if self._shipper is not None:
            out["shipper"] = self._shipper.snapshot()
        if self.follower is not None:
            follower_state = self.follower.snapshot()
            out["follower"] = follower_state
            out["applied_seq"] = follower_state["applied_seq"]
            if self._client is not None:
                client_state = self._client.snapshot()
                out["client"] = client_state
                out["lag_groups"] = max(
                    0,
                    int(client_state["primary_next_seq"])
                    - 1
                    - int(follower_state["applied_seq"]),
                )
        return out

    def promote(self) -> dict:
        """Promote this replica to primary.

        Stops the poller *before* taking the write lock (the poll
        thread's apply path acquires it), finalizes the follower —
        discarding any torn tail the dead primary shipped, replaying
        anything ingested-but-unapplied, full checksum scan — then
        starts shipping and re-enables writes.  Idempotent on a
        primary.  Writes arriving during the window get 503 +
        ``Retry-After`` via :class:`ReplicaReadOnlyError`.
        """
        if self._role == "primary":
            return {"role": self._role, "promoted": False}
        assert self.follower is not None
        self._role = "promoting"
        if self._client is not None:
            self._client.stop()
        with self._write_lock:
            report = self.follower.finalize()
            if not report.clean:
                self._role = "replica"
                raise RuntimeError(
                    f"promotion aborted: follower arena failed its "
                    f"checksum scan (corrupt blocks "
                    f"{report.corrupt_blocks}, discarded "
                    f"{report.discarded_bytes} torn bytes)"
                )
            # Every resident frame may predate the final replay; drop
            # them all (no write-back) and let queries re-fault.
            self._pending_invalid = self._pool.invalidate(
                self._pending_invalid
                + list(range(self._journaled.num_blocks))
            )
            if self._shipper is None:
                self._shipper = JournalShipper(
                    self._journaled, retain=self._ship_retain
                )
            for tenant in self._tenants.values():
                for cube_state in tenant.cubes.values():
                    cube_state.engine.read_only = False
            self._role = "primary"
        self._metrics.counter("replica_promotions").inc()
        return {
            "role": self._role,
            "promoted": True,
            "applied_seq": int(self.follower.snapshot()["applied_seq"]),
            "replayed_groups": report.replayed_groups,
            "discarded_bytes": report.discarded_bytes,
        }

    # ------------------------------------------------------------------
    # shared infrastructure
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def pool(self) -> ShardedBufferPool:
        return self._pool

    @property
    def stats(self) -> IOStats:
        """The shared arena's I/O counters."""
        return self._stats

    @property
    def admin_key(self) -> str:
        """Key unlocking the unfiltered ``/debug/*`` views."""
        return self._admin_key

    @property
    def flight_recorder(self) -> Optional[FlightRecorder]:
        return self._flightrec

    @property
    def request_log(self) -> Optional[RequestLog]:
        return self._reqlog

    @property
    def heat(self) -> Optional[HeatRecorder]:
        return self._heat

    def edge_for(self, ndim: int) -> int:
        """The tile edge a ``ndim``-dimensional cube must use so its
        tiles fill exactly one shared block."""
        edge = round(self._block_slots ** (1.0 / ndim))
        for candidate in (edge - 1, edge, edge + 1):
            if candidate >= 2 and candidate**ndim == self._block_slots:
                return candidate
        raise SchemaError(
            f"no integral block edge: {self._block_slots} slots do not "
            f"tile a {ndim}-dimensional cube"
        )

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        api_key: Optional[str] = None,
        max_inflight: Optional[int] = None,
        num_workers: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
    ) -> Tenant:
        """Register a tenant; generates an API key when none is given."""
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already exists")
        if api_key is None:
            api_key = secrets.token_hex(16)
        if api_key in self._api_keys:
            raise ValueError("API key already in use")
        tenant = Tenant(
            name,
            api_key,
            max_inflight=(
                max_inflight
                if max_inflight is not None
                else self._max_inflight
            ),
            num_workers=(
                num_workers
                if num_workers is not None
                else self._num_workers
            ),
            default_deadline_s=(
                default_deadline_s
                if default_deadline_s is not None
                else self._default_deadline_s
            ),
        )
        self._tenants[name] = tenant
        self._api_keys[api_key] = name
        self._bump_state_version()
        # lint: protocol-exempt=REPRO-P003 (logical-only mutation: a new tenant writes no arena bytes)
        self._persist()
        return tenant

    def _bump_state_version(self) -> None:
        """Advance the follower-visible state version — skipped while
        replaying persisted or primary-shipped state (the version then
        tracks the source's, not ours)."""
        if not self._restoring:
            self._state_version += 1

    def add_cube(
        self,
        tenant_name: str,
        cube_name: str,
        dimensions: Sequence[Dimension],
        data=None,
        chunk_shape=None,
    ) -> CubeState:
        """Create and (optionally) bulk-load one tenant cube.

        The cube lives on the shared arena and its engine serves
        through the shared pool with tenant-labeled metrics.
        """
        if data is not None:
            with self._write_lock:
                return self._add_cube_impl(
                    tenant_name, cube_name, dimensions, data, chunk_shape
                )
        return self._add_cube_impl(
            tenant_name, cube_name, dimensions, None, None
        )

    def _add_cube_impl(
        self,
        tenant_name: str,
        cube_name: str,
        dimensions: Sequence[Dimension],
        data,
        chunk_shape,
    ) -> CubeState:
        # Never acquires _write_lock itself: replica state application
        # calls this while already holding it (add_cube wraps the
        # bulk-load path in the lock for external callers).
        tenant = self.tenant(tenant_name)
        if cube_name in tenant.cubes:
            raise ValueError(
                f"tenant {tenant_name!r} already has cube {cube_name!r}"
            )
        cube = WaveletCube(
            list(dimensions),
            block_edge=self.edge_for(len(dimensions)),
            pool_blocks=max(8, self._pool.capacity // 2),
            device=self._journaled,
        )
        if data is not None:
            cube.load(np.asarray(data, dtype=np.float64), chunk_shape)
            cube.store.flush()
            if self._data_dir is not None:
                # the sidecar written below references the bulk-loaded
                # blocks; make them durable before it can name them
                self._pool.flush()
                self._raw.sync()
        breaker = (
            CircuitBreaker(failure_threshold=self._breaker_threshold)
            if self._breaker_threshold is not None
            else None
        )
        # Under injected storage faults a read can fail transiently;
        # replicas additionally race replay against a query's stale
        # summary (heals on retry).  Both get a bounded retry policy.
        retry_policy = (
            RetryPolicy(
                max_attempts=4, base_delay_s=0.0002, seed=self._fault_seed
            )
            if self._fault_rate > 0.0 or self._role != "primary"
            else None
        )
        engine = QueryEngine(
            cube.store,
            num_workers=tenant.num_workers,
            queue_depth=self._queue_depth,
            default_timeout=tenant.default_deadline_s,
            metrics=self._metrics,
            breaker=breaker,
            retry_policy=retry_policy,
            degraded_reads=True,
            pool=self._pool,
            metric_labels={"tenant": tenant_name, "cube": cube_name},
            max_inflight=tenant.max_inflight,
            degrade_on_deadline=True,
            read_only=self._role != "primary",
        )
        state = CubeState(cube_name, tenant_name, cube, engine)
        tenant.cubes[cube_name] = state
        self._bump_state_version()
        # lint: protocol-exempt=REPRO-P003 (schema-only registration writes no arena bytes; the bulk-load branch flushes and syncs above)
        self._persist()
        return state

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def tenant(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(
                f"unknown tenant {name!r}; have {sorted(self._tenants)}"
            )
        return tenant

    def resolve_key(self, api_key: Optional[str]) -> Optional[Tenant]:
        """The tenant owning ``api_key`` (``None`` when unknown)."""
        if not api_key:
            return None
        name = self._api_keys.get(api_key)
        return self._tenants.get(name) if name is not None else None

    def cube(self, tenant_name: str, cube_name: str) -> CubeState:
        tenant = self.tenant(tenant_name)
        state = tenant.cubes.get(cube_name)
        if state is None:
            raise KeyError(
                f"tenant {tenant_name!r} has no cube {cube_name!r}; "
                f"have {sorted(tenant.cubes)}"
            )
        return state

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(
        self, tenant_name: str, cube_name: str, deltas, corner: dict
    ) -> dict:
        """Apply one SHIFT-SPLIT update batch to a tenant cube.

        All updates across all tenants serialise behind one lock:
        update batches allocate blocks on the shared arena and mutate
        the cube's tile directory, neither of which is safe under
        concurrent writers.  Queries keep flowing — they never
        allocate.  Returns the I/O delta of the batch.

        With a data dir, a batch is made durable before this method
        returns: the store's dirty frames were flushed through the
        journal by ``cube.update``, the arena is msync'd, and the state
        sidecar is atomically rewritten.  An *acknowledged* batch
        therefore survives process death and power loss; a crash while
        a batch is still in flight may leave it partially applied (the
        write-ahead journal is in-memory and cannot be replayed across
        process death) — the caller that never got an answer must treat
        the batch as not applied-exactly-once.
        """
        if self._role != "primary":
            raise ReplicaReadOnlyError(self._role)
        state = self.cube(tenant_name, cube_name)
        deltas = np.asarray(deltas, dtype=np.float64)
        with self._write_lock:
            before = self._stats.snapshot()
            blocks_before = self._journaled.num_blocks
            with heat_context(tenant_name, "update"):
                state.cube.update(deltas, **corner)
            if self._journaled.num_blocks != blocks_before:
                # New blocks mean new tile-directory entries; followers
                # must refresh the logical state to route queries to
                # the replicated blocks.
                self._bump_state_version()
            if self._data_dir is not None:
                # cube.update already flushed the store's dirty frames
                # through the journal into the arena; flush the shared
                # pool too (queries keep it clean, but cheap and safe)
                # and msync the arena so the batch is durable *before*
                # it is acknowledged and before the sidecar below can
                # reference blocks the file does not yet guarantee.
                self._pool.flush()
                self._raw.sync()
                # An update can allocate blocks for untouched tiles, so
                # the persisted directory must follow every durable
                # batch (and must describe only synced bytes — hence
                # inside the data-dir branch, after flush + sync).
                self._persist()
            delta = self._stats.delta_since(before)
        self._metrics.counter(
            "updates_applied",
            {"tenant": tenant_name, "cube": cube_name},
        ).inc()
        return {
            "block_reads": delta.block_reads,
            "block_writes": delta.block_writes,
            "journal_writes": delta.journal_writes,
        }

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness payload: breaker / journal / queue state.

        ``status`` is ``"ok"``, ``"degraded"`` (any breaker not
        closed) or ``"shedding"`` (any admission queue at capacity —
        the load-shedding signal the satellite HWM gauge feeds).
        """
        status = "ok"
        severity = {"ok": 0, "degraded": 1, "shedding": 2}
        tenants: Dict[str, dict] = {}
        for name in self.tenants():
            tenant = self._tenants[name]
            cubes: Dict[str, dict] = {}
            tenant_status = "ok"
            tenant_hwm = 0
            for cube_name, state in sorted(tenant.cubes.items()):
                engine = state.engine
                entry = {
                    "queue_depth": engine.queue_depth,
                    "queue_hwm": engine.queue_hwm,
                    "queue_capacity": engine.queue_capacity,
                    "max_inflight": engine.max_inflight,
                }
                tenant_hwm = max(tenant_hwm, engine.queue_hwm)
                if engine.breaker is not None:
                    entry["breaker"] = engine.breaker.state
                    if engine.breaker.state != "closed":
                        if severity["degraded"] > severity[tenant_status]:
                            tenant_status = "degraded"
                if engine.queue_depth >= engine.queue_capacity:
                    tenant_status = "shedding"
                cubes[cube_name] = entry
            # A degraded tenant must be distinguishable from a degraded
            # hub: the rollup marks *which* tenant is unhealthy, and
            # the hub status is the worst tenant's.
            if severity[tenant_status] > severity[status]:
                status = tenant_status
            tenants[name] = {
                "status": tenant_status,
                "queue_hwm": tenant_hwm,
                "cubes": cubes,
            }
        return {
            "status": status,
            "role": self._role,
            "tenants": tenants,
            "journal": {"log_bytes": self._journaled.journal.log_bytes},
            "pool": {
                "capacity": self._pool.capacity,
                "resident": self._pool.resident,
                "dirty": self._pool.dirty,
            },
            "replication": self.replication_state(),
        }

    def prometheus(self) -> str:
        """The shared registry in Prometheus text format.

        Also publishes the mmap arena's internals (growths, mapped
        bytes, msync work, resize-gate writer waits) as gauges and
        appends the per-``(tenant, class)`` tile-heat counters."""
        for tenant in self._tenants.values():
            for state in tenant.cubes.values():
                state.engine.refresh_gauges()
        telemetry = getattr(self._raw, "telemetry", None)
        if callable(telemetry):
            arena = telemetry()
            gauge = self._metrics.gauge
            gauge("arena_growths").set(arena["growths"])
            gauge("arena_capacity_blocks").set(arena["capacity_blocks"])
            gauge("arena_allocated_blocks").set(arena["allocated_blocks"])
            gauge("arena_mapped_bytes").set(arena["mapped_bytes"])
            gauge("arena_msyncs").set(arena["msyncs"])
            gauge("arena_msync_seconds").set(arena["msync_seconds"])
            gauge("arena_resize_wait_s").set(arena["resize_wait_s"])
            gauge("arena_resize_exclusive_acquires").set(
                arena["resize_exclusive_acquires"]
            )
        gauge = self._metrics.gauge
        gauge("replica_role").set(
            {"primary": 0, "replica": 1, "promoting": 2}[self._role]
        )
        gauge("replication_state_version").set(self._state_version)
        if self._shipper is not None:
            ship = self._shipper.snapshot()
            gauge("replication_shipped_groups").set(ship["groups_shipped"])
            gauge("replication_shipped_bytes").set(ship["bytes_shipped"])
            gauge("replication_last_seq").set(ship["last_seq"])
        if self.follower is not None:
            replication = self.replication_state()
            gauge("replica_applied_seq").set(replication["applied_seq"])
            gauge("replica_lag_groups").set(
                replication.get("lag_groups", 0)
            )
            client_state = replication.get("client")
            if isinstance(client_state, dict):
                gauge("replica_polls").set(client_state["polls"])
                gauge("replica_poll_errors").set(
                    client_state["poll_errors"]
                )
                gauge("replica_gaps_resynced").set(
                    client_state["gaps_resynced"]
                )
        text = to_prometheus(self._metrics)
        if self._heat is not None:
            text += heat_to_prometheus(self._heat.aggregates())
        return text

    # ------------------------------------------------------------------
    # debug payloads (served by /debug/* on the app)
    # ------------------------------------------------------------------

    def debug_queries(self, tenant: Optional[str] = None) -> dict:
        """Flight-recorder snapshot plus the most recent request-log
        records, optionally filtered to one tenant."""
        payload: dict = {
            "flight": (
                self._flightrec.snapshot(tenant=tenant)
                if self._flightrec is not None
                else None
            ),
        }
        if self._reqlog is not None:
            payload["recent"] = self._reqlog.records(
                tenant=tenant, limit=64
            )
            payload["reqlog_dropped"] = self._reqlog.dropped
        else:
            payload["recent"] = []
            payload["reqlog_dropped"] = 0
        return payload

    def debug_trace(self) -> dict:
        """The live trace (if a tracer is installed): span count, drop
        count, the lossless I/O receipt and a Chrome-trace export."""
        tracer = get_tracer()
        if tracer is NULL_TRACER:
            return {"enabled": False, "spans": 0, "dropped": 0}
        spans = tracer.spans()
        orphan = dict(tracer.orphan_io)
        dropped = getattr(
            getattr(tracer, "store", None), "dropped", 0
        )
        return {
            "enabled": True,
            "spans": len(spans),
            "dropped": dropped,
            "io_receipt": io_receipt(spans, orphan_io=orphan),
            "chrome_trace": to_chrome_trace(
                spans, orphan_io=orphan, dropped=dropped
            ),
        }

    def debug_heat(self, tenant: Optional[str] = None) -> dict:
        """Tile-heat map: per-label aggregates plus the hottest tiles
        (the JSON form ROADMAP item 5's tiling feedback consumes)."""
        if self._heat is None:
            return {"enabled": False}
        payload = self._heat.snapshot(tenant=tenant, top=64)
        payload["enabled"] = True
        payload["aggregates"] = self._heat.aggregates(tenant=tenant)
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every engine (drain + flush).  Idempotent.

        With a data dir the dirty pool frames are flushed through the
        journal, the arena file is synced and closed, and the state
        sidecar is rewritten — the directory is then safe to reopen
        from another process.
        """
        if self._closed:
            return
        self._closed = True
        if self._client is not None:
            self._client.stop()
        if self._shipper is not None:
            self._shipper.detach_journal()
        if self._heat is not None and get_heat() is self._heat:
            set_heat(self._heat_previous)
        for tenant in self._tenants.values():
            for state in tenant.cubes.values():
                state.engine.close()
        if self._data_dir is not None:
            self._pool.flush()
            # sync before persisting: the sidecar must describe bytes
            # the arena file already guarantees (persisting first was
            # a real ordering bug REPRO-P003 caught)
            self._raw.sync()
            self._persist()
            self._raw.close()

    def __enter__(self) -> "ServingHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
