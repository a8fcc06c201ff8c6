"""Concurrent query engine: workers, admission control, deadlines.

:class:`QueryEngine` turns a :class:`~repro.storage.tiled.TiledStandardStore`
into a servable endpoint:

* a fixed **worker thread pool** executes queries against the store
  through a :class:`~repro.service.pool.ShardedBufferPool` (installed
  into the store on construction, replacing its single-threaded pool);
* a **bounded admission queue** applies backpressure — beyond
  ``queue_depth`` waiting queries, :meth:`submit` raises
  :class:`AdmissionError` instead of growing without bound;
* every query carries an optional **deadline**; a query whose deadline
  has passed by the time a worker picks it up is answered with a
  timeout result, never silently executed late;
* :meth:`execute_batch` routes a batch through the
  :mod:`~repro.service.planner`: unique tiles are prefetched once (in
  block-id order, pinned for the duration of the batch), then all
  queries run against the warm shared pool;
* :meth:`close` drains in-flight work, stops the workers and flushes
  every dirty block back to the device.

Latency, admission and I/O observations land in a
:class:`~repro.service.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from queue import Empty, Full, Queue
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.fault.breaker import CircuitBreaker
from repro.fault.retry import Retrier, RetryPolicy
from repro.obs.heat import get_heat, heat_context
from repro.obs.tracer import get_tracer
from repro.service.metrics import MetricsRegistry
from repro.service.planner import BatchPlan, plan_batch
from repro.service.pool import ShardedBufferPool
from repro.service.queries import (
    DegradedValue,
    Query,
    execute_query,
    execute_query_degraded,
)

__all__ = [
    "AdmissionError",
    "EngineClosedError",
    "QuotaError",
    "QueryResult",
    "Submission",
    "BatchResult",
    "QueryEngine",
]

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_DEGRADED = "degraded"


class AdmissionError(RuntimeError):
    """Raised when the admission queue is full (backpressure)."""


class QuotaError(AdmissionError):
    """Raised when the engine's in-flight quota is exhausted.

    Distinguished from a full queue so the serving layer can answer a
    quota-throttled tenant with HTTP 429 while a globally overloaded
    queue still reads as backpressure."""


class EngineClosedError(AdmissionError):
    """Raised on submission to an engine that has been closed."""


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query execution.

    ``error_bound`` is set only for :data:`STATUS_DEGRADED` results:
    the value was computed with one or more unreadable blocks
    zero-filled and is within ``error_bound`` (absolute) of the true
    answer.  ``attempts`` counts executions including retries.
    """

    status: str
    value: Any = None
    error: Optional[str] = None
    latency_s: float = 0.0
    error_bound: Optional[float] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def degraded(self) -> bool:
        return self.status == STATUS_DEGRADED


class Submission:
    """Handle for an admitted query (a minimal future).

    Carries its admission timestamp (for queue-wait accounting) and,
    when tracing is enabled, the span that was open at submission time
    — the worker executing the query parents its ``query`` span there,
    so a batch's queries nest under the batch even though they run on
    other threads.
    """

    __slots__ = (
        "query",
        "deadline",
        "submitted_s",
        "trace_parent",
        "_event",
        "_result",
    )

    def __init__(self, query: Query, deadline: Optional[float]) -> None:
        self.query = query
        self.deadline = deadline
        self.submitted_s = time.perf_counter()
        self.trace_parent = get_tracer().current_span()
        self._event = threading.Event()
        self._result: Optional[QueryResult] = None

    def _complete(self, result: QueryResult) -> None:
        self._result = result
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until the query completes; raises :class:`TimeoutError`
        if it has not completed within ``timeout`` seconds."""
        if not self._event.wait(timeout):
            raise TimeoutError("query has not completed yet")
        assert self._result is not None
        return self._result


@dataclass(frozen=True)
class BatchResult:
    """Results of a planned batch plus its plan and I/O accounting."""

    results: Tuple[QueryResult, ...]
    plan: BatchPlan
    block_reads: int
    wall_s: float

    @property
    def blocks_per_query(self) -> float:
        if not self.results:
            return 0.0
        return self.block_reads / len(self.results)


def _degraded_result(
    outcome: Any, error: str, attempts: int = 1, latency_s: float = 0.0
) -> QueryResult:
    """The :class:`QueryResult` of an :func:`execute_query_degraded`
    outcome: ``ok`` when nothing was missing, otherwise ``degraded``
    with ``error`` and the outcome's absolute ``error_bound``."""
    if isinstance(outcome, DegradedValue):
        return QueryResult(
            status=STATUS_DEGRADED,
            value=outcome.value,
            error=error,
            latency_s=latency_s,
            error_bound=outcome.error_bound,
            attempts=attempts,
        )
    return QueryResult(
        status=STATUS_OK,
        value=outcome,
        latency_s=latency_s,
        attempts=attempts,
    )


class QueryEngine:
    """Thread-pooled query service over one standard-form tiled store.

    Parameters
    ----------
    store:
        A :class:`TiledStandardStore` (anything exposing ``tiling``,
        ``tile_store``, ``stats`` and the region/point read methods).
    num_workers:
        Worker threads executing queries.
    queue_depth:
        Admission-queue bound; :meth:`submit` rejects beyond it.
    num_shards / pool_capacity:
        Sharded-pool geometry; capacity defaults to the store's
        previous pool capacity.
    default_timeout:
        Deadline (seconds) applied to queries submitted without one;
        ``None`` means no deadline.
    retry_policy:
        A :class:`~repro.fault.retry.RetryPolicy`; when set, transient
        ``IOError``\\ s during query execution and batch prefetch are
        retried with capped exponential backoff and jitter.  ``None``
        (the default) keeps the seed behaviour: first failure wins.
    breaker:
        A :class:`~repro.fault.breaker.CircuitBreaker`; when set,
        consecutive device failures trip it open and subsequent queries
        are answered immediately (degraded or shed) instead of queueing
        against a dead device.
    degraded_reads:
        When ``True``, a query whose retries are exhausted is re-run
        with unreadable blocks zero-filled, answering
        :data:`STATUS_DEGRADED` with an absolute ``error_bound``
        instead of :data:`STATUS_ERROR`.
    pool:
        An existing :class:`ShardedBufferPool` to serve through
        instead of building a private one — the multi-tenant serving
        layer hands every tenant engine the same pool (one shared
        memory budget over one shared device).  ``num_shards`` and
        ``pool_capacity`` are ignored when given.
    metric_labels:
        Labels stamped onto every counter/gauge/histogram series this
        engine records (e.g. ``{"tenant": "acme"}``), so engines
        sharing one :class:`MetricsRegistry` stay distinguishable.
    max_inflight:
        Admission quota: maximum queries admitted but not yet
        completed (queued + executing), across both :meth:`submit`
        and :meth:`execute_batch`.  Beyond it submissions raise
        :class:`QuotaError`.  ``None`` (default) means unbounded —
        the queue depth alone applies.
    degrade_on_deadline:
        When ``True``, a query whose deadline expired in the queue is
        answered from resident blocks only (non-resident blocks
        zero-filled, priced into ``error_bound`` from the device's
        block summaries) instead of a bare timeout.
    """

    def __init__(
        self,
        store,
        *,
        num_workers: int = 4,
        queue_depth: int = 64,
        num_shards: int = 4,
        pool_capacity: Optional[int] = None,
        default_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        degraded_reads: bool = False,
        pool: Optional[ShardedBufferPool] = None,
        metric_labels: Optional[Mapping[str, object]] = None,
        max_inflight: Optional[int] = None,
        degrade_on_deadline: bool = False,
        read_only: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._store = store
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._labels = dict(metric_labels) if metric_labels else None
        self._default_timeout = default_timeout
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._degraded_reads = degraded_reads
        self._degrade_on_deadline = degrade_on_deadline
        self._read_only = read_only
        if pool is not None:
            self._pool = pool
        else:
            capacity = (
                pool_capacity
                if pool_capacity is not None
                else store.tile_store.pool.capacity
            )
            self._pool = ShardedBufferPool(
                store.tile_store.device, capacity, num_shards=num_shards
            )
        store.tile_store.set_pool(self._pool)
        self._queue: "Queue[Optional[Submission]]" = Queue(maxsize=queue_depth)
        self._max_inflight = max_inflight
        self._inflight = 0  # guarded-by: _inflight_lock
        self._queue_hwm = 0  # guarded-by: _inflight_lock
        self._inflight_lock = threading.Lock()
        self._closed = False  # guarded-by: _close_lock
        self._close_lock = threading.Lock()
        self._drained = threading.Event()
        self._batch_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-query-{i}", daemon=True
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # labeled metric accessors
    # ------------------------------------------------------------------

    def _counter(self, name: str):
        return self._metrics.counter(name, self._labels)

    def _gauge(self, name: str):
        return self._metrics.gauge(name, self._labels)

    def _histogram(self, name: str):
        return self._metrics.histogram(name, self._labels)

    def _heat_scope(self, query_class: str):
        """Tile-heat attribution scope for work done on this thread.

        Labels every :mod:`repro.obs.heat` touch with this engine's
        tenant (from ``metric_labels``) and the given query class.
        Contextvars do not cross thread boundaries, so worker threads
        and the batch-prefetch path each open their own scope.  A
        no-op when no heat recorder is installed.
        """
        if get_heat() is None:
            return nullcontext()
        tenant = str(self._labels.get("tenant", "")) if self._labels else ""
        return heat_context(tenant, query_class)

    # ------------------------------------------------------------------

    @property
    def store(self):
        return self._store

    @property
    def pool(self) -> ShardedBufferPool:
        return self._pool

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def closed(self) -> bool:
        # lint: allow=lock-discipline (racy bool read; close() drains stragglers that slip past it)
        return self._closed

    @property
    def read_only(self) -> bool:
        """Replica mode: the engine serves queries over blocks that
        replication replay writes beneath the pool, so it must never
        write back — :meth:`close` skips the flush, and promotion
        clears the flag before the first local update."""
        return self._read_only

    @read_only.setter
    def read_only(self, value: bool) -> None:
        self._read_only = bool(value)

    @property
    def queue_capacity(self) -> int:
        return self._queue.maxsize

    @property
    def queue_depth(self) -> int:
        """Current admission-queue occupancy (approximate)."""
        return self._queue.qsize()

    @property
    def queue_hwm(self) -> int:
        """Admission-queue high-water mark since construction."""
        with self._inflight_lock:
            return self._queue_hwm

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self._breaker

    @property
    def max_inflight(self) -> Optional[int]:
        return self._max_inflight

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _deadline_for(self, timeout: Optional[float]) -> Optional[float]:
        if timeout is None:
            timeout = self._default_timeout
        if timeout is None:
            return None
        return time.monotonic() + timeout

    def _reserve_inflight(self, count: int) -> None:
        """Claim ``count`` in-flight slots or raise :class:`QuotaError`."""
        with self._inflight_lock:
            if (
                self._max_inflight is not None
                and self._inflight + count > self._max_inflight
            ):
                available = self._max_inflight - self._inflight
                self._counter("queries_throttled").inc(count)
                raise QuotaError(
                    f"in-flight quota exhausted ({self._inflight} of "
                    f"{self._max_inflight} in flight, {available} free, "
                    f"{count} requested)"
                )
            self._inflight += count

    def _release_inflight(self, count: int = 1) -> None:
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - count)

    def _note_queue_depth(self) -> None:
        """Record the admission-queue high-water mark after an enqueue."""
        depth = self._queue.qsize()
        with self._inflight_lock:
            if depth > self._queue_hwm:
                self._queue_hwm = depth

    def submit(
        self, query: Query, timeout: Optional[float] = None
    ) -> Submission:
        """Admit one query; raises :class:`AdmissionError` when the
        queue is full, :class:`QuotaError` when the in-flight quota is
        exhausted and :class:`EngineClosedError` after :meth:`close`."""
        # lint: allow=lock-discipline (racy fast-path check; close() completes racing submissions)
        if self._closed:
            raise EngineClosedError("engine is closed")
        self._reserve_inflight(1)
        submission = Submission(query, self._deadline_for(timeout))
        try:
            self._queue.put_nowait(submission)
        except Full:
            self._release_inflight(1)
            self._counter("queries_rejected").inc()
            raise AdmissionError(
                f"admission queue is full ({self._queue.maxsize} waiting)"
            ) from None
        self._note_queue_depth()
        self._counter("queries_submitted").inc()
        return submission

    def run(self, query: Query, timeout: Optional[float] = None) -> QueryResult:
        """Submit one query and wait for its result."""
        return self.submit(query, timeout=timeout).result()

    def _enqueue_blocking(self, submission: Submission) -> None:
        """Batch-path admission: wait for space instead of rejecting.

        The caller (:meth:`execute_batch`) has already reserved the
        batch's in-flight slots up front."""
        self._queue.put(submission)
        self._note_queue_depth()
        self._counter("queries_submitted").inc()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            submission = self._queue.get()
            if submission is None:  # shutdown sentinel
                self._queue.task_done()
                return
            error = "query dropped without completion"
            try:
                self._execute(submission)
            except Exception as exc:  # pragma: no cover - defensive
                # _execute already converts query failures to results;
                # anything escaping it is an engine bug.  The worker
                # must survive it and the waiter must still get an
                # answer.
                self._counter("worker_faults").inc()
                error = f"internal worker error: {exc!r}"
            finally:
                if not submission.done():
                    submission._complete(
                        QueryResult(status=STATUS_ERROR, error=error)
                    )
                self._release_inflight(1)
                self._queue.task_done()

    def _execute(self, submission: Submission) -> None:
        wait_s = time.perf_counter() - submission.submitted_s
        self._histogram("admission_wait_s").record(wait_s)
        with self._heat_scope(
            type(submission.query).__name__
        ), get_tracer().span(
            "query",
            parent=submission.trace_parent,
            kind=type(submission.query).__name__,
            admission_wait_s=wait_s,
        ) as span:
            if (
                submission.deadline is not None
                and time.monotonic() >= submission.deadline
            ):
                degraded = self._answer_from_cache(submission.query)
                if degraded is not None:
                    self._counter("queries_deadline_degraded").inc()
                    self._counter("queries_served").inc()
                    if degraded.status == STATUS_DEGRADED:
                        self._counter("queries_degraded").inc()
                    span.set(status=degraded.status)
                    if degraded.error:
                        span.set(error=degraded.error)
                    submission._complete(degraded)
                    return
                self._counter("queries_timed_out").inc()
                span.set(status=STATUS_TIMEOUT)
                submission._complete(
                    QueryResult(
                        status=STATUS_TIMEOUT,
                        error="deadline expired before execution",
                    )
                )
                return
            started = time.perf_counter()
            try:
                result = self._serve(submission.query)
            except Exception as exc:  # queries must never kill a worker
                result = QueryResult(status=STATUS_ERROR, error=str(exc))
            latency = time.perf_counter() - started
            result = QueryResult(
                status=result.status,
                value=result.value,
                error=result.error,
                latency_s=latency,
                error_bound=result.error_bound,
                attempts=result.attempts,
            )
            self._histogram("query_latency_s").record(latency)
            if result.status == STATUS_OK:
                self._counter("queries_served").inc()
            elif result.status == STATUS_DEGRADED:
                self._counter("queries_served").inc()
                self._counter("queries_degraded").inc()
            else:
                self._counter("query_errors").inc()
            span.set(status=result.status)
            if result.error:
                span.set(error=result.error)
            if result.attempts > 1:
                span.set(attempts=result.attempts)
            submission._complete(result)

    def _serve(self, query: Query) -> QueryResult:
        """Execute one query through the resilience ladder.

        Ladder: circuit-breaker admission -> (retried) execution ->
        degraded re-execution.  Returns a :class:`QueryResult` without
        latency (the caller stamps it).
        """
        breaker = self._breaker
        if breaker is not None and not breaker.allow():
            # Device is presumed down: answer without touching it
            # rather than piling retries onto a dead disk.
            self._counter("queries_shed").inc()
            if self._degraded_reads:
                return _degraded_result(
                    execute_query_degraded(self._store, query),
                    "circuit breaker open; unreadable blocks zero-filled",
                )
            return QueryResult(
                status=STATUS_ERROR,
                error="circuit breaker open: device unavailable",
                attempts=0,
            )
        attempts = 1
        retrier = (
            Retrier(self._retry_policy)
            if self._retry_policy is not None
            else None
        )
        try:
            if retrier is not None:
                value = retrier.call(
                    lambda: execute_query(self._store, query)
                )
            else:
                value = execute_query(self._store, query)
        except IOError as exc:
            if retrier is not None and retrier.retries:
                attempts += retrier.retries
                self._counter("io_retries").inc(retrier.retries)
            if breaker is not None:
                breaker.on_failure()
            if self._degraded_reads:
                result = _degraded_result(
                    execute_query_degraded(self._store, query),
                    str(exc),
                    attempts=attempts + 1,
                )
                # The fault was transient and the degraded pass read
                # everything after all: a full-fidelity answer.
                if result.ok and breaker is not None:
                    breaker.on_success()
                return result
            return QueryResult(
                status=STATUS_ERROR, error=str(exc), attempts=attempts
            )
        if retrier is not None and retrier.retries:
            attempts += retrier.retries
            self._counter("io_retries").inc(retrier.retries)
        if breaker is not None:
            breaker.on_success()
        return QueryResult(status=STATUS_OK, value=value, attempts=attempts)

    def _answer_from_cache(self, query: Query) -> Optional[QueryResult]:
        """Deadline-expired fallback: answer from resident blocks only.

        Requires ``degrade_on_deadline``.  The query is re-run in a
        cache-only degraded scope: buffer-pool hits answer normally,
        misses are refused before any device read, refused blocks are
        zero-filled and priced into a sound ``error_bound``.  When
        every block was resident the answer is exact and served ok.
        Returns ``None`` when disabled or when the cache-only pass
        itself fails — the caller falls back to a bare timeout.
        """
        if not self._degrade_on_deadline:
            return None
        started = time.perf_counter()
        try:
            outcome = execute_query_degraded(
                self._store, query, cache_only=True
            )
        except Exception:  # fall back to the plain timeout answer
            return None
        return _degraded_result(
            outcome,
            "deadline expired; non-resident blocks zero-filled",
            latency_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------

    def execute_batch(
        self,
        queries: Sequence[Query],
        timeout: Optional[float] = None,
    ) -> BatchResult:
        """Plan, prefetch and execute a batch of queries.

        The planner dedups block fetches across the batch; every unique
        materialised tile is faulted in exactly once (in block-id
        order) and pinned so concurrent eviction cannot force a
        re-read mid-batch.  Admission is cooperative — the batch waits
        for queue space rather than rejecting its own queries.
        """
        # lint: allow=lock-discipline (racy fast-path check; close() completes racing submissions)
        if self._closed:
            raise EngineClosedError("engine is closed")
        queries = list(queries)
        # The whole batch's quota is reserved up front (all-or-nothing:
        # a tenant cannot half-admit a batch and starve its own tail).
        # Workers release one slot per executed submission; anything
        # never enqueued is released on the failure path below.
        self._reserve_inflight(len(queries))
        enqueued = 0
        tracer = get_tracer()
        started = time.perf_counter()
        before = self._store.stats.snapshot()
        try:
            with tracer.span("batch", queries=len(queries)) as batch_span:
                with tracer.span("batch.plan"):
                    plan = plan_batch(self._store, queries)
                batch_span.set(
                    unique_tiles=plan.num_unique_tiles,
                    tile_refs=plan.total_tile_refs,
                    dedup_ratio=plan.dedup_ratio,
                )
                self._counter("batches_planned").inc()
                self._counter("planned_tile_refs").inc(
                    plan.total_tile_refs
                )
                self._counter("planned_unique_tiles").inc(
                    plan.num_unique_tiles
                )
                with self._batch_lock:  # one prefetch wave at a time
                    with tracer.span("batch.prefetch") as prefetch_span:
                        pinned = self._prefetch(plan)
                        prefetch_span.set(blocks=len(pinned))
                    try:
                        submissions = []
                        for query in queries:
                            submission = Submission(
                                query, self._deadline_for(timeout)
                            )
                            self._enqueue_blocking(submission)
                            enqueued += 1
                            submissions.append(submission)
                        results = tuple(sub.result() for sub in submissions)
                    finally:
                        for block_id in pinned:
                            self._pool.unpin(block_id)
        except BaseException:
            self._release_inflight(len(queries) - enqueued)
            raise
        wall = time.perf_counter() - started
        delta = self._store.stats.delta_since(before)
        self._histogram("batch_wall_s").record(wall)
        if queries:
            self._histogram("blocks_per_query").record(
                delta.block_reads / len(queries)
            )
        return BatchResult(
            results=results,
            plan=plan,
            block_reads=delta.block_reads,
            wall_s=wall,
        )

    def _prefetch(self, plan: BatchPlan) -> List[int]:
        """Fault in and pin every materialised tile of the plan once.

        Never-written tiles have no block (they read as zeros for
        free) and are skipped.  Returns the pinned block ids.
        """
        tile_store = self._store.tile_store
        block_ids = sorted(
            block_id
            for block_id in (
                tile_store.block_of(key) for key in plan.unique_tiles
            )
            if block_id is not None
        )
        pinned: List[int] = []
        with self._heat_scope("prefetch"):
            for block_id in block_ids:
                try:
                    if self._retry_policy is not None:
                        retrier = Retrier(self._retry_policy)
                        retrier.call(
                            lambda b=block_id: self._pool.fetch_and_pin(b)
                        )
                        if retrier.retries:
                            self._counter("io_retries").inc(
                                retrier.retries
                            )
                    else:
                        self._pool.fetch_and_pin(block_id)
                except IOError:
                    # Prefetch is an optimisation: an unreadable block
                    # is skipped here and handled by the per-query
                    # resilience ladder (retry / degrade) when a query
                    # touches it.
                    self._counter("prefetch_skipped").inc()
                    continue
                pinned.append(block_id)
        self._counter("blocks_prefetched").inc(len(pinned))
        return pinned

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain queued work, stop the workers, flush dirty blocks.

        Idempotent and concurrent-safe: exactly one caller performs the
        shutdown; every other (and every later) caller blocks until the
        drain and flush have finished, so "close returned" always means
        "workers stopped, dirty blocks flushed".  Queries already
        admitted are executed (or timed out against their deadlines);
        new submissions are refused with :class:`EngineClosedError`; a
        submission racing the shutdown is completed with a definite
        error result rather than left hanging.
        """
        with self._close_lock:
            if self._closed:
                self._drained.wait()
                return
            self._closed = True
        for __ in self._workers:
            self._queue.put(None)  # sentinels drain after pending work
        for worker in self._workers:
            worker.join()
        # A submit() that passed the closed check concurrently with the
        # flag flip may have enqueued behind the sentinels; its waiter
        # must still get a definite answer.
        while True:
            try:
                straggler = self._queue.get_nowait()
            except Empty:
                break
            if straggler is not None:
                if not straggler.done():
                    straggler._complete(
                        QueryResult(
                            status=STATUS_ERROR, error="engine is closed"
                        )
                    )
                self._release_inflight(1)
            self._queue.task_done()
        if not self._read_only:
            with get_tracer().span("engine.flush"):
                self._pool.flush()
        self._drained.set()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def refresh_gauges(self) -> None:
        """Publish current pool/queue occupancy into the registry's
        gauges (pull-style: refreshed on snapshot rather than on every
        pool operation, which would serialise the hot path)."""
        self._gauge("pool_resident_blocks").set(self._pool.resident)
        self._gauge("pool_dirty_blocks").set(self._pool.dirty)
        self._gauge("pool_pinned_blocks").set(self._pool.pinned)
        self._gauge("admission_queue_depth").set(self._queue.qsize())
        with self._inflight_lock:
            inflight = self._inflight
            queue_hwm = self._queue_hwm
        self._gauge("queries_inflight").set(inflight)
        self._gauge("admission_queue_hwm").set(queue_hwm)
        if self._max_inflight is not None:
            self._gauge("inflight_quota").set(self._max_inflight)
        if self._breaker is not None:
            self._gauge("breaker_state").set(
                self._breaker.state_code
            )

    def snapshot(self) -> dict:
        """Engine metrics + sharded-pool stats in one dict."""
        self.refresh_gauges()
        report = self._metrics.snapshot()
        report["pool"] = self._pool.snapshot()
        if self._breaker is not None:
            report["breaker"] = self._breaker.snapshot()
        device = self._store.tile_store.device
        while device is not None:  # walk wrapper layers to the injector
            fault_counts = getattr(device, "fault_counts", None)
            if fault_counts is not None:
                report["faults"] = fault_counts()
                break
            device = getattr(device, "inner", None)
        device = self._store.tile_store.device
        while device is not None:  # walk to the mmap arena, if any
            telemetry = getattr(device, "telemetry", None)
            if callable(telemetry):
                report["arena"] = telemetry()
                break
            device = getattr(device, "inner", None)
        # Read the series through the labeled accessors: under
        # metric_labels the snapshot keys carry a `{...}` suffix, so a
        # bare-name lookup would silently miss them.
        refs = self._counter("planned_tile_refs").value
        unique = self._counter("planned_unique_tiles").value
        report["planner_dedup_ratio"] = refs / unique if unique else 1.0
        with self._inflight_lock:
            report["admission_queue_hwm"] = self._queue_hwm
            report["queries_inflight"] = self._inflight
        return report
