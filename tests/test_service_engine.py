"""Tests for the concurrent query engine.

Covers the serving acceptance criteria: concurrent execution over one
sharded pool matches sequential ground truth, dirty blocks survive
``close()`` (verified against the device, not the cache), the bounded
admission queue rejects promptly, and expired deadlines produce
timeout errors rather than hangs.
"""

import threading

import numpy as np
import pytest

from repro.service.engine import AdmissionError, QueryEngine
from repro.service.queries import (
    CustomQuery,
    PointQuery,
    RangeSumQuery,
    RegionQuery,
    execute_query,
)
from repro.service.replay import build_store, build_workload, run_naive


def _mixed_workload(shape, seed=3):
    return build_workload(
        shape, points=16, range_sums=8, regions=8, seed=seed
    )


def _values_equal(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.allclose(left, right, atol=1e-9)
    return np.isclose(left, right, atol=1e-9)


class TestConcurrentCorrectness:
    def test_eight_threads_match_sequential_and_flush_survives_close(self):
        store, data = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=5
        )
        queries = _mixed_workload(store.shape)

        engine = QueryEngine(
            store,
            num_workers=8,
            queue_depth=256,
            num_shards=4,
            pool_capacity=16,
        )
        # Dirty the pool through the engine's sharded path: the writes
        # must reach the device by close(), not die in the cache.
        # (write_point stores raw coefficients, so pick detail slots
        # whose value round-trips directly.)
        writes = {(1, 2): 123.5, (30, 17): -7.25, (16, 16): 0.125}
        for position, value in writes.items():
            store.write_point(position, value)

        # Sequential ground truth from a second, untouched engine-free
        # execution path: a fresh store loaded with identical content.
        reference, __ = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=5
        )
        for position, value in writes.items():
            reference.write_point(position, value)
        expected = [execute_query(reference, query) for query in queries]

        results = [None] * len(queries)
        barrier = threading.Barrier(8)

        def client(thread_index):
            barrier.wait()  # all eight threads fire at once
            for i in range(thread_index, len(queries), 8):
                results[i] = engine.run(queries[i])

        threads = [
            threading.Thread(target=client, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.close()

        for expected_value, result in zip(expected, results):
            assert result.ok, result.error
            assert _values_equal(expected_value, result.value)

        # Flush verification against the *device*: locate each written
        # coefficient's block and read it raw, bypassing every cache.
        for position, value in writes.items():
            key, slot = store.tiling.locate(position)
            block_id = store.tile_store.block_of(key)
            assert block_id is not None
            assert store.tile_store.device.read_block(block_id)[slot] == value

    def test_batched_execution_matches_sequential(self):
        store, __ = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=64, seed=6
        )
        queries = _mixed_workload(store.shape, seed=7)
        expected = run_naive(store, queries)["values"]
        store.drop_cache()
        store.stats.reset()
        with QueryEngine(store, num_workers=8, num_shards=4) as engine:
            batch = engine.execute_batch(queries)
        assert batch.plan.dedup_ratio > 1.0
        # Each unique materialised tile was read exactly once.
        assert batch.block_reads == batch.plan.num_unique_tiles
        for expected_value, result in zip(expected, batch.results):
            assert result.ok
            assert _values_equal(expected_value, result.value)


class TestAdmissionControl:
    def test_queue_beyond_capacity_rejects_promptly(self):
        store, __ = build_store(shape=(16, 16), block_edge=4, seed=1)
        release = threading.Event()
        started = threading.Event()

        def blocker(_store):
            started.set()
            release.wait(timeout=10.0)
            return 0.0

        engine = QueryEngine(store, num_workers=1, queue_depth=2)
        try:
            engine.submit(CustomQuery(blocker))
            assert started.wait(timeout=5.0)  # worker is now occupied
            engine.submit(PointQuery((0, 0)))
            engine.submit(PointQuery((1, 1)))  # queue now full
            with pytest.raises(AdmissionError):
                engine.submit(PointQuery((2, 2)))
            assert engine.metrics.counter("queries_rejected").value == 1
        finally:
            release.set()
            engine.close()
        # Admitted queries still completed during the drain.
        assert engine.metrics.counter("queries_served").value == 3

    def test_expired_deadline_returns_timeout_not_hang(self):
        store, __ = build_store(shape=(16, 16), block_edge=4, seed=2)
        release = threading.Event()
        started = threading.Event()

        def blocker(_store):
            started.set()
            release.wait(timeout=10.0)
            return 0.0

        engine = QueryEngine(store, num_workers=1, queue_depth=8)
        try:
            engine.submit(CustomQuery(blocker))
            assert started.wait(timeout=5.0)
            # Deadline expires while the query waits behind the blocker.
            doomed = engine.submit(PointQuery((3, 3)), timeout=0.0)
            release.set()
            result = doomed.result(timeout=5.0)
            assert result.status == "timeout"
            assert result.value is None
            assert "deadline" in result.error
            assert engine.metrics.counter("queries_timed_out").value == 1
        finally:
            release.set()
            engine.close()

    def test_default_timeout_applies(self):
        store, __ = build_store(shape=(16, 16), block_edge=4, seed=2)
        engine = QueryEngine(
            store, num_workers=1, queue_depth=8, default_timeout=0.0
        )
        try:
            result = engine.run(PointQuery((0, 0)))
            assert result.status == "timeout"
        finally:
            engine.close()


class TestLifecycle:
    def test_submit_after_close_refused(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, num_workers=2)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.submit(PointQuery((0, 0)))
        with pytest.raises(RuntimeError):
            engine.execute_batch([PointQuery((0, 0))])

    def test_close_is_idempotent(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, num_workers=2)
        engine.close()
        engine.close()

    def test_close_drains_pending_work(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, num_workers=1, queue_depth=32)
        submissions = [
            engine.submit(PointQuery((i % 16, i % 16))) for i in range(20)
        ]
        engine.close()
        assert all(sub.done() for sub in submissions)
        assert all(sub.result().ok for sub in submissions)

    def test_query_error_is_contained(self):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store, num_workers=2) as engine:
            bad = engine.run(PointQuery((999, 999)))
            good = engine.run(RangeSumQuery((0, 0), (7, 7)))
        assert bad.status == "error"
        assert bad.error
        assert good.ok
        assert engine.metrics.counter("query_errors").value == 1


class TestObservability:
    def test_snapshot_reports_serving_metrics(self):
        store, __ = build_store(shape=(32, 32), block_edge=4)
        with QueryEngine(store, num_workers=4, num_shards=4) as engine:
            engine.execute_batch(_mixed_workload(store.shape, seed=9))
        snap = engine.snapshot()
        counters = snap["counters"]
        assert counters["queries_served"] == 32
        assert counters["batches_planned"] == 1
        assert snap["planner_dedup_ratio"] > 1.0
        assert snap["histograms"]["query_latency_s"]["count"] == 32
        assert snap["pool"]["num_shards"] == 4
        assert snap["pool"]["hits"] > 0

    def test_engine_replaces_store_pool_with_sharded(self):
        from repro.service.pool import ShardedBufferPool

        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(store, num_workers=1, num_shards=2)
        try:
            assert isinstance(store.tile_store.pool, ShardedBufferPool)
            assert store.tile_store.pool is engine.pool
        finally:
            engine.close()


class TestQuotaAndQueueHwm:
    """The per-tenant admission quota and the HWM satellite."""

    def _blocked_engine(self, max_inflight):
        store, __ = build_store(shape=(16, 16), block_edge=4)
        engine = QueryEngine(
            store,
            num_workers=1,
            queue_depth=8,
            max_inflight=max_inflight,
        )
        gate = threading.Event()
        blocker = engine.submit(CustomQuery(lambda s: gate.wait(5)))
        return engine, gate, blocker

    def test_submit_beyond_quota_raises_quota_error(self):
        from repro.service.engine import QuotaError

        engine, gate, blocker = self._blocked_engine(max_inflight=2)
        try:
            second = engine.submit(PointQuery((0, 0)))
            with pytest.raises(QuotaError):
                engine.submit(PointQuery((1, 1)))
            # QuotaError is an AdmissionError: generic handlers keep
            # treating it as backpressure.
            assert issubclass(QuotaError, AdmissionError)
            assert engine.metrics.counter("queries_throttled").value == 1
            gate.set()
            assert blocker.result(5).ok
            assert second.result(5).ok
            # completed work releases the quota
            assert engine.run(PointQuery((2, 2))).ok
        finally:
            gate.set()
            engine.close()

    def test_batch_reserves_quota_upfront(self):
        from repro.service.engine import QuotaError

        store, __ = build_store(shape=(16, 16), block_edge=4)
        with QueryEngine(store, num_workers=2, max_inflight=3) as engine:
            with pytest.raises(QuotaError):
                engine.execute_batch(
                    [PointQuery((i, i)) for i in range(4)]
                )
            # the failed batch must not leak reservations
            batch = engine.execute_batch(
                [PointQuery((i, i)) for i in range(3)]
            )
            assert all(result.ok for result in batch.results)

    def test_snapshot_reports_queue_hwm_and_inflight(self):
        engine, gate, blocker = self._blocked_engine(max_inflight=8)
        try:
            for i in range(3):
                engine.submit(PointQuery((i, i)))
            snap = engine.snapshot()
            assert snap["admission_queue_hwm"] >= 2
            assert snap["queries_inflight"] >= 3
            assert snap["gauges"]["admission_queue_hwm"] >= 2
            gate.set()
            blocker.result(5)
        finally:
            gate.set()
            engine.close()
        snap = engine.snapshot()
        assert snap["queries_inflight"] == 0
        assert snap["admission_queue_hwm"] >= 2  # high-water sticks

    def test_labeled_metrics_and_dedup_ratio(self):
        store, __ = build_store(shape=(32, 32), block_edge=4)
        with QueryEngine(
            store,
            num_workers=2,
            metric_labels={"tenant": "acme"},
        ) as engine:
            engine.execute_batch(_mixed_workload(store.shape, seed=11))
            snap = engine.snapshot()
        assert snap["counters"]['queries_served{tenant="acme"}'] == 32
        # the dedup ratio must find the labeled series, not the bare name
        assert snap["planner_dedup_ratio"] > 1.0


class TestDeadlineDegradedReads:
    """Expired deadlines answer from resident blocks with sound bounds."""

    def _journaled_engine(self):
        from repro.storage.journal import JournaledDevice

        store, data = build_store(
            shape=(32, 32), block_edge=4, pool_capacity=16, seed=13
        )
        store.tile_store.wrap_device(JournaledDevice)
        engine = QueryEngine(
            store,
            num_workers=2,
            pool_capacity=16,
            degrade_on_deadline=True,
        )
        return engine, data

    def test_expired_deadline_cold_cache_degrades_with_bound(self):
        engine, data = self._journaled_engine()
        try:
            result = engine.run(RangeSumQuery((0, 0), (31, 31)), timeout=0.0)
            assert result.status == "degraded"
            assert result.error_bound is not None
            assert 0.0 < result.error_bound < float("inf")
            truth = float(data.sum())
            assert abs(result.value - truth) <= result.error_bound
            assert (
                engine.metrics.counter("queries_deadline_degraded").value
                == 1
            )
        finally:
            engine.close()

    def test_expired_deadline_warm_cache_is_full_fidelity(self):
        engine, data = self._journaled_engine()
        try:
            query = RangeSumQuery((0, 7), (7, 15))
            warm = engine.run(query)  # faults the blocks in
            assert warm.ok
            again = engine.run(query, timeout=0.0)
            # every needed block is resident: the cache-only pass is
            # exact, so the answer is served ok rather than degraded
            assert again.ok
            assert again.value == warm.value
        finally:
            engine.close()
