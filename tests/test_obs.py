"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the tracer itself (nesting, cross-thread attachment, charge
attribution, the null fast path, the bounded ring buffer), the three
exporters, and the two properties the subsystem must guarantee over
the instrumented library:

* **non-interference** — enabling tracing changes no IOStats counter
  and no stored byte (traced and untraced runs are bit-identical);
* **losslessness** — summing every span's attributed I/O plus the
  tracer's orphan bucket reproduces the global IOStats delta exactly.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.plans import plan_cache_stats
from repro.obs import (
    IO_FIELDS,
    NULL_TRACER,
    Tracer,
    TraceStore,
    charge,
    get_tracer,
    io_receipt,
    query_receipts,
    set_tracer,
    to_chrome_trace,
    to_prometheus,
    tracing,
    zero_io,
)
from repro.service.engine import QueryEngine
from repro.service.metrics import MetricsRegistry
from repro.service.queries import PointQuery, RangeSumQuery
from repro.service.replay import replay
from repro.storage.tiled import TiledStandardStore
from repro.transform.chunked import transform_standard_chunked


def _bulk_load():
    """Seeded 2-d bulk load; returns (store, final stats, raw blocks,
    directory) so two runs can be compared bit for bit."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal((32, 32))
    store = TiledStandardStore((32, 32), block_edge=8, pool_capacity=4)
    transform_standard_chunked(store, data, (8, 8))
    store.flush()
    return (
        store,
        store.stats.snapshot(),
        store.tile_store.device.dump_blocks().copy(),
        store.tile_store.directory(),
    )


class TestTracerCore:
    def test_off_by_default(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(more=2)
        NULL_TRACER.charge("block_reads", 5)
        charge("block_reads", 5)  # module hook, tracing off
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.current_span() is None

    def test_nesting_parents_and_attrs(self):
        with tracing() as tracer:
            with tracer.span("outer", label="a") as outer:
                with tracer.span("inner") as inner:
                    inner.set(deep=True)
                    assert tracer.current_span() is inner
                assert tracer.current_span() is outer
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs == {"label": "a"}
        assert spans["inner"].attrs == {"deep": True}
        assert spans["outer"].wall_s >= spans["inner"].wall_s >= 0.0

    def test_tracing_scope_restores_previous(self):
        outer = Tracer()
        set_tracer(outer)
        try:
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is outer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_cross_thread_parent_attachment(self):
        with tracing() as tracer:
            with tracer.span("root") as root:
                def work():
                    # Threads start with an empty span context...
                    assert tracer.current_span() is None
                    with tracer.span("child", parent=root):
                        tracer.charge("block_reads")
                thread = threading.Thread(target=work)
                thread.start()
                thread.join()
        spans = {span.name: span for span in tracer.spans()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["child"].thread_id != spans["root"].thread_id
        assert spans["child"].io["block_reads"] == 1

    def test_charge_attribution_and_orphans(self):
        with tracing() as tracer:
            charge("block_reads", 2)  # no span open -> orphan bucket
            with tracer.span("op") as span:
                charge("block_writes", 3)
                charge("cache_hits")
        assert tracer.orphan_io["block_reads"] == 2
        assert span.io["block_writes"] == 3
        assert span.io["cache_hits"] == 1
        receipt = io_receipt(tracer.spans(), tracer.orphan_io)
        assert receipt["total"]["block_reads"] == 2
        assert receipt["total"]["block_writes"] == 3
        assert receipt["unattributed"]["block_reads"] == 2

    def test_ring_buffer_bounds_memory(self):
        with tracing(max_spans=8) as tracer:
            for index in range(20):
                with tracer.span("op", index=index):
                    pass
        spans = tracer.spans()
        assert len(spans) == 8
        assert tracer.store.dropped == 12
        # Oldest spans were evicted; the newest survive.
        assert [span.attrs["index"] for span in spans] == list(range(12, 20))

    def test_trace_store_validates_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(max_spans=0)

    def test_concurrent_spans_and_charges(self):
        with tracing() as tracer:
            def work(tid):
                for index in range(50):
                    with tracer.span("op", tid=tid, index=index):
                        tracer.charge("block_reads")
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = tracer.spans()
        assert len(spans) == 8 * 50
        assert all(span.io["block_reads"] == 1 for span in spans)
        receipt = io_receipt(spans, tracer.orphan_io)
        assert receipt["total"]["block_reads"] == 400


class TestExporters:
    def _traced(self):
        with tracing() as tracer:
            with tracer.span("parent", tile=(1, 2)):
                with tracer.span("child"):
                    charge("block_reads", 4)
            charge("cache_misses")  # orphan
        return tracer

    def test_chrome_trace_schema(self):
        tracer = self._traced()
        doc = to_chrome_trace(
            tracer.spans(),
            orphan_io=tracer.orphan_io,
            dropped=tracer.store.dropped,
        )
        json.dumps(doc)  # must serialise
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"
        assert {e["name"] for e in slices} == {"parent", "child"}
        for event in slices:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)
        child = next(e for e in slices if e["name"] == "child")
        assert child["args"]["io.block_reads"] == 4
        parent = next(e for e in slices if e["name"] == "parent")
        assert parent["args"]["tile"] == [1, 2]
        assert doc["otherData"]["orphan_io"]["cache_misses"] == 1
        assert doc["otherData"]["dropped_spans"] == 0

    def test_io_receipt_by_name(self):
        tracer = self._traced()
        receipt = io_receipt(tracer.spans(), tracer.orphan_io)
        assert receipt["spans"] == 2
        assert receipt["by_name"]["child"]["io"]["block_reads"] == 4
        assert receipt["by_name"]["parent"]["io"]["block_reads"] == 0
        assert receipt["total"]["block_reads"] == 4
        assert receipt["total"]["cache_misses"] == 1

    def test_query_receipts_cumulative_io(self):
        with tracing() as tracer:
            with tracer.span("query", kind="PointQuery"):
                charge("cache_hits")
                with tracer.span("pool.fetch", block=3):
                    charge("block_reads")
            with tracer.span("query", kind="RangeSumQuery"):
                charge("cache_hits", 2)
        receipts = query_receipts(tracer.spans())
        assert len(receipts) == 2
        first, second = receipts
        # Descendant pool.fetch I/O rolls up into the query receipt.
        assert first["io"]["block_reads"] == 1
        assert first["io"]["cache_hits"] == 1
        assert first["attrs"]["kind"] == "PointQuery"
        assert second["io"]["block_reads"] == 0
        assert second["io"]["cache_hits"] == 2

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("queries_served").inc(5)
        registry.counter("hits", labels={"shard": 1}).inc(2)
        registry.gauge("queue_depth").set(3)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("latency_s").record(value)
        text = to_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE repro_queries_served counter" in lines
        assert "repro_queries_served 5" in lines
        assert 'repro_hits{shard="1"} 2' in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert "repro_queue_depth 3.0" in lines
        assert "# TYPE repro_latency_s summary" in lines
        assert any(
            line.startswith('repro_latency_s{quantile="0.5"}')
            for line in lines
        )
        assert any(line.startswith("repro_latency_s_sum") for line in lines)
        assert "repro_latency_s_count 3" in lines
        assert text.endswith("\n")
        # Every non-comment line is "name[{labels}] value".
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part

    def test_prometheus_accepts_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        assert to_prometheus(registry.snapshot()) == to_prometheus(registry)


class TestNonInterference:
    """Enabling tracing must not change what the library computes."""

    def test_traced_bulk_load_bit_identical(self):
        __, stats_plain, blocks_plain, directory_plain = _bulk_load()
        with tracing() as tracer:
            __, stats_traced, blocks_traced, directory_traced = _bulk_load()
        assert stats_traced == stats_plain
        assert directory_traced == directory_plain
        np.testing.assert_array_equal(blocks_traced, blocks_plain)
        assert len(tracer.spans()) > 0  # tracing actually happened


class TestLosslessAttribution:
    """span totals + orphan_io == the global IOStats delta, exactly."""

    def test_bulk_load_receipt_matches_stats(self):
        with tracing() as tracer:
            __, stats, __b, __d = _bulk_load()
        receipt = io_receipt(tracer.spans(), tracer.orphan_io)
        for field in IO_FIELDS:
            assert receipt["total"][field] == getattr(stats, field), field

    def test_traced_replay_is_lossless(self):
        report = replay(
            shape=(32, 32),
            points=6,
            range_sums=3,
            regions=3,
            trace=True,
        )
        trace = report["trace"]
        assert trace["lossless"]
        assert trace["dropped_spans"] == 0
        assert trace["receipt"]["total"] == trace["expected_io"]
        # One receipt per naive query plus one per engine query.
        assert len(trace["queries"]) == 2 * report["config"]["queries"]
        assert "prometheus" in report
        assert report["results_match"]

    def test_untraced_replay_matches_traced_iostats(self):
        plain = replay(shape=(32, 32), points=6, range_sums=3, regions=3)
        traced = replay(
            shape=(32, 32), points=6, range_sums=3, regions=3, trace=True
        )
        # Tracing must not perturb a single I/O count.
        assert (
            traced["naive"]["block_reads"] == plain["naive"]["block_reads"]
        )
        assert (
            traced["batched"]["block_reads"]
            == plain["batched"]["block_reads"]
        )


class TestServiceObservability:
    def test_query_spans_nest_under_batch(self):
        store, __, __b, __d = _bulk_load()
        with tracing() as tracer:
            engine = QueryEngine(store, num_workers=2, num_shards=2)
            try:
                batch = engine.execute_batch(
                    [PointQuery((3, 5)), RangeSumQuery((0, 0), (15, 15))]
                )
            finally:
                engine.close()
        assert all(result.ok for result in batch.results)
        spans = {span.name: span for span in tracer.spans()}
        assert "batch" in spans and "batch.plan" in spans
        batch_id = spans["batch"].span_id
        queries = [s for s in tracer.spans() if s.name == "query"]
        assert len(queries) == 2
        # Worker threads attached to the batch span explicitly.
        assert all(q.parent_id == batch_id for q in queries)
        assert all(q.attrs["status"] == "ok" for q in queries)
        assert all("admission_wait_s" in q.attrs for q in queries)

    def test_engine_snapshot_reports_gauges(self):
        store, __, __b, __d = _bulk_load()
        engine = QueryEngine(store, num_workers=2, num_shards=2)
        try:
            engine.run(PointQuery((1, 1)))
            snap = engine.snapshot()
        finally:
            engine.close()
        gauges = snap["gauges"]
        assert gauges["pool_resident_blocks"] >= 0
        assert gauges["pool_dirty_blocks"] >= 0
        assert gauges["pool_pinned_blocks"] == 0
        assert gauges["admission_queue_depth"] == 0
        assert gauges["pool_resident_blocks"] == engine.pool.resident

    def test_plan_cache_stats_shape(self):
        stats = plan_cache_stats()
        assert set(stats) >= {"standard_plans", "nonstandard_plans"}
        for cache in ("standard_plans", "nonstandard_plans"):
            info = stats[cache]
            assert {"hits", "misses", "size", "capacity", "builds",
                    "build_seconds"} <= set(info)

    def test_zero_io_is_fresh(self):
        first = zero_io()
        first["block_reads"] = 9
        assert zero_io()["block_reads"] == 0
