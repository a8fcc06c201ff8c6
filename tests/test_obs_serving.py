"""Serving-path telemetry tests: trace propagation over HTTP, request
logs, the flight recorder, ``/debug/*`` endpoints and tile-heat
accounting.

The serving contract under test: every HTTP response carries a
``Traceparent`` continuing the caller's trace id (or minting one),
every request leaves a structured receipt in the bounded request log,
slow/degraded/faulted data-route receipts survive in the flight
recorder, the ``/debug/*`` endpoints enforce the admin/tenant key
model, and heat counters attribute tile touches to ``(tenant, class)``.
"""

import io
import json
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import IO_FIELDS
from repro.obs.exporters import heat_to_prometheus
from repro.obs.flightrec import FlightRecorder
from repro.obs.heat import HeatRecorder, heat_context
from repro.obs.reqlog import (
    RequestLog,
    make_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.olap.schema import Dimension
from repro.server.demo import build_demo_hub
from repro.server.http import spawn
from repro.server.hub import ServingHub

_TRACEPARENT = re.compile(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$")


def _request(base, path, key=None, headers=None, data=None, timeout=10):
    """GET/POST returning ``(status, response headers, parsed body)``."""
    request = urllib.request.Request(base + path, data=data)
    if key is not None:
        request.add_header("X-API-Key", key)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            try:
                body = json.loads(raw)
            except ValueError:  # /metrics is text exposition
                body = raw.decode("utf-8", "replace")
            return response.status, dict(response.headers), body
    except urllib.error.HTTPError as error:
        body = error.read()
        try:
            parsed = json.loads(body)
        except ValueError:
            parsed = {"raw": body.decode("utf-8", "replace")}
        return error.code, dict(error.headers), parsed


@pytest.fixture(scope="module")
def served():
    hub = build_demo_hub(seed=23)
    server, thread = spawn(hub)
    host, port = server.server_address
    yield hub, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    hub.close()


class TestTraceparentParsing:
    def test_round_trip(self):
        trace, span = new_trace_id(), new_span_id()
        assert parse_traceparent(make_traceparent(trace, span)) == (
            trace,
            span,
        )

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-span-01",
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "G" * 32 + "-" + "b" * 16 + "-01",  # non-hex
        ],
    )
    def test_rejects_malformed(self, header):
        assert parse_traceparent(header) is None

    def test_future_versions_parse_leniently(self):
        header = "42-" + "a" * 32 + "-" + "b" * 16 + "-01"
        assert parse_traceparent(header) == ("a" * 32, "b" * 16)


class TestTraceparentOverHttp:
    def test_response_mints_a_traceparent(self, served):
        __, base = served
        __, headers, __b = _request(base, "/cubes", key="acme-key")
        assert _TRACEPARENT.match(headers["Traceparent"])

    def test_incoming_trace_id_is_continued(self, served):
        __, base = served
        trace, span = new_trace_id(), new_span_id()
        __, headers, __b = _request(
            base,
            "/cubes",
            key="acme-key",
            headers={"traceparent": make_traceparent(trace, span)},
        )
        echoed_trace, echoed_span = parse_traceparent(
            headers["Traceparent"]
        )
        assert echoed_trace == trace
        assert echoed_span != span  # the response span is this request

    def test_distinct_requests_get_distinct_trace_ids(self, served):
        __, base = served
        __, first, __b = _request(base, "/cubes", key="acme-key")
        __, second, __b = _request(base, "/cubes", key="acme-key")
        assert (
            parse_traceparent(first["Traceparent"])[0]
            != parse_traceparent(second["Traceparent"])[0]
        )


class TestRequestLog:
    def test_ring_bounds_and_counts_drops(self):
        log = RequestLog(capacity=4)
        for index in range(10):
            log.record(path=f"/r{index}", tenant="t")
        assert len(log) == 4
        assert log.dropped == 6
        assert [r["path"] for r in log.records()] == [
            "/r6",
            "/r7",
            "/r8",
            "/r9",
        ]

    def test_stream_gets_one_json_line_per_record(self):
        stream = io.StringIO()
        log = RequestLog(capacity=4, stream=stream)
        log.record(path="/a", code=200)
        log.record(path="/b", code=404)
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["path"] for line in lines] == ["/a", "/b"]
        assert all("ts" in json.loads(line) for line in lines)

    def test_http_request_leaves_a_structured_receipt(self, served):
        hub, base = served
        cut = "time:0-31|region:0-31"
        __, headers, __b = _request(
            base, f"/cube/sales/aggregate?cut={cut}", key="acme-key"
        )
        record = hub.request_log.records(tenant="acme")[-1]
        assert record["cube"] == "sales"
        assert record["cut"] == cut
        assert record["status"] == "ok"
        assert record["code"] == 200
        assert record["wall_s"] >= 0.0
        assert set(record["io"]) == set(IO_FIELDS)
        assert record["trace_id"] == parse_traceparent(
            headers["Traceparent"]
        )[0]


class TestFlightRecorder:
    def test_bounded_under_flood(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(500):
            recorder.record(
                {"wall_s": index / 1000.0, "code": 200, "status": "ok"}
            )
        snapshot = recorder.snapshot()
        assert snapshot["seen"] == 500
        assert snapshot["evicted"] == 492
        walls = [r["wall_s"] for r in snapshot["slowest"]]
        # the 8 slowest survive, descending
        assert walls == sorted(walls, reverse=True)
        assert walls == [w / 1000.0 for w in range(499, 491, -1)]

    def test_degraded_and_faulted_classification(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record({"wall_s": 0.1, "code": 206, "status": "degraded"})
        recorder.record({"wall_s": 0.1, "code": 200, "status": "timeout"})
        recorder.record({"wall_s": 0.1, "code": 500, "status": ""})
        recorder.record({"wall_s": 0.1, "code": 200, "status": "error"})
        snapshot = recorder.snapshot()
        assert len(snapshot["degraded"]) == 2
        assert len(snapshot["faulted"]) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_only_data_routes_feed_the_recorder(self, served):
        hub, base = served
        before = hub.flight_recorder.snapshot()["seen"]
        _request(base, "/cubes", key="acme-key")
        _request(base, "/healthz")
        assert hub.flight_recorder.snapshot()["seen"] == before
        _request(
            base,
            "/cube/sales/aggregate?cut=time:0-31|region:0-31",
            key="acme-key",
        )
        assert hub.flight_recorder.snapshot()["seen"] == before + 1


class TestDebugEndpoints:
    @pytest.mark.parametrize(
        "path", ["/debug/queries", "/debug/trace", "/debug/heat"]
    )
    def test_no_key_is_401(self, served, path):
        __, base = served
        code, __, __b = _request(base, path)
        assert code == 401

    @pytest.mark.parametrize(
        "path", ["/debug/queries", "/debug/trace", "/debug/heat"]
    )
    def test_unknown_key_is_401(self, served, path):
        __, base = served
        code, __, __b = _request(base, path, key="not-a-key")
        assert code == 401

    def test_admin_sees_unfiltered_queries(self, served):
        __, base = served
        for cube, key in (("sales", "acme-key"), ("telemetry", "globex-key")):
            _request(
                base,
                f"/cube/{cube}/aggregate?cut=",
                key=key,
            )
        code, __, body = _request(
            base, "/debug/queries", key="demo-admin-key"
        )
        assert code == 200
        tenants = {r.get("tenant") for r in body["recent"]}
        assert {"acme", "globex"} <= tenants
        assert body["flight"]["capacity"] == 64

    def test_tenant_key_sees_only_its_own_queries(self, served):
        __, base = served
        _request(base, "/cube/sales/aggregate?cut=", key="acme-key")
        _request(base, "/cube/telemetry/aggregate?cut=", key="globex-key")
        code, __, body = _request(base, "/debug/queries", key="acme-key")
        assert code == 200
        assert body["recent"]  # has records
        assert {r.get("tenant") for r in body["recent"]} == {"acme"}
        assert {
            r.get("tenant") for r in body["flight"]["slowest"]
        } <= {"acme"}

    def test_trace_needs_the_admin_key(self, served):
        __, base = served
        code, __, __b = _request(base, "/debug/trace", key="acme-key")
        assert code == 403
        code, __, body = _request(
            base, "/debug/trace", key="demo-admin-key"
        )
        assert code == 200
        # no tracer installed on the serving process by default
        assert body == {"enabled": False, "spans": 0, "dropped": 0}

    def test_unknown_debug_route_is_404(self, served):
        __, base = served
        code, __, __b = _request(
            base, "/debug/nonsense", key="demo-admin-key"
        )
        assert code == 404


class TestTileHeat:
    def test_attribution_and_cap(self):
        recorder = HeatRecorder(max_tiles=2)
        with heat_context("acme", "RangeSumQuery"):
            recorder.touch(1, reads=2)
            recorder.touch(2, writes=1)
            recorder.touch(3, reads=1)  # over the per-label cap
        recorder.touch(9, reads=1)  # unattributed
        assert recorder.dropped == 1
        rows = {
            (row["tenant"], row["class"]): row
            for row in recorder.aggregates()
        }
        acme = rows[("acme", "RangeSumQuery")]
        assert (acme["reads"], acme["writes"], acme["tiles"]) == (2, 1, 2)
        assert ("", "") in rows  # the unattributed bucket
        assert recorder.aggregates(tenant="acme") == [acme]

    def test_snapshot_merges_labels_per_block(self):
        recorder = HeatRecorder()
        with heat_context("acme", "query"):
            recorder.touch(5, reads=3)
        with heat_context("acme", "update"):
            recorder.touch(5, writes=2)
        snapshot = recorder.snapshot(top=1)
        (tile,) = snapshot["tiles"]
        assert (tile["block"], tile["reads"], tile["writes"]) == (5, 3, 2)
        assert tile["by"] == {
            "acme/query": [3, 0],
            "acme/update": [0, 2],
        }

    def test_prometheus_export_is_label_bounded(self):
        recorder = HeatRecorder()
        with heat_context("acme", "query"):
            recorder.touch(1, reads=4)
            recorder.touch(2, writes=1)
        text = heat_to_prometheus(recorder.aggregates())
        line = 'repro_tile_heat_reads_total{tenant="acme",class="query"} 4'
        assert line in text
        assert "block" not in text  # no per-block series

    def test_http_queries_heat_the_map(self, served):
        hub, base = served
        _request(
            base,
            "/cube/sales/aggregate?cut=time:0-31|region:0-31",
            key="acme-key",
        )
        code, __, body = _request(
            base, "/debug/heat", key="demo-admin-key"
        )
        assert code == 200
        assert body["enabled"]
        labels = {
            (row["tenant"], row["class"]) for row in body["aggregates"]
        }
        assert ("acme", "RangeSumQuery") in labels
        assert body["tiles"]  # per-block histogram is populated

    def test_tenant_scoped_heat_view(self, served):
        __, base = served
        _request(base, "/cube/telemetry/aggregate?cut=", key="globex-key")
        code, __, body = _request(base, "/debug/heat", key="globex-key")
        assert code == 200
        assert {row["tenant"] for row in body["aggregates"]} == {"globex"}

    def test_updates_are_attributed_to_the_update_class(self, served):
        hub, base = served
        payload = json.dumps(
            {"deltas": [[0.5]], "corner": {"time": 1, "region": 1}}
        ).encode()
        code, __, __b = _request(
            base, "/cube/sales/update", key="acme-key", data=payload
        )
        assert code == 200
        labels = {
            (row["tenant"], row["class"])
            for row in hub.debug_heat()["aggregates"]
        }
        assert ("acme", "update") in labels

    def test_metrics_exposition_carries_heat_counters(self, served):
        __, base = served
        _request(base, "/cube/sales/aggregate?cut=", key="acme-key")
        code, __, body = _request(base, "/metrics")
        assert code == 200
        text = body if isinstance(body, str) else body["raw"]
        assert "repro_tile_heat_reads_total" in text
        assert 'tenant="acme"' in text


class TestHealthzRollup:
    def test_per_tenant_status_and_queue_hwm(self, served):
        __, base = served
        code, __, body = _request(base, "/healthz")
        assert code == 200
        assert body["status"] == "ok"
        for tenant in ("acme", "globex"):
            entry = body["tenants"][tenant]
            assert entry["status"] == "ok"
            assert entry["queue_hwm"] >= 0
            assert entry["cubes"]


class TestArenaTelemetry:
    def test_snapshot_and_metrics_surface_mmap_internals(self, tmp_path):
        hub = ServingHub(data_dir=str(tmp_path), heat_max_tiles=0)
        try:
            hub.add_tenant("t", api_key="k")
            rng = np.random.default_rng(3)
            hub.add_cube(
                "t",
                "c",
                [Dimension("x", 16), Dimension("y", 16)],
                data=rng.random((16, 16)),
            )
            arena = hub.tenant("t").cubes["c"].engine.snapshot()["arena"]
            assert arena["mapped_bytes"] > 0
            assert arena["capacity_blocks"] >= arena["allocated_blocks"] > 0
            assert arena["growths"] >= 0
            text = hub.prometheus()
            for name in (
                "arena_growths",
                "arena_mapped_bytes",
                "arena_msyncs",
                "arena_resize_wait_s",
            ):
                assert f"repro_{name}" in text
        finally:
            hub.close()

    def test_in_memory_hub_has_no_arena_section(self):
        hub = ServingHub(heat_max_tiles=0, flight_capacity=0)
        try:
            hub.add_tenant("t", api_key="k")
            rng = np.random.default_rng(3)
            hub.add_cube(
                "t",
                "c",
                [Dimension("x", 16), Dimension("y", 16)],
                data=rng.random((16, 16)),
            )
            snapshot = hub.tenant("t").cubes["c"].engine.snapshot()
            assert "arena" not in snapshot
            assert "arena_mapped_bytes" not in hub.prometheus()
        finally:
            hub.close()

