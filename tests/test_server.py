"""End-to-end HTTP tests against a live threading server.

The serving acceptance contract: ``/aggregate`` answers are
bit-identical to direct :class:`QueryEngine` execution of the same
compiled cuts, tenants stay isolated under concurrent load (quota
throttling on one cannot starve the other), expired deadlines produce
206 degraded payloads with sound error bounds, and malformed requests
map to 400s — all over a real ``ThreadingWSGIServer`` on an ephemeral
port.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro

from repro.olap.schema import Dimension
from repro.server.demo import build_demo_hub
from repro.server.http import spawn
from repro.server.hub import ServingHub
from repro.server.slicer import compile_aggregate, parse_cuts, parse_drilldowns
from repro.service.queries import RangeSumQuery


def _request(base, path, key=None, data=None, headers=None, timeout=10):
    request = urllib.request.Request(base + path, data=data)
    if key is not None:
        request.add_header("X-API-Key", key)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        try:
            return error.code, json.loads(body)
        except ValueError:
            return error.code, {"raw": body.decode("utf-8", "replace")}


@pytest.fixture(scope="module")
def served():
    hub = build_demo_hub(seed=17)
    server, thread = spawn(hub)
    host, port = server.server_address
    yield hub, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    hub.close()


class TestRoutesAndModel:
    def test_cubes_lists_only_the_tenants_cubes(self, served):
        __, base = served
        code, body = _request(base, "/cubes", key="acme-key")
        assert (code, body["cubes"]) == (200, ["sales"])
        code, body = _request(base, "/cubes", key="globex-key")
        assert (code, body["cubes"]) == (200, ["telemetry"])

    def test_model_exposes_hierarchies(self, served):
        __, base = served
        code, model = _request(base, "/cube/sales/model", key="acme-key")
        assert code == 200
        time_dim = model["dimensions"][0]
        assert time_dim["default_hierarchy"] == "ymd"
        ymd = time_dim["hierarchies"][0]
        assert [level["name"] for level in ymd["levels"]] == [
            "year",
            "month",
            "day",
        ]
        assert model["measures"] == ["sum", "count", "avg"]

    def test_missing_or_wrong_key_is_401(self, served):
        __, base = served
        assert _request(base, "/cubes")[0] == 401
        assert _request(base, "/cubes", key="wrong")[0] == 401

    def test_unknown_cube_is_404_within_tenant(self, served):
        __, base = served
        # globex's cube is invisible to acme's key
        code, __body = _request(
            base, "/cube/telemetry/model", key="acme-key"
        )
        assert code == 404

    def test_wrong_method_is_405(self, served):
        __, base = served
        code, __body = _request(
            base, "/cube/sales/model", key="acme-key", data=b"{}"
        )
        assert code == 405

    def test_healthz_and_metrics_need_no_key(self, served):
        __, base = served
        code, health = _request(base, "/healthz")
        assert code == 200
        assert health["status"] == "ok"
        assert "journal" in health
        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode()
        assert 'tenant="acme"' in text
        assert "# TYPE" in text


class TestAggregateBitIdentity:
    CASES = [
        ("", ""),
        ("", "time"),
        ("time@ymd:2|region:8-40", "time"),
        ("time@ymd:1.3", "time:day"),
        ("region:0-31", "time:2"),
    ]

    @pytest.mark.parametrize("cut,drilldown", CASES)
    def test_http_equals_direct_engine_bitwise(self, served, cut, drilldown):
        hub, base = served
        code, body = _request(
            base,
            f"/cube/sales/aggregate?cut={cut}&drilldown={drilldown}",
            key="acme-key",
        )
        assert code == 200, body
        state = hub.cube("acme", "sales")
        plan = compile_aggregate(
            state.cube.dimensions,
            parse_cuts(cut),
            parse_drilldowns(drilldown),
        )
        batch = state.engine.execute_batch(
            [RangeSumQuery(cell.lows, cell.highs) for cell in plan.cells]
        )
        assert len(body["cells"]) == len(batch.results)
        for row, direct, cell in zip(
            body["cells"], batch.results, plan.cells
        ):
            assert direct.ok
            # JSON floats round-trip through repr: bit identity, not
            # approximation
            assert row["sum"] == float(direct.value)
            assert row["count"] == cell.cell_count
            assert row["avg"] == float(direct.value) / cell.cell_count

    def test_cells_carry_paths_and_boxes(self, served):
        __, base = served
        code, body = _request(
            base,
            "/cube/sales/aggregate?cut=time@ymd:2&drilldown=time",
            key="acme-key",
        )
        assert code == 200
        assert [row["paths"]["time"] for row in body["cells"]] == [
            "2.0",
            "2.1",
            "2.2",
            "2.3",
        ]
        assert body["cells"][0]["box"]["time"] == [32, 35]
        assert body["cells"][0]["box"]["region"] == [0, 63]


class TestMalformedRequests:
    BAD_QUERIES = [
        "cut=nope:1-2",  # unknown dimension
        "cut=time@ymd:9",  # ordinal out of range
        "cut=time@ymd:1.2.3.4",  # path deeper than hierarchy
        "cut=time@nope:1",  # unknown hierarchy
        "cut=time:abc",  # unparseable range
        "cut=time:0-9&drilldown=time",  # drilldown across a range cut
        "drilldown=region:99",  # depth out of range
        "deadline_ms=soon",  # non-numeric deadline
    ]

    @pytest.mark.parametrize("query", BAD_QUERIES)
    def test_bad_aggregate_is_400_with_message(self, served, query):
        __, base = served
        code, body = _request(
            base, f"/cube/sales/aggregate?{query}", key="acme-key"
        )
        assert code == 400
        assert body["error"]

    def test_bad_update_bodies_are_400(self, served):
        __, base = served
        for raw in (b"", b"not json", b'{"deltas": [[1]]}'):
            code, __body = _request(
                base, "/cube/sales/update", key="acme-key", data=raw
            )
            assert code == 400


class TestUpdateEndpoint:
    def test_update_shifts_subsequent_aggregates(self, served):
        hub, base = served
        path = "/cube/telemetry/aggregate?cut=tick:0-7|sensor:0-7"
        code, before = _request(base, path, key="globex-key")
        assert code == 200
        body = json.dumps(
            {
                "deltas": [[2.0] * 8] * 8,
                "corner": {"tick": 0, "sensor": 0},
            }
        ).encode()
        code, applied = _request(
            base, "/cube/telemetry/update", key="globex-key", data=body
        )
        assert code == 200
        assert applied["applied"] is True
        assert applied["io"]["journal_writes"] > 0
        code, after = _request(base, path, key="globex-key")
        assert code == 200
        shift = after["cells"][0]["sum"] - before["cells"][0]["sum"]
        assert shift == pytest.approx(2.0 * 64, abs=1e-6)


class TestDeadlineDegradation:
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_expired_deadline_is_206_with_sound_bounds(
        self, backend, tmp_path
    ):
        data_dir = str(tmp_path / "hub") if backend == "mmap" else None
        hub = build_demo_hub(seed=23, pool_blocks=8, data_dir=data_dir)
        server, __thread = spawn(hub)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            reads_before = hub.stats.block_reads
            code, body = _request(
                base,
                "/cube/sales/aggregate?drilldown=time",
                key="acme-key",
                headers={"X-Deadline-Ms": "0"},
            )
            # expired queries answer from resident blocks only
            assert hub.stats.block_reads == reads_before
            assert code == 206
            assert body["status"] == "degraded"
            degraded = [
                row for row in body["cells"] if row["status"] == "degraded"
            ]
            assert degraded, "cold cache + zero deadline must degrade"
            for row in degraded:
                assert 0.0 < row["error_bound"] < float("inf")
            # ground truth from the engine, no deadline: the degraded
            # values must sit inside their claimed bounds
            code, truth = _request(
                base,
                "/cube/sales/aggregate?drilldown=time",
                key="acme-key",
            )
            assert code == 200
            for row, exact in zip(body["cells"], truth["cells"]):
                if row["status"] == "degraded":
                    assert (
                        abs(row["sum"] - exact["sum"])
                        <= row["error_bound"] + 1e-9
                    )
        finally:
            server.shutdown()
            server.server_close()
            hub.close()


class TestTenantIsolation:
    def test_saturated_tenant_cannot_starve_the_other(self):
        """globex floods its quota; acme must keep answering 200s."""
        hub = ServingHub(
            block_slots=64,
            pool_blocks=64,
            num_workers=2,
            queue_depth=64,
            max_inflight=4,
        )
        rng = np.random.default_rng(31)
        for tenant, cube in (("acme", "sales"), ("globex", "telemetry")):
            hub.add_tenant(tenant, api_key=f"{tenant}-key")
            hub.add_cube(
                tenant,
                cube,
                [Dimension("x", 64), Dimension("y", 64)],
                data=rng.random((64, 64)),
            )
        server, __thread = spawn(hub)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        flood_codes = []
        acme_codes = []
        lock = threading.Lock()

        def flood():
            for __ in range(6):
                code, __body = _request(
                    base,
                    "/cube/telemetry/aggregate?drilldown=x:3,y:3",
                    key="globex-key",
                )
                with lock:
                    flood_codes.append(code)

        def polite():
            for __ in range(6):
                code, __body = _request(
                    base,
                    "/cube/sales/aggregate?drilldown=x",
                    key="acme-key",
                )
                with lock:
                    acme_codes.append(code)

        try:
            threads = [
                threading.Thread(target=flood) for __ in range(4)
            ] + [threading.Thread(target=polite) for __ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            # the flood hits its own quota...
            assert 429 in flood_codes
            # ...while the polite tenant never sees an error: its own
            # quota and queue are untouched by globex's saturation
            assert set(acme_codes) == {200}
            snap = hub.metrics.snapshot()
            throttled = snap["counters"].get(
                'queries_throttled{cube="telemetry",tenant="globex"}', 0
            )
            assert throttled > 0
            assert (
                snap["counters"].get(
                    'queries_throttled{cube="sales",tenant="acme"}', 0
                )
                == 0
            )
        finally:
            server.shutdown()
            server.server_close()
            hub.close()


class TestDataDirPersistence:
    """The --data-dir contract: HTTP-visible state survives a restart.

    An update written over HTTP must be re-aggregated bit-identically
    by a hub reopened from the same directory — the arena blocks come
    back through the mmap file, the tenants / schemas / tile
    directories through the state sidecar.
    """

    def test_http_update_survives_restart(self, tmp_path):
        data_dir = str(tmp_path / "hub")
        path = "/cube/telemetry/aggregate?cut=tick:0-7|sensor:0-7"

        hub = build_demo_hub(seed=29, data_dir=data_dir)
        server, __thread = spawn(hub)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            body = json.dumps(
                {
                    "deltas": [[2.5] * 4] * 4,
                    "corner": {"tick": 0, "sensor": 0},
                }
            ).encode()
            code, applied = _request(
                base, "/cube/telemetry/update", key="globex-key", data=body
            )
            assert (code, applied["applied"]) == (200, True)
            code, updated = _request(base, path, key="globex-key")
            assert code == 200
            sales = _request(
                base,
                "/cube/sales/aggregate?cut=time@ymd:2&drilldown=time",
                key="acme-key",
            )[1]
        finally:
            server.shutdown()
            server.server_close()
            hub.close()

        # A fresh hub over the same directory = the restarted process.
        reopened_hub = ServingHub(data_dir=data_dir)
        server, __thread = spawn(reopened_hub)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        try:
            code, reopened = _request(base, path, key="globex-key")
            assert code == 200
            assert reopened["cells"] == updated["cells"]
            reopened_sales = _request(
                base,
                "/cube/sales/aggregate?cut=time@ymd:2&drilldown=time",
                key="acme-key",
            )[1]
            assert reopened_sales["cells"] == sales["cells"]
        finally:
            server.shutdown()
            server.server_close()
            reopened_hub.close()

    def test_update_survives_sigkill_without_close(self, tmp_path):
        # Hard-crash durability: an update acknowledged by a process
        # that then dies on SIGKILL (no close(), no atexit) must be
        # served by a reopened hub — not stale pre-update zeros.
        data_dir = str(tmp_path / "hub")
        answers = str(tmp_path / "answers.json")
        child = textwrap.dedent(
            f"""
            import json, os, signal

            from repro.server.demo import build_demo_hub

            hub = build_demo_hub(seed=29, data_dir={data_dir!r})
            cube = hub.cube("globex", "telemetry").cube
            ranges = {{"tick": (0, 7), "sensor": (0, 7)}}
            before = cube.sum(**ranges)
            hub.update(
                "globex",
                "telemetry",
                [[2.5] * 4] * 4,
                {{"tick": 0, "sensor": 0}},
            )
            after = cube.sum(**ranges)
            with open({answers!r}, "w") as handle:
                json.dump({{"before": before, "after": after}}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        with open(answers) as handle:
            expected = json.load(handle)
        assert expected["after"] != expected["before"]

        reopened = ServingHub(data_dir=data_dir)
        try:
            got = reopened.cube("globex", "telemetry").cube.sum(
                tick=(0, 7), sensor=(0, 7)
            )
            assert got == expected["after"]
        finally:
            reopened.close()

    def test_reopened_hub_matches_in_memory_answers(self, tmp_path):
        # Same seed, one hub persistent and one in-memory: identical
        # logical answers (the device backend must be transparent).
        persistent = build_demo_hub(
            seed=31, data_dir=str(tmp_path / "hub")
        )
        persistent.close()
        reopened = ServingHub(data_dir=str(tmp_path / "hub"))
        in_memory = build_demo_hub(seed=31)
        try:
            for tenant, cube, kwargs in (
                ("acme", "sales", {"time": (3, 41), "region": (7, 60)}),
                ("globex", "telemetry", {"tick": (0, 63), "sensor": (5, 9)}),
            ):
                want = in_memory.cube(tenant, cube).cube.sum(**kwargs)
                got = reopened.cube(tenant, cube).cube.sum(**kwargs)
                assert got == want
        finally:
            reopened.close()
            in_memory.close()


class TestStateSidecarDurability:
    def test_save_state_fsyncs_the_directory_entry(
        self, tmp_path, monkeypatch
    ):
        # os.replace orders the sidecar's *data*, but the new directory
        # entry itself only survives power loss if the directory inode
        # is fsynced too.
        from repro.server import persist

        hub = build_demo_hub(seed=5, data_dir=str(tmp_path / "hub"))
        try:
            synced = []
            real_fsync = os.fsync

            def recording_fsync(fd):
                synced.append(os.fstat(fd).st_mode)
                return real_fsync(fd)

            monkeypatch.setattr(os, "fsync", recording_fsync)
            persist.save_state(hub, str(tmp_path / "hub"))
            import stat

            assert any(stat.S_ISDIR(mode) for mode in synced), (
                "save_state never fsynced the data directory"
            )
            assert any(stat.S_ISREG(mode) for mode in synced)
        finally:
            monkeypatch.undo()
            hub.close()

    def test_dir_fsync_is_best_effort_on_unopenable_dir(
        self, tmp_path, monkeypatch
    ):
        from repro.server import persist

        real_open = os.open

        def failing_open(path, flags, *args, **kwargs):
            if path == str(tmp_path):
                raise OSError("directory refuses to open")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        persist._fsync_dir(str(tmp_path))  # must not raise
