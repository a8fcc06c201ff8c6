"""Smoke tests of the end-to-end benchmark on the 8x8x4x16 geometry.

Run with ``python -m pytest benchmarks/e2e -q`` (outside tier-1's
``testpaths``).  They check the harness, not the program's speed: every
metric ``BENCHMARK.json`` names is emitted, the trace's time accounting
adds up, the shims leave nothing behind, and ``compare`` is sane.
"""

import copy
import io
import json
import os
import re
import subprocess
import sys

import pytest

from e2ebench import cli
from e2ebench.compare import compare
from e2ebench.layers import PER_LAYER, install_shims
from e2ebench.ops import HttpClient
from e2ebench.spans import Shims, SpanRecorder
from e2ebench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(cli.BENCHMARK_JSON) as _handle:
    SPEC = json.load(_handle)


def _smoke(name, seed, traced):
    return cli.run_one(name, "smoke", seed, seconds=0.3, traced=traced)


@pytest.fixture(scope="module")
def untraced():
    return {name: _smoke(name, 1, False) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: _smoke(name, 1, True) for name in WORKLOADS}


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert len(SPEC["end_to_end"]) == 16
    names = [entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 <= entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(untraced, name):
    document = untraced[name]
    assert document["correct"] and document["failed"] == 0
    expected = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in document["end_to_end"].items()}
    assert got == expected
    for metric, entry in document["end_to_end"].items():
        assert entry["value"] > 0, metric  # the contract forbids a 0
        assert entry["n"] >= 1 and entry["spread"] >= 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_per_layer_metric_is_emitted(traced, name):
    document = traced[name]
    assert document["correct"]
    expected = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in document["per_layer"].items()}
    assert got == expected


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_time_accounting_adds_up(traced, name):
    trace = traced[name]["trace"]
    # Σ self + unattributed == traced wall, thread by thread, within 1 %
    assert trace["invariant_error"] < 0.01
    assert trace["unattributed_s"] >= 0
    assert traced[name]["per_layer"]["bench.trace_overhead_ratio"]["value"] > 0


def test_workloads_run_in_the_layers_they_claim(traced):
    spans = {name: traced[name]["trace"]["spans"] for name in WORKLOADS}
    # the library workload runs no server or service code
    assert not [
        key for key in spans["bulk_load"]
        if key.startswith(("server.", "service.", "bench.client"))
    ]
    # the resident working set is served without touching the device
    assert "storage.device:read" not in spans["dashboard_hot"]
    assert "storage.device:read" in spans["cold_scan"]
    assert "server.persist:save_state" in spans["ingest_mixed"]


def _live_shims():
    """Every wrapper of ``SpanRecorder.wrap`` still bound in ``repro``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            owners = [(module, attr, value)]
            if isinstance(value, type):
                owners += [(value, a, v) for a, v in vars(value).items()]
            for owner, a, v in owners:
                if hasattr(getattr(v, "__func__", v), "span_key"):
                    found.append((owner, a))
    return found


def test_shims_are_fully_restored(traced):
    # the traced runs of the fixture left nothing behind
    assert _live_shims() == []
    shims = Shims(SpanRecorder())
    install_shims(shims, HttpClient)
    patched = shims.installed()
    assert len(patched) > 40 and len(_live_shims()) >= 40
    shims.restore()
    assert _live_shims() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)


def test_compare_of_a_file_with_itself_is_unchanged(untraced, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(cli._wrap(list(untraced.values()))))
    out = io.StringIO()
    assert compare(str(path), str(path), cli.BENCHMARK_JSON, stream=out) == 0
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(row.split()[2] == "unchanged" for row in rows)


def test_compare_flags_a_regression(untraced, tmp_path):
    before = copy.deepcopy(list(untraced.values()))
    for run in before:
        run["end_to_end"]["rollup_p50_ms"]["spread"] = 0.0
    slower = copy.deepcopy(before)
    for run in slower:
        run["end_to_end"]["rollup_p50_ms"]["value"] *= 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(cli._wrap(before)))
    b.write_text(json.dumps(cli._wrap(slower)))
    out = io.StringIO()
    assert compare(str(a), str(b), cli.BENCHMARK_JSON, stream=out) == 1
    assert out.getvalue().count("worse") == len(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_second_seed_runs_green(name):
    document = _smoke(name, 2, False)
    assert document["correct"] and document["failed"] == 0


def test_driver_contract_line():
    run_py = os.path.join(cli.HERE, "run.py")
    done = subprocess.run(
        [sys.executable, run_py, "--workload", "bulk_load", "--seed", "3",
         "--seconds", "0.3", "--trace", "0", "--geometry", "smoke"],
        stdout=subprocess.PIPE, text=True, cwd=cli.REPO, timeout=120,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
