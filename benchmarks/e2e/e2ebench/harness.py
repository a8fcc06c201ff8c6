"""The run loop shared by all workloads, and the numbers it reports.

One run is: set up ``k`` times (timed, the median is ``setup_s``), prepare
(warm-up or cold phase), then repeat the workload's fixed unit of work —
a *rep* — until ``--seconds`` have passed, then verify and tear down.
Every timing is a median over reps — a latency percentile is the median
of the reps' own percentiles — and every metric also records its sample
count and the spread between reps.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Sequence

from .config import UNTRACED_REPS
from .layers import PER_LAYER, install_shims, layer_metrics, layer_shares
from .ops import HttpClient
from .spans import Shims, SpanRecorder

#: (name, unit) of every end-to-end metric, in ``BENCHMARK.json`` order.
END_TO_END = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cold_cells_per_s", "cells/s"),
    ("block_io_per_kcell", "blocks"),
    ("space_amp", "ratio"),
    ("req_per_s", "req/s"),
    ("rollup_p50_ms", "ms"),
    ("rollup_p95_ms", "ms"),
    ("drill_p50_ms", "ms"),
    ("drill_p95_ms", "ms"),
    ("point_p50_ms", "ms"),
    ("point_p95_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("block_reads_per_req", "blocks"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
]

#: Counter deltas every rep reports (see ``layers.layer_metrics``).
COUNTER_KEYS = (
    "block_reads",
    "block_writes",
    "journal_writes",
    "pool_hits",
    "pool_misses",
    "pool_evictions",
    "msyncs",
    "msync_seconds",
    "admission_wait_s",
    "admitted",
    "planned_tile_refs",
    "planned_unique_tiles",
    "plan_hits",
    "plan_misses",
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_of(values: Sequence[float], unit: str) -> dict:
    """A metric that is the median of one value per rep."""
    return {
        "value": statistics.median(values),
        "unit": unit,
        "n": len(values),
        "spread": spread(values),
    }


def percentile_of(per_rep: Sequence[Sequence[float]], q: float) -> dict:
    """A latency percentile: the median over reps of each rep's own
    ``q``-quantile.  A slow spell of the machine lasts seconds and lands
    in the tail of the pooled samples, where it would move a pooled p95;
    it spoils only the reps it covers, which the median discards.  ``n``
    is the pooled sample count."""
    values = [percentile(rep, q) for rep in per_rep if rep]
    return {
        "value": statistics.median(values),
        "unit": "ms",
        "n": sum(len(rep) for rep in per_rep),
        "spread": spread(values),
    }


def exact(value: float, unit: str, n: int = 1) -> dict:
    return {"value": value, "unit": unit, "n": n, "spread": 0.0}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(repo_root: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(repo_root),
    }


def _git_sha(repo_root: str) -> str:
    """HEAD's commit, read from ``.git`` without starting a process; the
    driver's checkout is not a repository, hence ``unknown``."""
    try:
        with open(os.path.join(repo_root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(repo_root, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------


class Rep:
    """What one rep measured.  ``wall_s`` is the sum of its timed phases;
    ``values`` holds one number per rep-level metric, ``latency_ms`` the
    samples per operation class, ``counters`` the ``COUNTER_KEYS`` deltas."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ops = 0
        self.writes = 0
        self.failed = 0
        self.values: Dict[str, float] = {}
        self.latency_ms: Dict[str, List[float]] = {
            "rollup": [],
            "drill": [],
            "point": [],
            "write": [],
        }
        self.counters: Dict[str, float] = dict.fromkeys(COUNTER_KEYS, 0)


@contextmanager
def _shimmed(recorder: SpanRecorder):
    """The layer boundaries wrapped in spans of ``recorder``."""
    shims = Shims(recorder)
    install_shims(shims, HttpClient)
    try:
        yield
    finally:
        shims.restore()


def run(workload, seconds: float, traced: bool):
    """Measure ``workload``; returns its result document and, for a
    traced run, the span recorder of the reps (else ``None``)."""
    geometry = workload.geometry
    # a traced run also records its last set-up, with a recorder of its
    # own: plan compilation is paid there, not in the reps
    setup_recorder = SpanRecorder()
    setups = []
    for index in range(geometry.setups):
        last = index == geometry.setups - 1
        with _shimmed(setup_recorder) if traced and last else nullcontext():
            setups.append(workload.setup())
    workload.prepare()

    recorder = None
    reps: List[Rep] = []
    untraced: List[Rep] = []
    deadline = time.perf_counter() + seconds
    if traced:
        untraced = [workload.rep(nullcontext) for __ in range(UNTRACED_REPS)]
        recorder = SpanRecorder()
    phase = recorder.driver_phase if traced else nullcontext
    min_reps = 2 if traced else geometry.min_reps
    with _shimmed(recorder) if traced else nullcontext():
        while len(reps) < min_reps or time.perf_counter() < deadline:
            reps.append(workload.rep(phase))
            # every rep starts without the previous one's garbage, and
            # peak RSS does not depend on how many reps the run fitted in
            gc.collect()
    failed_after = workload.finish()

    every = untraced + reps
    attempted = workload.extra_attempted + sum(rep.ops for rep in every)
    failed = (
        workload.extra_failed + failed_after + sum(rep.failed for rep in every)
    )
    document = {
        "workload": workload.name,
        "geometry": geometry.name,
        "seed": workload.seed,
        "seconds": seconds,
        "traced": traced,
        "reps": len(reps),
        "ops_per_rep": workload.ops_per_rep,
        "attempted": attempted,
        "failed": failed,
    }
    if traced:
        document["per_layer"] = _per_layer(
            workload, recorder, setup_recorder, reps, untraced, document
        )
    else:
        metrics = workload.end_to_end(setups, reps)
        metrics["ok_ratio"] = exact(1.0 - failed / attempted, "ratio", attempted)
        metrics["peak_rss_mb"] = exact(peak_rss_mb(), "MiB")
        document["end_to_end"] = {name: metrics[name] for name, __ in END_TO_END}
    # last: taking the metrics can still fail a workload's own assertion
    document["correct"] = failed == 0 and workload.correct
    document["notes"] = workload.notes
    return document, recorder


def _per_layer(
    workload, recorder, setup_recorder, reps, untraced, document
) -> dict:
    agg = recorder.aggregate()
    counts = {key: sum(rep.counters[key] for rep in reps) for key in COUNTER_KEYS}
    counts["ops"] = sum(rep.ops for rep in reps)
    counts["writes"] = sum(rep.writes for rep in reps)
    counts.update(workload.setup_counters)
    values = layer_metrics(agg, counts, setup_recorder.aggregate())
    accounting = recorder.accounting()
    values["bench.unattributed_ms"] = (
        accounting["unattributed_s"] * 1e3 / counts["ops"]
    )
    values["bench.trace_overhead_ratio"] = statistics.median(
        rep.wall_s for rep in reps
    ) / statistics.median(rep.wall_s for rep in untraced)
    document["trace"] = {
        "threads": accounting["threads"],
        "driver_wall_s": accounting["driver_wall_s"],
        "unattributed_s": accounting["unattributed_s"],
        "invariant_error": accounting["worst_error"],
        "layer_shares": layer_shares(agg),
        "spans": {
            key: {"count": slot[0], "total_s": slot[1], "self_s": slot[2]}
            for key, slot in sorted(agg.items())
        },
    }
    return {
        name: {"value": values[name], "unit": unit, "n": len(reps)}
        for name, unit, __ in PER_LAYER
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def print_table(document: dict, stream=sys.stdout) -> None:
    """Every metric of the run by name, with its unit."""
    section = "per_layer" if document["traced"] else "end_to_end"
    stream.write(
        f"# {document['workload']} seed={document['seed']} "
        f"geometry={document['geometry']} reps={document['reps']} "
        f"{'traced' if document['traced'] else 'untraced'}\n"
    )
    for name, metric in document[section].items():
        extra = (
            f"  n={metric['n']} spread={metric['spread']:.3f}"
            if "spread" in metric
            else ""
        )
        stream.write(
            f"{name:42s} {metric['value']:>16.6f} {metric['unit']}{extra}\n"
        )
    if document["traced"]:
        trace = document["trace"]
        shares = ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in list(trace["layer_shares"].items())[:6]
        )
        stream.write(f"# busy self-time shares: {shares}\n")
        stream.write(
            f"# trace invariant error {trace['invariant_error']:.2e} "
            f"over {trace['threads']} threads\n"
        )
    stream.write(
        f"# attempted={document['attempted']} failed={document['failed']} "
        f"correct={document['correct']}\n"
    )


def contract_line(document: dict) -> dict:
    """The driver's result object for this run."""
    section = "per_layer" if document["traced"] else "end_to_end"
    return {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in document[section].items()
        },
    }
