"""``compare A.json B.json``: one row per (metric, workload).

A row is ``better``, ``worse``, ``unchanged`` or ``unresolved``, judged
with the metric's direction and bound from ``BENCHMARK.json``:

* the change is the move of B's median away from A's, as a share of A's
  median, signed so that positive is worse;
* when the spread of either side (quartile distance over median, across
  the runs in the file, or between reps when the file holds one run) is
  wider than the bound, the row is ``unresolved`` — unless every run of B
  reads better than every run of A (``better``), or every run reads worse
  and the medians differ by more than the bound (``worse``);
* otherwise the row is ``worse`` or ``better`` when the change exceeds the
  bound, and ``unchanged`` when it does not.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from .harness import spread


def _runs(document: dict) -> Dict[Tuple[str, str], List[dict]]:
    """(workload, metric) -> that metric's entry in every untraced run."""
    out: Dict[Tuple[str, str], List[dict]] = {}
    for run in document["runs"]:
        for name, metric in run.get("end_to_end", {}).items():
            out.setdefault((run["workload"], name), []).append(metric)
    return out


def _spread(entries: List[dict]) -> float:
    if len(entries) > 1:
        return spread([entry["value"] for entry in entries])
    return entries[0]["spread"]


def judge(before: List[dict], after: List[dict], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    old = [entry["value"] for entry in before]
    new = [entry["value"] for entry in after]
    old_median, new_median = statistics.median(old), statistics.median(new)
    change = sign * (new_median - old_median) / abs(old_median or 1.0)
    noise = max(_spread(before), _spread(after))
    all_better = max(sign * value for value in new) < min(
        sign * value for value in old
    )
    all_worse = min(sign * value for value in new) > max(
        sign * value for value in old
    )
    if noise > bound and not (old == new):
        if all_better:
            verdict = "better"
        elif all_worse and change > bound:
            verdict = "worse"
        else:
            verdict = "unresolved"
    elif change > bound:
        verdict = "worse"
    elif change < -bound:
        verdict = "better"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "before": old_median,
        "after": new_median,
        "change": change,
        "spread": noise,
    }


def compare(path_a: str, path_b: str, benchmark_json: str, stream=sys.stdout) -> int:
    """Print the comparison; returns the process exit code (1 on any
    ``worse`` row)."""
    with open(path_a) as handle:
        before = _runs(json.load(handle))
    with open(path_b) as handle:
        after = _runs(json.load(handle))
    with open(benchmark_json) as handle:
        spec = json.load(handle)
    rules = {entry["name"]: entry for entry in spec["end_to_end"]}
    worse = 0
    stream.write(
        f"{'workload':14s} {'metric':22s} {'verdict':10s} "
        f"{'before':>14s} {'after':>14s} {'change':>8s} {'spread':>7s} "
        f"{'bound':>6s}\n"
    )
    for workload, name in sorted(before):
        if (workload, name) not in after or name not in rules:
            continue
        rule = rules[name]
        row = judge(
            before[workload, name],
            after[workload, name],
            rule["better"],
            rule["bound"],
        )
        worse += row["verdict"] == "worse"
        stream.write(
            f"{workload:14s} {name:22s} {row['verdict']:10s} "
            f"{row['before']:14.4f} {row['after']:14.4f} "
            f"{row['change']:+8.3f} {row['spread']:7.3f} "
            f"{rule['bound']:6.3f}\n"
        )
    return 1 if worse else 0
