"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this process.  Prints every metric by name
    with its unit, then — as the last line of standard output — one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.  Exits 1 when an answer check failed.

``run.py --workload all [--trace both] [--repeat K] [--out FILE]``
    every workload, each run in a process of its own (so peak RSS and the
    plan caches start fresh), ``K`` seeds each, collected into one
    schema-versioned result file.

``run.py compare A.json B.json``
    see ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from . import SCHEMA_VERSION
from .config import GEOMETRIES

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")
#: Scratch space (arena files, result files); listed in ``.gitignore``.
WORK = os.path.join(REPO, ".bench_work")


def _parser() -> argparse.ArgumentParser:
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="how long the reps of one run measure (default: run_seconds "
        "of BENCHMARK.json; 0.5 with --smoke)",
    )
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument(
        "--geometry", choices=sorted(GEOMETRIES), default="bench"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="same as --geometry smoke"
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="with --workload all: runs per workload, seeds seed..seed+K-1",
    )
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument(
        "--spans-out", help="traced run: write the kept raw spans here"
    )
    return parser


def _default_seconds(geometry: str) -> float:
    if geometry == "smoke":
        return 0.5
    with open(BENCHMARK_JSON) as handle:
        return float(json.load(handle)["run_seconds"])


def run_one(name: str, geometry: str, seed: int, seconds: float, traced: bool,
            spans_out: Optional[str] = None) -> dict:
    """One run of one workload in this process; returns its document."""
    from . import harness
    from .workloads import CLASSES

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = CLASSES[name](GEOMETRIES[geometry], seed, workdir)
        try:
            document, recorder = harness.run(workload, seconds, traced)
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if spans_out and recorder is not None:
        with open(spans_out, "w") as handle:
            json.dump(recorder.raw_spans(), handle)
    return document


def _wrap(runs: List[dict]) -> dict:
    from .harness import fingerprint

    return {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "fingerprint": fingerprint(REPO),
        "runs": runs,
    }


def _run_all(args, geometry: str, seconds: float) -> int:
    from .workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    out = args.out or os.path.join(WORK, "e2e_result.json")
    traces = ("0", "1") if args.trace == "both" else (args.trace,)
    runs: List[dict] = []
    status = 0
    for name in WORKLOADS:
        for trace in traces:
            # the traced run only attributes; one seed of it is enough
            repeat = args.repeat if trace == "0" else 1
            for seed in range(args.seed, args.seed + repeat):
                handle, part = tempfile.mkstemp(suffix=".json", dir=WORK)
                os.close(handle)
                command = [
                    sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", trace,
                    "--geometry", geometry, "--out", part,
                ]
                try:
                    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                    # the child's table, without its contract line
                    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                    sys.stdout.flush()
                    if done.returncode != 0:
                        status = 1
                    if os.path.getsize(part):
                        with open(part) as handle:
                            runs.extend(json.load(handle)["runs"])
                finally:
                    os.unlink(part)
    with open(out, "w") as handle:
        json.dump(_wrap(runs), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"# wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from .compare import compare

        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare A.json B.json\n")
            return 2
        return compare(argv[1], argv[2], BENCHMARK_JSON)

    args = _parser().parse_args(argv)
    geometry = "smoke" if args.smoke else args.geometry
    seconds = (
        args.seconds if args.seconds is not None else _default_seconds(geometry)
    )
    if args.workload == "all":
        return _run_all(args, geometry, seconds)
    if args.trace == "both":
        sys.stderr.write("--trace both needs --workload all\n")
        return 2

    from .harness import contract_line, print_table

    document = run_one(
        args.workload, geometry, args.seed, seconds, args.trace == "1",
        args.spans_out,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(_wrap([document]), handle, indent=1, sort_keys=True)
            handle.write("\n")
    print_table(document)
    print(json.dumps(contract_line(document)))
    return 0 if document["correct"] else 1
