#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark: a base revision vs this tree.

    python3 scripts/bench_ab.py --base REV [--pairs N] [--workload W]

``REV`` is checked out into a temporary ``git worktree``.  For seed
i = 1..N each tree runs its own ``benchmarks/e2e/run.py --workload W
--seed i --out ...``; which tree runs first alternates seed by seed, so
slow drift of the machine's speed lands on both sides alike.  The runs
are concatenated into ``base.json`` and ``head.json`` (under
``--out-dir``), ``run.py compare base.json head.json`` prints its table,
and its exit code (1 on any ``worse`` row) is this script's.  The
worktree is removed however the script ends.  ``make bench-ab BASE=REV
PAIRS=N`` runs the same.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "e2e", "run.py")


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", HEAD, *args], check=True)


def _run(tree: str, workload: str, seed: int, out: str) -> dict:
    """One seed of ``tree``'s own benchmark; returns its result document."""
    command = [
        sys.executable, os.path.join(tree, RUN),
        "--workload", workload, "--seed", str(seed), "--out", out,
    ]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print(f"# {tree}: seed {seed} exited {done.returncode}", flush=True)
    if not os.path.exists(out) or not os.path.getsize(out):
        raise SystemExit(f"{tree}: seed {seed} wrote no result")
    with open(out) as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--workload", default="all")
    parser.add_argument(
        "--out-dir", default=os.path.join(HEAD, ".bench_work", "ab"),
        help="where base.json and head.json are written",
    )
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    os.makedirs(args.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="bench-ab-")
    base_tree = os.path.join(scratch, "base")
    documents: dict = {}
    try:
        _git("worktree", "add", "--detach", "--quiet", base_tree, args.base)
        trees = {"base": base_tree, "head": HEAD}
        for seed in range(1, args.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                print(f"# seed {seed}: {side}", flush=True)
                out = os.path.join(scratch, f"{side}-{seed}.json")
                document = _run(trees[side], args.workload, seed, out)
                if side in documents:
                    documents[side]["runs"].extend(document["runs"])
                else:
                    documents[side] = document
    finally:
        subprocess.run(
            ["git", "-C", HEAD, "worktree", "remove", "--force", base_tree],
            stderr=subprocess.DEVNULL,
        )
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)
    paths = {}
    for side, document in documents.items():
        paths[side] = os.path.join(args.out_dir, f"{side}.json")
        with open(paths[side], "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"# wrote {paths['base']} and {paths['head']}", flush=True)
    return subprocess.run(
        [sys.executable, os.path.join(HEAD, RUN), "compare", paths["base"], paths["head"]]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
