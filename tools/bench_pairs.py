#!/usr/bin/env python3
"""Measure a change against its parent and write a ``BENCH_<n>.json``.

    python3 tools/bench_pairs.py --parent REV --change REV --seed N --pairs 10 \\
        --title TEXT [--claim WORKLOAD:METRIC ...] --out BENCH_<n>.json

Both revisions are exported with ``git archive`` into two sibling
directories whose paths have the same length, so neither side runs from
the working checkout and no path length differs between them.  Each pair
runs ``python3 solvbench/run.py`` once per side, with the parent first in
even-numbered pairs, on every workload of ``BENCHMARK.json`` with its
``run_seconds``.  Each claimed workload then gets one ``--trace 1`` run
per side.  The file records, per workload and metric, each side's
median and quartiles, how many pairs the change won (ties count for
neither), the ratio of the medians and every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Names of equal length, so the two sibling trees have paths of equal length.
SIDES = ("parent", "change")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better, seeds):
    """One workload's record from its runs.

    ``runs[side]`` lists the last JSON line of each run on that side, pair
    by pair; ``better`` maps each end-to-end metric to ``"lower"`` or
    ``"higher"``."""
    values = {
        side: {m: [run["metrics"][m]["value"] for run in runs[side]] for m in better}
        for side in SIDES
    }
    wins = {}
    for metric, direction in better.items():
        pairs = zip(values["parent"][metric], values["change"][metric])
        won = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        wins[metric] = f"{won} of {len(runs['parent'])}"
    record = {
        "seeds": seeds,
        "pairs": len(runs["parent"]),
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
    }
    for side in SIDES:
        record[side] = {m: quartiles(v) for m, v in values[side].items()}
    record["change_wins"] = wins
    record["change_over_parent_median"] = {
        m: round(record["change"][m]["median"] / record["parent"][m]["median"], 4) for m in better
    }
    record["runs"] = {
        side: {m: [round(x, 6) for x in v] for m, v in values[side].items()} for side in SIDES
    }
    return record


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "solvbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"bench_pairs: {workload} failed in {tree}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench_pairs: {workload} gave wrong answers in {tree}")
    return result


def export(rev: str, dest: Path):
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    claimed: dict[str, list[str]] = {}
    for claim in args.claim:
        workload, metric = claim.split(":")
        claimed.setdefault(workload, []).append(metric)

    bench = {
        "title": args.title,
        "commits": {"parent": git("rev-parse", args.parent),
                    "change": git("rev-parse", f"{args.change}:src")},
        "change_is": "git tree id of src/ as measured (git rev-parse <commit>:src)",
        "command": f"python3 solvbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "host": f"{os.cpu_count()}-vCPU {platform.machine()} host, Python "
                f"{platform.python_version()}; run.py pins each run to one CPU and scales "
                f"times to its nominal machine speed",
        "method": "alternating pairs (parent first in even-numbered pairs); each side ran "
                  "from its own copy of the tree, in sibling directories with paths of "
                  "equal length",
        "claimed": claimed,
        "workloads": {},
        "trace": {"note": "one --trace 1 run per side on each claimed workload; per-layer "
                          "times are not scaled to the nominal machine speed"},
    }
    with tempfile.TemporaryDirectory() as workdir:
        trees = {side: Path(workdir) / side for side in SIDES}
        for side in SIDES:
            export(getattr(args, side), trees[side])
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_bench(trees[side], workload, args.seed, seconds, 0))
                    print(f"{workload} pair {pair} {side}: wall_s "
                          f"{runs[side][-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            bench["workloads"][workload] = summarize(runs, better, [args.seed])
        for workload in claimed:
            traced = {side: run_bench(trees[side], workload, args.seed, seconds, 1)
                      for side in SIDES}
            bench["trace"][workload] = {
                side: {m: v["value"] for m, v in traced[side]["metrics"].items()}
                for side in SIDES
            }
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
