#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about half a minute).

    python3 solvbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that the
result line names exactly the metrics of ``BENCHMARK.json``.  Then checks
that every known-answer check rejects a deliberately wrong answer, both op
by op and through a whole run (``--wrong`` must give ``failed ==
attempted``), that ``python -O`` is refused, and that a directory without
the solvkit sources fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(*extra, python=(sys.executable,), cwd=ROOT, workload="exact-linalg"):
    cmd = [*python, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metric_names(spec):
    for workload in spec["workload_names"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            result = result_line(run("--quick", "--trace", trace, workload=workload))
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        print(f"ok  {workload}: every end-to-end and per-layer metric printed")


def check_oracles_reject_wrong_answers(spec):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = str(ROOT / "src")  # for the cli-calls subprocesses
    import workloads

    seen = set()
    for workload in spec["workload_names"]:
        for op in workloads.GENERATORS[workload](3, True):
            if op.kind in seen:
                continue
            seen.add(op.kind)
            check, wrong = workloads.CHECKS[op.kind]
            result = op.call()
            assert check(result, op.expected), op.kind
            assert not check(result, wrong(op.expected)), op.kind
    assert seen == set(workloads.CHECKS), set(workloads.CHECKS) - seen
    print(f"ok  {len(seen)} checks accept the known answer and reject a wrong one")
    for workload in spec["workload_names"]:
        result = result_line(run("--quick", "--wrong", workload=workload))
        assert not result["correct"] and result["failed"] == result["attempted"] > 0, result
    print("ok  --wrong runs fail every operation")


def check_refusals():
    done = run("--quick", python=(sys.executable, "-O"))
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  python -O is refused")
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("--quick", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  a directory without solvkit sources fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["workload_names"] = [w["name"] for w in spec["workloads"]]
    check_metric_names(spec)
    check_oracles_reject_wrong_answers(spec)
    check_refusals()
    return 0


if __name__ == "__main__":
    sys.exit(main())
