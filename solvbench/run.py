#!/usr/bin/env python3
"""solvkit benchmark: one closed-loop workload per run.

    python3 solvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; solvkit is imported from ``src/``.  One
client in one process sends each operation after the previous one
returns.  The inputs and their known answers come from ``--seed``
(``workloads.py``).  Every *pass* runs all operations of the workload once
in a fresh interpreter, so solvkit's in-process caches start empty and
their fill is paid for as a user would pay for it.  Passes repeat until
``--seconds`` is used (at least two, and at least ``MIN_SAMPLES`` operations);
the end-to-end metrics are medians over passes or over all operations,
scaled to a nominal machine speed (see ``REF_NOMINAL_S``).  The run and
every process it starts are pinned to one CPU.

``--trace 1`` runs one plain pass and one pass with the per-layer wrappers
of ``tracing.py`` and reports the per-layer metrics plus
``trace.overhead_ratio``, the traced over the plain wall time (both
scaled).  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat each
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-harness", "word-problem", "exact-linalg", "cli-calls")
# p90 needs at least ten samples above it; verify-harness has few, slow ops
MIN_SAMPLES = {"verify-harness": 1, "word-problem": 100, "exact-linalg": 100, "cli-calls": 100}
MIN_PASSES = 2
SETUP_CHILDREN = 3
OP_TIMEOUT_S = 60
RUN_LIMIT_S = 150
SIZES = {
    "verify-harness": "verify.run_all on 6 child seeds",
    "word-problem": "84 words/pass: s in {2,4,8}, length 100 (79%), 1000 (18%), 5000 (4%, s<=4); "
                    "half trivial, half reusing a signature",
    "exact-linalg": "192 ops/pass: snf band m 10-100 and dense n in {10,20,30}, solve 4-16 dims, "
                    "membership/index s<=4, properness s<=10, interval, abelianization",
    "cli-calls": "36 subprocess calls/pass of python -m solvkit ... --json",
}
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


# The speed of a shared host can switch between a fast and a ~40% slower
# state within seconds, more than any bound worth setting.  Every
# benchmark process therefore times a fixed pure-Python computation (big
# integers and fractions, no solvkit) before and after its set-up, before
# its first operation, every REF_EVERY_S between operations and after the
# last one.  A set-up time is scaled by REF_NOMINAL_S / (mean of the two
# reference times around it), an operation time by REF_NOMINAL_S / (median
# of the REF_WINDOW reference times nearest to it, half before and half
# after; a median, so that one disturbed reference does not skew it).
# Scaled times read as seconds on a machine where the reference takes
# REF_NOMINAL_S.  The unscaled values are printed as well.
REF_NOMINAL_S = 0.015
REF_EVERY_S = 0.25
REF_WINDOW = 4


def reference_s() -> float:
    start = time.perf_counter()
    f = Fraction(1, 3)
    for i in range(1, 500):
        f = f * Fraction(i + 2, i + 1) - Fraction(1, i * i + 1)
    x = 7**600
    rows = [[(x * (i + j)) % (10**40 + i) for j in range(50)] for i in range(50)]
    tuple(sum(r) for r in rows)
    return time.perf_counter() - start


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- child: one pass in a fresh interpreter ---------------------------------------


def run_ops(ops, checks, digest, tracer=None):
    """Time each op, then check its answer outside the timed region.

    Also returns the reference times taken between the ops (see
    ``REF_NOMINAL_S``) and, for each op, the index of the last one taken
    before it."""
    latencies, marks, failures, digests = [], [], [], []
    signal.signal(signal.SIGALRM, _on_alarm)
    refs = [reference_s()]
    last_ref = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last_ref > REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
        marks.append(len(refs) - 1)
        error = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            result = tracer.call("op." + op.kind, op.call) if tracer else op.call()
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                if not checks[op.kind][0](result, op.expected):
                    error = "wrong answer"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{op.kind}: {error}")
        elif op.kind == "verify":
            digests.append(digest(result))
    refs.append(reference_s())
    return latencies, refs, marks, failures, digests


def cli_layers(seed: int, quick: bool) -> dict:
    """In-process ``cli.main`` time and fresh-interpreter import time."""
    from solvkit import cli

    import workloads

    inprocess, failures = [], 0
    for argv, line in workloads.cli_requests(random.Random(seed), workloads.CLI_CALLS[quick]):
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        inprocess.append(time.perf_counter() - start)
        failures += code != 0 or buffer.getvalue() != line
    probe = "import time; t = time.perf_counter(); import solvkit.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(5):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    return {
        "cli.import_ms": statistics.median(imports) * 1000,
        "cli.main_inprocess_ms": statistics.median(inprocess) * 1000,
        "_attempted": len(inprocess),
        "_failures": failures,
    }


def child(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    ref_before = reference_s()
    start = time.perf_counter()
    import solvkit

    ops = workloads.GENERATORS[args.workload](args.seed, args.quick)
    setup_s = time.perf_counter() - start
    if Path(solvkit.__file__).resolve().parent != SRC / "solvkit":
        print(f"solvbench: imported solvkit from {solvkit.__file__}, not {SRC}", file=sys.stderr)
        return 1
    out = {"setup_s": setup_s, "setup_ref": (ref_before + reference_s()) / 2}
    if args.child == "setup":
        print(json.dumps(out))
        return 0
    checks = workloads.CHECKS
    if args.wrong:
        checks = {kind: (lambda r, e, c=c, w=w: c(r, w(e)), w) for kind, (c, w) in checks.items()}
    tracer = None
    if args.wrap:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    latencies, refs, marks, failures, digests = run_ops(ops, checks, workloads.digest, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-calls" else resource.RUSAGE_SELF
    out.update(
        latencies=latencies,
        refs=refs,
        marks=marks,
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:5],
        rss_mb=resource.getrusage(who).ru_maxrss / 1024,
        digests=digests,
    )
    if tracer:
        from solvkit import gcgroup

        layers = tracer.metrics(workloads.LEMMA_IDS)
        layers.update(tracing.cache_counts(gcgroup))
        cli = dict.fromkeys(tracing.CLI_TIMINGS, 0.0)
        if args.workload == "cli-calls":
            cli.update(cli_layers(args.seed, args.quick))
            cli["cli.process_ms"] = statistics.median(latencies) * 1000
            out["attempted"] += cli.pop("_attempted")
            out["failed"] += cli.pop("_failures")
        layers.update(cli)
        out["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(out))
    return 0


# -- parent: orchestrate passes and report ----------------------------------------


def spawn(args, mode: str, timeout: float, wrap: bool = False) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--child", mode]
    cmd += ["--wrap"] * wrap + ["--quick"] * args.quick + ["--wrong"] * args.wrong
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"solvbench: {mode} pass timed out", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"solvbench: {mode} pass exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def local_refs(p) -> list[float]:
    """For each op of pass ``p``, the median of the REF_WINDOW reference
    times taken nearest to it, half before and half after."""
    refs, half = p["refs"], REF_WINDOW // 2
    return [statistics.median(refs[max(0, m + 1 - half):m + 1 + half]) for m in p["marks"]]


def scaled_latencies(p, scale) -> list[float]:
    return [x * scale(r) for x, r in zip(p["latencies"], local_refs(p))]


def scaled_wall(p) -> float:
    return sum(scaled_latencies(p, lambda r: REF_NOMINAL_S / r))


def end_to_end(children, passes, scale) -> dict[str, float]:
    """The end-to-end metrics; each set-up and operation time is multiplied
    by ``scale(reference time measured around it)``."""
    per_pass = [scaled_latencies(p, scale) for p in passes]
    walls = [sum(lat) for lat in per_pass]
    latencies = sorted(x for lat in per_pass for x in lat)
    return {
        "setup_s": statistics.median(c["setup_s"] * scale(c["setup_ref"]) for c in children),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(len(lat) / wall for lat, wall in zip(per_pass, walls)),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": nearest_rank(latencies, 0.9) * 1000,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def parent(args) -> int:
    # One CPU for this process and every process it starts, so that the
    # reference computation runs on the CPU whose speed it stands for
    # (cli-calls' subprocesses otherwise land on either CPU).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    if spawn(args, "setup", remaining()) is None:  # also compiles the bytecode
        return 1
    setups = [spawn(args, "setup", remaining()) for _ in range(SETUP_CHILDREN)]
    passes, broken = [], 0
    if args.trace:
        plain = spawn(args, "pass", remaining())
        traced = spawn(args, "pass", remaining(), wrap=True)
        if plain is None or traced is None:
            return 1
        passes = [plain, traced]
    else:
        last = 0.0
        while remaining() > 0:
            samples = sum(len(p["latencies"]) for p in passes)
            enough = len(passes) >= MIN_PASSES and (args.quick or samples >= MIN_SAMPLES[args.workload])
            begun = time.perf_counter()
            if enough and begun - start + last > args.seconds:
                break
            result = spawn(args, "pass", remaining())
            last = time.perf_counter() - begun
            if result is None:
                broken += 1
                if broken > 1:
                    break
                continue
            passes.append(result)
    if not passes:
        print("solvbench: no pass completed", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes) + broken
    failed = sum(p["failed"] for p in passes) + broken
    for p in passes:
        for failure in p["failures"]:
            print(f"solvbench: failed op: {failure}", file=sys.stderr)
    digests = {tuple(p["digests"]) for p in passes}
    consistent = len(digests) == 1
    if not consistent:
        print("solvbench: verify JSON differs between repeats of one seed", file=sys.stderr)

    children = [s for s in setups if s] + passes
    ref = statistics.median(r for p in passes for r in p["refs"])
    samples = sum(len(p["latencies"]) for p in passes)
    print(f"solvbench {args.workload} seed={args.seed}: {len(passes)} passes, {samples} ops, "
          f"closed loop with 1 client; {SIZES[args.workload]}")
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} attempted)")
    print(f"reference computation: median {ref} s between operations, nominal {REF_NOMINAL_S} s")
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = scaled_wall(traced) / scaled_wall(plain)
        units = {name: layer_unit(name) for name in metrics}
        raw = metrics
    else:
        metrics = end_to_end(children, passes, lambda r: REF_NOMINAL_S / r)
        raw = end_to_end(children, passes, lambda r: 1.0)
        units = END_TO_END_UNITS
    counts = {"setup_s": f"median of {len(children)} set-ups",
              "wall_s": "median of unscaled passes " + ", ".join(f"{sum(p['latencies']):.3f}" for p in passes),
              "latency_p50_ms": f"n={samples}", "latency_p90_ms": f"n={samples}"}
    for name, value in metrics.items():
        notes = [f"unscaled {raw[name]}"] if raw[name] != value else []
        notes += [counts[name]] if name in counts else []
        print(f"{name} {value} {units[name]}" + (f" ({'; '.join(notes)})" if notes else ""))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith(("_ms", "_ratio")):
        return name.rsplit("_", 1)[1]
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--wrong", action="store_true",
                        help="check against deliberately wrong answers, for the self-test")
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--wrap", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # solvkit's certificates are bare asserts: under -O they vanish
        print("solvbench: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "solvkit" / "__init__.py").is_file():
        print(f"solvbench: no solvkit sources under {SRC}", file=sys.stderr)
        return 1
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
