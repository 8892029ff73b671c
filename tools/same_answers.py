#!/usr/bin/env python3
"""Check that two revisions give the same answers on the command line.

    python3 tools/same_answers.py --parent REV --change REV [--seed N]

Both revisions are exported as ``tools/bench_pairs.py`` exports them.  One
seeded corpus of command lines, built here and not by either tree, then
runs through each tree's ``solvkit.cli.main``, each tree in its own
process, with Python's default limit on decimal digits.  The corpus
covers every subcommand in text and ``--json`` and the ``--help`` of every
command and group, random signatures with
words that hide conjugated relators, ``gc member`` vectors, ``snf`` and
``minors`` matrix files, bad inputs, words that stress the parser, the
edges of the residue budget and ``verify all`` at seeds 0 and 7.  The
script prints the number of calls, one sha256 per side over every call's
exit code, stdout and stderr, and each call on which the sides differ; it
exits 1 when any call differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export  # noqa: E402

# Runs in the child: the corpus comes on stdin and the results go to stdout.
RUNNER = r"""
import contextlib, io, json, pathlib, sys
src = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import solvkit
from solvkit.cli import main
if not pathlib.Path(solvkit.__file__).resolve().is_relative_to(src):
    sys.exit(f"solvkit was imported from {solvkit.__file__}, not from {src}")
job = json.load(sys.stdin)
for name, text in job["files"].items():
    path = pathlib.Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
results = []
for argv in job["calls"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

# Products of distinct cyclotomic polynomials: virtually abelian, and x^N
# stays small however large N is.  The residue budget refuses the others.
# Then products with a repeated factor, (x - 1)^2, Phi_3^2, Phi_4^2 and
# -Phi_6^3, and Lehmer's polynomial, which has a root off the unit circle:
# each passes the fast exits of properness and reaches its root-squaring.
CYCLOTOMIC = ["1,1", "1,-1", "1,0,1", "1,1,1", "1,-1,1", "-1,0,0,1", "1,0,0,0,1",
              "1,-2,1", "1,2,3,2,1", "1,0,2,0,1", "-1,3,-6,7,-6,3,-1",
              "1,1,0,-1,-1,-1,-1,-1,0,1,1"]
EDGE_SIGNATURES = ["2,-1", "-2,3", "3,-7,5,2", "1,3,-2"]
EDGE_SHIFTS = [2**17, 2**18 - 1, 2**18, 2**19 - 1, 2**19, 2**20 - 1, 2**20, 10**20]
# R = b^2 a^-1 b^-1 a is the relator of 2,-1; N has 20 digits.
R, N = "b^2 a^-1 b^-1 a", 10**20 - 1
MALFORMED = {
    "string-row": '{"rows": 1, "cols": 2, "entries": ["12"]}',
    "string-entries": '{"rows": 2, "cols": 1, "entries": "12"}',
    "bool-rows": '{"rows": true, "cols": 1, "entries": [["5"]]}',
    "nested": "[" * 5000 + "]" * 5000,
    "not-json": "{rows: 1}",
    "no-keys": "{}",
    "shape": '{"rows": 2, "cols": 2, "entries": [["1", "2"]]}',
    "zero-den": '{"rows": 1, "cols": 1, "entries": [["1/0"]]}',
    "fraction": '{"rows": 1, "cols": 2, "entries": [["1/2", "3"]]}',
    "float": '{"rows": 1, "cols": 1, "entries": [[1.5]]}',
    "huge-exponent": '{"rows": 1, "cols": 1, "entries": [["1e1000000000"]]}',
}


def _signature(rng: random.Random, s_max: int = 5) -> str:
    s = rng.randint(1, s_max)
    coeffs = [rng.choice([-1, 1]) * rng.randint(1, 9)]
    coeffs += [rng.randint(-9, 9) for _ in range(s - 1)]
    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 9))
    g = math.gcd(*coeffs)
    return ",".join(str(x // g) for x in coeffs)


def _relator(c: str) -> str:
    """``b_0^{c_0} ... b_s^{c_s}`` with ``b_i = a^-i b a^i``."""
    coeffs = [int(x) for x in c.split(",")]
    return " ".join(f"a^{-i} b^{x} a^{i}" for i, x in enumerate(coeffs) if x)


def _word(rng: random.Random, c: str) -> str:
    """Random letters with conjugated relators of ``c`` put in; a third of
    the words are conjugated relators only, and so trivial."""
    terms = []
    if rng.random() > 0.3:
        terms = [f"{rng.choice('ab')}^{rng.randint(-6, 6)}" for _ in range(rng.randint(0, 8))]
    for _ in range(rng.randint(not terms, 2)):
        k = rng.choice([rng.randint(-40, 40), rng.randint(-(10**6), 10**6)])
        at = rng.randint(0, len(terms))
        terms[at:at] = [f"a^{-k} {_relator(c)} a^{k}"]
    return " ".join(terms)


def _runs(rng: random.Random, terms: int, zero_sum: bool) -> str:
    """``terms`` terms in runs of one to four powers of one generator, the
    generators taking turns, so that adjacent powers merge; with
    ``zero_sum``, half of the runs end with the power that cancels them,
    which lets the runs on either side merge in turn."""
    out, gen = [], rng.choice("ab")
    while len(out) < terms:
        run = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        if zero_sum and rng.random() < 0.5:
            run.append(-sum(run))
        out += [gen if exp == 1 else f"{gen}^{exp}" for exp in run]
        gen = "b" if gen == "a" else "a"
    return " ".join(out[:terms])


def _scalar(rng: random.Random) -> str:
    n = rng.randint(-12, 12)
    den, exponent = rng.choice([1, 2, 3, 4, 6, 9, 12]), rng.randint(-2, 2)
    return rng.choice([str(n), f"{n}/{den}", f"{n}e{exponent}"])


def corpus(seed: int) -> tuple[list[list[str]], dict[str, str]]:
    """``(calls, files)``: the argument lists to run, in order, and the
    matrix files (relative path to text) to write before the first call."""
    rng = random.Random(seed)
    calls: list[list[str]] = []
    files: dict[str, str] = {}

    def both(*argv):
        calls.append(list(argv))
        calls.append([*argv, "--json"])

    signatures = [_signature(rng) for _ in range(120)] + CYCLOTOMIC + EDGE_SIGNATURES
    for c in signatures:
        for _ in range(3):
            word = _word(rng, c)
            both("gc", "eval", f"--c={c}", word)
            both("gc", "is-identity", f"--c={c}", word)
        both("gc", "is-proper", "--c", c)
        both("gc", "abelianization", "--c", c)
        low = rng.randint(-5, 5)
        both("gc", "interval", "--c", c, "--from", str(low), "--to", str(low + rng.randint(-1, 8)))
        both("gc", "index", "--c", c, "--t", str(rng.choice([1, 2, 6, 12, 30, 10**12 + 39])),
             "--cap", str(rng.randint(0, 20)))
        vector = ",".join(_scalar(rng) for _ in range(c.count(",")))
        both("gc", "member", "--c", c, "--v", vector, "--jmax", str(rng.randint(0, 6)))
        both("band", "--c", c, "--m", str(rng.randint(1, 6)))

    # gc member hits for s = 1, where x = -c_0 / c_1 modulo c, with the
    # default window bound.
    for c0, c1 in [(2, -1), (-2, 3), (3, 2), (1, -4)]:
        for i, coeff in [(-1, 1), (2, -3), (-3, 5)]:
            both("gc", "member", f"--c={c0},{c1}", f"--v={coeff * Fraction(-c0, c1) ** i}")
    both("gc", "member", "--c", "2,-1", "--v", "-1/2,3")
    both("gc", "member", "--c", "3,-7,5,2", "--v", "1/7,1/7,1/7", "--jmax", "3")
    # Windows wider than gcgroup.STEP_LIMIT: hits at j = 40, the misses one
    # window short of them, a miss that solves 36 windows and misses that
    # skip every window.
    for c, v, jmax in [("2,-1", "1/1099511627776", 40), ("2,-1", "1/1099511627776", 39),
                       ("-2,0,-3", f"1/{2**20 * 3**10},1/{3**20}", 40),
                       ("-2,0,-3", f"1/{2**20 * 3**10},1/{3**20}", 39), ("3,-1,2", f"1/{6**12},1/{6**15}", 50),
                       ("2,-1", "1/3", 50), ("1,3,-2", "1/5,0", 50), ("3,-7,5,1,-6,2,7", ",".join(["1/11"] * 6), 33)]:
        both("gc", "member", f"--c={c}", f"--v={v}", "--jmax", str(jmax))

    for name, text in MALFORMED.items():
        files[f"matrices/{name}.json"] = text
    for k in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        size = rng.choice([9, 9, 10**6, 10**30])
        entries = [[str(rng.randint(-size, size)) for _ in range(cols)] for _ in range(rows)]
        files[f"matrices/m{k}.json"] = json.dumps({"rows": rows, "cols": cols, "entries": entries})
    band = [[[3, -7, 5, 2][j - i] if 0 <= j - i <= 3 else 0 for j in range(9)] for i in range(6)]
    files["matrices/band.json"] = json.dumps(
        {"rows": 6, "cols": 9, "entries": [[str(x) for x in row] for row in band]})
    for name in [*sorted(files), "matrices/missing.json"]:
        both("snf", "--in", name)
        both("minors", "--in", name)

    for _ in range(60):
        modulus = rng.choice([None, None, 2, 3, 5, 12, 1, 0, -3])
        mod = [] if modulus is None else ["--mod", str(modulus)]
        word = _word(rng, "1,1")
        both("wreath", "eval", *mod, word)
        both("wreath", "is-identity", *mod, word)

    for c in EDGE_SIGNATURES:
        for n in EDGE_SHIFTS:
            calls.append(["gc", "eval", f"--c={c}", "--json", f"a^-{n} b a^{n}"])
            calls.append(["gc", "eval", f"--c={c}", "--json", f"a^{n} b a^-{n}"])
            both("gc", "is-identity", f"--c={c}", f"b a^{n} b^-1 a^-{n}")
    for word in [f"a^{N} {R} a^-{N} b", f"{R} a^{N} {R} a^-{N}", f"b a^{N} b^-1 a^-{N}",
                 f"a^-{N} b a^{N}", f"a^-{N}", "a^-14000 b a^14000", "a^-20000 b a^20000"]:
        both("gc", "eval", "--c", "2,-1", word)
        both("gc", "is-identity", "--c", "2,-1", word)

    for n in [-1, 0, 1, 2, 3, 7, 12, 1331, 1332, 10**30]:
        both("minkowski", "--n", str(n))
    for m in [0, 1, 1000, 1001]:
        both("band", "--c", "2,3", "--m", str(m))

    bad = [
        "", "gc", "frob", "gc eval --c 2,-1", "gc eval --c 2,4 b", "gc eval --c 0,1 b",
        "gc eval --c 3 b", "gc eval --c= b", "gc eval --c x,1 b", "gc eval --c 2,-1 c",
        "gc eval --c 2,-1 b^", "gc eval --c 2,-1 b^²", "gc is-identity --c 2,-1 a^-",
        "gc index --c 2,-1 --t 0", "gc index --c 2,-1 --t 3 --cap -1",
        "gc interval --c 2,-1 --from 3 --to 1", "gc member --c 2,-1 --v 1/0",
        "gc member --c 2,-1 --v 1,2", "gc member --c 2,-1 --v 1/3 --jmax 51",
        "gc member --c 2,-1 --v 1/3 --jmax -1", "gc member --c 2,-1 --v 1e100000000",
        "gc member --c 2,-1 --v x", "wreath eval --mod 1.5 b", "verify all --seed x", "snf",
        "minkowski --n two", "--help", "gc eval --help", "gc index --help", "gc member --help",
        "wreath eval --help", "minkowski --help", "snf --help", "verify all --help",
        # help for the rest of the commands and the groups, groups alone, and
        # calls that name no whole command path first
        "gc is-identity --help", "gc is-proper --help", "gc abelianization --help",
        "gc interval --help", "band --help", "minors --help", "wreath is-identity --help",
        "gc --help", "wreath --help", "verify --help", "wreath", "verify", "gc frob b",
        "gc ev --c 2,-1 b", "--json gc eval --c 2,-1 b", "gc --c 2,-1 eval b",
    ]
    for argv in bad:
        both(*argv.split())

    # Words that stress the parser: terms with no space between them, other
    # separators, other decimal digits, errors far into the text and
    # exponents either side of Python's 4,300-digit limit.
    huge = "7" * 4301
    parser_words = [
        "a^2b^-3a^-2b^3", "ab^-1a^-1b", "a\tb\na^-1\u3000b^-1", "\u3000a^٣ b^-٣\t",
        "a^007 b a^-007", "a^-0 b^-0 a", "b^0", " \n\t\u3000", "a b " * 60 + "a^",
        "a^-1 b " * 60 + "x", "b^2" * 80 + "b^-", "a b^² a^-1", f"a^{huge} x", f"x a^{huge}",
        f"b a^-{huge}b^", f"a^{huge[:4300]} b a^-{huge[:4300]}",
        # Zero-sum runs and cascades, a leading b and a trailing a, and
        # 5,000-term words whose runs merge, drawn last from the seed.
        "b a a^-1 b", "a b b^-1 a^-1", "a b a b^-1 a^-1 b^-1 a^-1 b",
        "a b " * 300 + "b^-1 a^-1 " * 300, "b^2 a b^-1 a^3", "b a^-2 b^0 b^-1 a^2 a",
        "b^-1 a b a^-1 b a",
        _runs(rng, 5000, False), _runs(rng, 5000, True), _runs(rng, 5000, True),
    ]
    for word in parser_words:
        both("gc", "eval", "--c", "2,-1", word)
        both("gc", "is-identity", "--c", "-2,3", word)
        both("wreath", "eval", "--mod", "3", word)

    for seed_value in ("0", "7"):
        both("verify", "all", "--seed", seed_value)
    return calls, files


def run_tree(tree: Path, calls, files) -> list:
    unset = ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, "-c", RUNNER, str(tree / "src")],
            input=json.dumps({"calls": calls, "files": files}),
            capture_output=True, text=True, cwd=work, env=env,
        )
    if done.returncode:
        raise SystemExit(f"same_answers: the run in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--seed", type=int, default=0, help="seed of the corpus")
    args = parser.parse_args(argv)

    calls, files = corpus(args.seed)
    results = {}
    with tempfile.TemporaryDirectory() as workdir:
        for side in SIDES:
            tree = Path(workdir) / side
            export(getattr(args, side), tree)
            results[side] = run_tree(tree, calls, files)
    print(f"{len(calls)} calls, seed {args.seed}")
    for side in SIDES:
        digest = hashlib.sha256(json.dumps(results[side]).encode()).hexdigest()
        print(f"{side} {getattr(args, side)}: sha256 {digest}")
    differing = 0
    for argv, old, new in zip(calls, results["parent"], results["change"]):
        if old != new:
            differing += 1
            print(f"differs: {json.dumps(argv)[:300]}")
            for side, (code, out, err) in zip(SIDES, (old, new)):
                print(f"  {side}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}")
    print(f"{differing} of {len(calls)} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
