import argparse
import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from solvkit import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "solvkit").glob("*.py"))


def test_no_bare_asserts_in_library():
    # Certificates must survive python -O, which strips assert statements.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def scopes(node, where):
    """Each node under ``node``, with the dotted name of the module, class
    and function it sits in."""
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
        inner = f"{where}.{child.name}" if named else where
        yield child, inner
        yield from scopes(child, inner)


def test_values_are_checked_once_with_one_int_test():
    # A value class checks its fields in its own __init__, and an int that
    # must be no bool is refused by _int_only; the other isinstance(.., bool)
    # tests choose by type what to do with a value rather than refuse it.
    nodes = [
        (node, where)
        for path in SOURCES
        for node, where in scopes(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    hooks = [where for node, where in nodes
             if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    bool_tests = {
        where
        for node, where in nodes
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
        and ast.unparse(node.args[1]) == "bool"
    }
    assert nodes and hooks == []
    assert bool_tests == {"_value._int_only", "linalg.exact_scalar", "linalg.scalar_from_str",
                          "linalg.Matrix.__mul__"}


def test_values_are_stored_built_and_powered_in_one_place():
    # _Value._set stores the fields and _Value._unchecked builds a value
    # without the checks; GcElement stores a residue pair, which is no field,
    # GcSignature stores s, and Matrix has __slots__.  _power owns the rule
    # for a negative exponent.
    calls = {"object.__new__": set(), "object.__setattr__": set()}
    compares = {}
    for path in SOURCES:
        for node, where in scopes(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in calls:
                calls[ast.unparse(node.func)].add(where)
            if isinstance(node, ast.FunctionDef) and node.name in ("gc_pow", "wr_pow", "mat_pow"):
                exponent = node.args.args[-1].arg
                compares[node.name] = [
                    ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Compare)
                    and exponent in {ast.unparse(side) for side in (n.left, *n.comparators)}
                ]
    assert calls["object.__new__"] == {"_value._Value._unchecked", "gcgroup._element",
                                       "linalg.Matrix._of_int_rows"}
    assert {where for where in calls["object.__setattr__"]
            if not where.startswith(("_value.", "gcgroup.GcElement."))} == {
        "gcgroup._element", "forms.GcSignature.__init__"}
    assert compares == {"gc_pow": [], "wr_pow": [], "mat_pow": []}


def test_verify_all_is_the_same_under_optimize_flag():
    # python -O strips assert statements; the checks must not depend on them.
    command = ["-m", "solvkit", "verify", "all", "--seed", "0", "--json"]
    plain = subprocess.run([sys.executable, *command], capture_output=True, timeout=120)
    optimized = subprocess.run([sys.executable, "-O", *command], capture_output=True, timeout=120)
    assert (plain.returncode, optimized.returncode) == (0, 0), optimized.stderr.decode()
    assert optimized.stdout == plain.stdout


def test_budgets_and_limits_are_documented():
    # A module constant that bounds work or selects a path belongs in the README.
    names = [
        target.id
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith(("_BUDGET", "_LIMIT"))
    ]
    assert "STEP_LIMIT" in names
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in names if name not in readme] == []


def test_each_check_runs_once_and_takes_only_rng():
    # run_all is the harness: a check it never calls, or a check with a knob
    # only the tests set, is a second way to run a lemma.
    tree = ast.parse((ROOT / "src" / "solvkit" / "verify.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
    checks = {
        node.name: ast.unparse(node.args)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }
    run_all = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_all")
    called = [
        node.func.id
        for node in ast.walk(run_all)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert checks
    assert {name: called.count(name) for name in checks} == dict.fromkeys(checks, 1)
    assert {name: args for name, args in checks.items() if args not in ("", "rng")} == {}


def test_each_check_is_a_case_generator_under_one_lemma():
    # _lemma's loop is the one place that counts cases and keeps the first
    # failure; a check yields (ok, template, *args) and holds no recorder.
    tree = ast.parse((ROOT / "src" / "solvkit" / "verify.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    lemmas = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_"):
            (decorator,) = node.decorator_list
            assert isinstance(decorator, ast.Call) and ast.unparse(decorator.func) == "_lemma"
            (lemma_id,) = decorator.args
            assert isinstance(lemma_id, ast.Constant) and isinstance(lemma_id.value, str)
            lemmas[node.name] = lemma_id.value
    assert classes == ["LemmaReport"]
    assert len(lemmas) == len(set(lemmas.values())) == 10


def test_failure_text_and_word_text_each_have_one_owner():
    # _lemma formats a description only for the first failing case, so no
    # check yields an f-string; word_lamps parses text, so the group models
    # neither parse nor test for str.
    tree = ast.parse((ROOT / "src" / "solvkit" / "verify.py").read_text(encoding="utf-8"))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    formatted = [
        f"{check.name}:{node.lineno}"
        for check in checks
        for node in ast.walk(check)
        if isinstance(node, ast.Yield) and any(isinstance(n, ast.JoinedStr) for n in ast.walk(node))
    ]
    assert len(checks) == 10 and formatted == []
    for name in ("gcgroup", "wreath"):
        module = ast.parse((ROOT / "src" / "solvkit" / f"{name}.py").read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(module) if isinstance(node, ast.Call)]
        assert [ast.unparse(call) for call in calls if ast.unparse(call.func) == "parse_word"
                or ast.unparse(call.func) == "isinstance" and ast.unparse(call.args[1]) == "str"] == []


def test_cli_prints_only_in_main():
    # Handlers return (payload, text); main is the one place that writes them.
    tree = ast.parse((ROOT / "src" / "solvkit" / "cli.py").read_text(encoding="utf-8"))

    def prints(node):
        return [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "print"
        ]

    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert prints(main)
    assert prints(tree) == prints(main)


def test_bench_files_name_commits_seeds_and_workloads():
    # A speed claim counts only with a before/after BENCH_<n>.json at the root.
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in contract["workloads"]}
    metrics = [m["name"] for m in contract["end_to_end"]]
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text(encoding="utf-8"))
        commits = bench["commits"]
        assert all(isinstance(commits[side], str) and commits[side] for side in ("parent", "change"))
        assert bench["run_seconds"] > 0
        assert set(bench["workloads"]) == workloads, path.name
        for name, runs in bench["workloads"].items():
            assert runs["seeds"] and all(isinstance(seed, int) for seed in runs["seeds"]), name
            for side in ("parent", "change"):
                for metric in metrics:
                    quartiles = runs[side][metric]
                    assert quartiles["q1"] <= quartiles["median"] <= quartiles["q3"], (name, side, metric)


def test_bench_pairs_summary_on_canned_runs():
    # The summary step of tools/bench_pairs.py, on run results written out
    # by hand; no benchmark runs.
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    better = {"wall_s": "lower", "ops_per_s": "higher"}

    def run(wall, failed=0):
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "ops_per_s": {"value": 6 / wall, "unit": "1/s"}}
        return {"correct": True, "attempted": 6, "failed": failed, "metrics": metrics}

    runs = {
        "parent": [run(w) for w in (2.0, 2.4, 2.1, 2.2, 2.3)],
        "change": [run(w) for w in (1.9, 2.4, 1.8, 1.7, 2.2)],
    }
    runs["change"][1]["failed"] = 1
    record = bench_pairs.summarize(runs, better, [5])
    assert record["seeds"] == [5] and record["pairs"] == 5
    assert record["attempted"] == {"parent": 30, "change": 30}
    assert record["failed"] == {"parent": 0, "change": 1}
    assert record["parent"]["wall_s"] == {"median": 2.2, "q1": 2.1, "q3": 2.3}
    assert record["change"]["wall_s"] == {"median": 1.9, "q1": 1.8, "q3": 2.2}
    # the tie in pair 1 counts for neither side
    assert record["change_wins"] == {"wall_s": "4 of 5", "ops_per_s": "4 of 5"}
    assert record["change_over_parent_median"]["wall_s"] == round(1.9 / 2.2, 4)
    assert record["runs"]["change"]["wall_s"] == [1.9, 2.4, 1.8, 1.7, 2.2]
    assert record["runs"]["parent"]["ops_per_s"] == [round(6 / w, 6) for w in (2.0, 2.4, 2.1, 2.2, 2.3)]


def test_same_answers_corpus_is_seeded_and_covers_every_command():
    # The corpus of tools/same_answers.py, built without exporting or running
    # any revision.
    spec = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
    same_answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_answers)
    calls, files = same_answers.corpus(3)
    assert (calls, files) == same_answers.corpus(3)
    assert calls != same_answers.corpus(4)[0]
    assert all(isinstance(arg, str) for argv in calls for arg in argv)

    def leaves(parser, path=()):
        subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subparsers:
            return [path]
        return [leaf for a in subparsers for name, sub in a.choices.items()
                for leaf in leaves(sub, path + (name,))]

    commands = leaves(cli._build_parser())
    assert len(commands) == 14
    for command in commands:
        used = [argv for argv in calls if tuple(argv[: len(command)]) == command]
        assert any("--json" in argv for argv in used), command
        assert any("--json" not in argv for argv in used), command
    read = {argv[argv.index("--in") + 1] for argv in calls if "--in" in argv}
    assert set(files) <= read and len(read - set(files)) == 1
    seeds = {argv[3] for argv in calls if argv[:3] == ["verify", "all", "--seed"]}
    assert {"0", "7"} <= seeds
