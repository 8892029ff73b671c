import ast
import subprocess
import sys
from pathlib import Path

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
