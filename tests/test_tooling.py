import ast
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "solvkit").glob("*.py"))


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
