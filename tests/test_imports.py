"""What ``import solvkit`` and each command load, and the public names.

With no bytecode cache (``PYTHONDONTWRITEBYTECODE``), every module a CLI
call loads is compiled from source in that call, so a command loads only
the modules it runs, and of the standard library's ``fractions`` only what
it builds.
"""

import importlib
import json
import subprocess
import sys
import types

import pytest

import solvkit
from solvkit import verify

PUBLIC = [
    "DimensionError", "GcElement", "GcSignature", "GeneratorWord", "IntervalSubgroupReport",
    "LemmaReport", "Matrix", "MembershipResult", "PowerIndexResult", "SNFResult",
    "SingularMatrixError", "WordParseError", "WreathElement", "band_matrix", "base_membership",
    "companion_action", "exact_scalar", "format_word", "gc_abelianization", "gc_eval",
    "gc_identity", "gc_inv", "gc_is_identity", "gc_is_proper", "gc_mul", "gc_pow", "gcgroup",
    "interval_subgroup", "linalg", "mat_pow", "matrix_from_json", "matrix_to_json",
    "minkowski_bound", "minor_gcds", "parse_signature", "parse_word", "power_subgroup_index",
    "relator_check", "run_all", "snf", "solve_integer_system", "verify", "words",
    "wr_base_relation", "wr_eval", "wr_inv", "wr_is_identity", "wr_mul", "wr_pow", "wreath",
]

# Runs ``python -m solvkit`` in this interpreter, then lists the solvkit
# submodules it loaded, and ``fractions`` if it was loaded, on the last line
# of stderr.
PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules
                                      if m.startswith("solvkit.") or m == "fractions"),
                              file=sys.stderr))
runpy.run_module("solvkit", run_name="__main__", alter_sys=True)
"""
EVERY = {"_value", "cli", "forms", "gcgroup", "linalg", "verify", "words", "wreath", "fractions"}
FORMS = {"_value", "cli", "forms"}
GC = FORMS | {"gcgroup", "words"}
LINALG = FORMS | {"linalg", "fractions"}
WREATH = {"_value", "cli", "words", "wreath"}


def loaded_by(*argv):
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          timeout=120)
    modules = done.stderr.splitlines()[-1].split()
    return done, {name.removeprefix("solvkit.") for name in modules}


def test_import_solvkit_loads_no_submodule():
    probe = "import sys, solvkit; print([m for m in sys.modules if m.startswith('solvkit.')])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_a_closed_form_read_from_the_package_loads_only_forms():
    probe = ("import sys, solvkit; solvkit.gc_is_proper; solvkit.minkowski_bound; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('solvkit.') or m == 'fractions'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (0, "['solvkit._value', 'solvkit.forms']\n"), \
        done.stderr


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        # a rational answer, printed from the residue pair with no Fraction
        (["gc", "eval", "--c", "2,-1", "--json", "a b a^-1"], 0, GC),
        (["gc", "member", "--c", "2,-1", "--v", "1/2"], 0, GC | LINALG),
        (["wreath", "eval", "--mod", "3", "--json", "b a b"], 0, WREATH),
        (["wreath", "is-identity", "b x"], 1, WREATH),
        (["minkowski", "--n", "2", "--json"], 0, FORMS),
        (["snf", "--in", "missing.json"], 1, LINALG),
        (["gc", "index", "--c", "2,-1", "--t", "4", "--json"], 0, FORMS),
        (["gc", "is-proper", "--c", "1,3,1", "--json"], 0, FORMS),
        (["band", "--c", "2,-1", "--m", "3", "--json"], 0, LINALG),
        (["gc", "is-identity", "--c", "2,-1", "--json", "a b a^-1"], 0, GC),
        (["gc", "interval", "--c", "2,-1", "--from", "0", "--to", "2"], 0, FORMS),
        (["gc", "abelianization", "--c", "2,-1", "--json"], 0, FORMS),
        (["--help"], 0, {"cli"}),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, code, modules):
    done, loaded = loaded_by(*argv)
    assert done.returncode == code, done.stderr
    assert loaded == modules


def test_importtime_logs_every_solvkit_module_a_command_loads():
    # ``-X importtime`` logs what the import system's C path loads, which a
    # module loaded through ``importlib.import_module`` would not reach.
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PROBE, "gc", "eval", "--c=2,-1", "--json", "b"],
        capture_output=True, text=True, timeout=120,
    )
    *log, loaded = done.stderr.splitlines()
    logged = {line.rsplit("|", 1)[-1].strip() for line in log if line.startswith("import time:")}
    assert done.returncode == 0, done.stderr
    assert set(loaded.split()) == {f"solvkit.{name}" for name in GC}, done.stderr
    assert set(loaded.split()) <= logged
    assert not logged & {"dataclasses", "inspect"}


def test_no_command_of_the_cli_mix_loads_dataclasses_or_inspect():
    # one call of each kind that the ``cli-calls`` benchmark mix makes
    calls = [
        ["gc", "is-identity", "--c=2,-1", "a^-1 b a b^-2"],
        ["gc", "eval", "--c=3,1,2", "a^-1 b a^2"],
        ["wreath", "eval", "--mod", "3", "b a b"],
        ["gc", "index", "--c=2,-1", "--t", "6"],
        ["gc", "interval", "--c=2,-1", "--from", "0", "--to", "3"],
        ["gc", "abelianization", "--c=2,-1"],
        ["gc", "is-proper", "--c=1,1"],
        ["band", "--c=2,-1", "--m", "2"],
        ["minkowski", "--n", "3"],
    ]
    probe = (
        "import json, sys\n"
        "from solvkit.cli import main\n"
        "codes = [main(argv + ['--json']) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(calls)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(calls)} []"


def test_verify_all_loads_everything_and_prints_the_library_report():
    done, loaded = loaded_by("verify", "all", "--seed", "0", "--json")
    assert done.returncode == 0
    assert loaded == EVERY
    assert done.stdout == json.dumps(verify.reports_to_json(verify.run_all(0))) + "\n"


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from solvkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert sorted(solvkit.__all__) == PUBLIC


def test_each_public_name_is_its_home_object():
    assert set(PUBLIC) <= set(dir(solvkit))
    for name in PUBLIC:
        value = getattr(solvkit, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"solvkit.{name}"]
        else:
            assert value is getattr(importlib.import_module(value.__module__), name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        solvkit.no_such_name  # noqa: B018
    assert not hasattr(solvkit, "_no_such_name")


def test_minkowski_bound_lives_in_forms_and_linalg_and_verify_reexport_it():
    from solvkit.verify import MINKOWSKI_N_BUDGET

    assert solvkit.verify.minkowski_bound is solvkit.linalg.minkowski_bound
    assert solvkit.minkowski_bound is solvkit.linalg.minkowski_bound
    assert solvkit.linalg.minkowski_bound is solvkit.forms.minkowski_bound
    assert MINKOWSKI_N_BUDGET == solvkit.linalg.MINKOWSKI_N_BUDGET


# Each name that moved to ``forms``, under every module that served it before.
MOVED = {
    "gcgroup": (
        "BAND_ROWS_BUDGET", "DEFAULT_INDEX_WINDOW_CAP", "GcSignature", "IntervalSubgroupReport",
        "PowerIndexResult", "band_matrix", "gc_abelianization", "gc_is_proper",
        "interval_subgroup", "parse_signature", "power_subgroup_index",
    ),
    "linalg": ("MINKOWSKI_N_BUDGET", "minkowski_bound"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_closed_forms_are_reexported_as_the_same_objects(module, name):
    forms = importlib.import_module("solvkit.forms")
    assert getattr(importlib.import_module(f"solvkit.{module}"), name) is getattr(forms, name)


def test_forms_loads_no_other_solvkit_module_but_value():
    probe = ("import sys, solvkit.forms; "
             "print(sorted(m for m in sys.modules if m.startswith('solvkit.')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (0, "['solvkit._value', 'solvkit.forms']\n"), \
        done.stderr
