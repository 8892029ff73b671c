"""Fuzz the command line in-process.

Every call must end with exit code 0 or 1, leave stderr empty or with one
line and no traceback, and finish within 10 s.  The examples are
derandomized, so the suite runs the same calls every time.
"""

import contextlib
import io
import json
import math
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from solvkit.cli import main

FUZZ = settings(max_examples=60, derandomize=True, deadline=None)


def _signature(first, middle, last):
    # nonzero ends divided by their gcd: always a valid signature
    coeffs = [first, *middle, last]
    return ",".join(str(x // math.gcd(*coeffs)) for x in coeffs)


nonzero = st.integers(-9, 9).filter(bool)
signatures = st.builds(_signature, nonzero, st.lists(st.integers(-9, 9), max_size=5), nonzero)
exponents = st.one_of(
    st.integers(-10, 10), st.integers(-(10**6), 10**6), st.integers(-(10**30), 10**30)
)
terms = st.tuples(st.sampled_from("ab"), exponents).map(lambda t: f"{t[0]}^{t[1]}")
words = st.lists(terms, max_size=8).map(" ".join)
moduli = st.one_of(st.none(), st.integers(-3, 12), st.integers(-(10**30), 10**30))


class CallTimedOut(Exception):
    # Not a ValueError or OSError, which main() would turn into exit code 1.
    pass


def _time_out(signum, frame):
    raise CallTimedOut


def assert_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse --help
                code = exc.code
    except CallTimedOut:
        raise AssertionError(f"{argv} did not finish within 10 s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), (argv, err)


commands = st.sampled_from(["eval", "is-identity"])


@FUZZ
@given(commands, signatures, st.booleans(), words)
def test_gc_words(command, c, json_flag, word):
    assert_clean(["gc", command, f"--c={c}"] + ["--json"] * json_flag + [word])


@FUZZ
@given(commands, st.one_of(signatures, st.text(max_size=12)), st.text(max_size=20))
def test_gc_text(command, c, text):
    assert_clean(["gc", command, f"--c={c}", text])


@FUZZ
@given(moduli, st.booleans(), st.one_of(words, st.text(max_size=20)))
def test_wreath_eval(modulus, json_flag, word):
    mod = [] if modulus is None else [f"--mod={modulus}"]
    assert_clean(["wreath", "eval"] + mod + ["--json"] * json_flag + [word])


# A zero denominator is a bad input too, and so is an exponent whose power
# of ten has more digits than Python converts.
scalars = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-20, 20), st.integers(0, 12)),
    st.builds(lambda m, n: f"{m}e{n}", st.integers(-20, 20),
              st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))),
)
jmaxes = st.one_of(st.integers(-3, 60), st.integers(-(10**30), 10**30))


def _with_vector(c):
    # a vector of length s, so that the windows are searched
    s = c.count(",")
    return st.tuples(st.just(c), st.lists(scalars, min_size=s, max_size=s).map(",".join))


@FUZZ
@given(signatures.flatmap(_with_vector), jmaxes, st.booleans())
def test_gc_member(c_and_vector, jmax, json_flag):
    c, vector = c_and_vector
    assert_clean(["gc", "member", f"--c={c}", f"--v={vector}", f"--jmax={jmax}"]
                 + ["--json"] * json_flag)


# Integer arguments are drawn both small and up to 10^30 in size.
integers = st.one_of(st.integers(-3, 60), st.integers(-(10**30), 10**30))


@FUZZ
@given(signatures, integers, integers, st.booleans())
def test_gc_index(c, t, cap, json_flag):
    assert_clean(["gc", "index", f"--c={c}", f"--t={t}", f"--cap={cap}"]
                 + ["--json"] * json_flag)


@FUZZ
@given(signatures, integers, integers, st.booleans())
def test_gc_interval(c, low, high, json_flag):
    assert_clean(["gc", "interval", f"--c={c}", f"--from={low}", f"--to={high}"]
                 + ["--json"] * json_flag)


@FUZZ
@given(st.sampled_from(["is-proper", "abelianization"]),
       st.one_of(signatures, st.text(max_size=12)), st.booleans())
def test_gc_signature_only(command, c, json_flag):
    assert_clean(["gc", command, f"--c={c}"] + ["--json"] * json_flag)


@FUZZ
@given(st.one_of(signatures, st.text(max_size=12)), integers, st.booleans())
def test_band(c, m, json_flag):
    assert_clean(["band", f"--c={c}", f"--m={m}"] + ["--json"] * json_flag)


@FUZZ
@given(integers, st.booleans())
def test_minkowski(n, json_flag):
    assert_clean(["minkowski", f"--n={n}"] + ["--json"] * json_flag)


numbers = integers.map(str)


def _matrix_text(entries):
    def grid(shape):
        rows, cols = shape
        lists = st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)
        return lists.map(lambda e: json.dumps({"rows": rows, "cols": cols, "entries": e}))

    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(grid)


# Integer matrices, matrices with bad entries (zero denominators, fractions,
# text) among the numbers, and arbitrary text.
matrix_texts = st.one_of(
    _matrix_text(numbers),
    _matrix_text(st.one_of(numbers, scalars, st.text(max_size=4))),
    st.text(max_size=30),
)


@FUZZ
@given(st.sampled_from(["snf", "minors"]), matrix_texts, st.booleans())
@example("snf", "[" * 5000 + "]" * 5000, False)
@example("minors", '{"rows": 1, "cols": 2, "entries": ["12"]}', True)
def test_matrix_files(command, text, json_flag):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.json"
        path.write_text(text, encoding="utf-8")
        assert_clean([command, f"--in={path}"] + ["--json"] * json_flag)
