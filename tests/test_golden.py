"""Same answers as before: the corpus of ``tools/same_answers.py`` at seed 0
against one committed sha256 per call.

    PYTHONPATH=src python tests/test_golden.py

rewrites ``tests/golden/answers_seed0.json`` from the current tree; a change
that alters an answer on purpose regenerates it and names each changed call.

The digests match on CPython 3.10.13, 3.11.7 and 3.12.1.  On 3.13.0, 6 of
the 4,164 calls differ because of the interpreter: ``argparse`` wraps the
usage line of ``gc --help`` differently, and ``json`` parses the 10,000-deep
``matrices/nested.json`` without ``RecursionError``, so ``snf`` and
``minors`` exit 1 with the malformed-matrix line rather than "JSON nested
too deeply".
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

from solvkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "answers_seed0.json"


def _corpus(seed):
    path = ROOT / "tools" / "same_answers.py"
    spec = importlib.util.spec_from_file_location("same_answers", path)
    same_answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_answers)
    return same_answers.corpus(seed)


def answer_digests(seed, work):
    """``(calls, digests)``: the corpus at ``seed``, run through ``main`` in
    the directory ``work`` as the tool's ``RUNNER`` runs it, and one sha256
    per call over ``[exit code, stdout, stderr]``."""
    calls, files = _corpus(seed)
    for name, text in files.items():
        path = Path(work) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    digests = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        result = json.dumps([code, out.getvalue(), err.getvalue()])
        digests.append(hashlib.sha256(result.encode()).hexdigest())
    return calls, digests


def test_corpus_answers_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SOLVKIT_SEED", raising=False)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        calls, digests = answer_digests(0, tmp_path)
    finally:
        sys.set_int_max_str_digits(limit)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == len(calls)
    assert [argv for argv, new, old in zip(calls, digests, golden) if new != old] == []


if __name__ == "__main__":
    import tempfile

    os.environ.pop("SOLVKIT_SEED", None)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        _, digests = answer_digests(0, work)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {GOLDEN}")
