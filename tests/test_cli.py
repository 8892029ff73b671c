import argparse
import json
import subprocess
import sys
import time

import pytest

import solvkit.verify
from solvkit import cli
from solvkit.cli import main
from solvkit.gcgroup import (
    BAND_ROWS_BUDGET,
    GcSignature,
    band_matrix,
    element_to_json,
    gc_eval,
)
from solvkit.linalg import Matrix, matrix_to_json, minor_gcds, snf
from solvkit.verify import MINKOWSKI_N_BUDGET, LemmaReport, minkowski_bound

HUGE = "99999999999999999999"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGcCommands:
    def test_eval_human(self, capsys):
        code, out, _ = run_cli(capsys, "gc", "eval", "--c", "2,-1", "a^-1 b a")
        assert code == 0
        assert out == "translation (2), shift 0\n"

    def test_eval_json_matches_library_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "gc", "eval", "--c", "2,-1", "--json", "a^-1 b a")
        assert code == 0
        expected = json.dumps(element_to_json(gc_eval(GcSignature((2, -1)), "a^-1 b a")))
        assert out == expected + "\n"

    def test_eval_rational_translation(self, capsys):
        code, out, _ = run_cli(capsys, "gc", "eval", "--c", "2,-1", "--json", "a b a^-1")
        assert code == 0
        assert json.loads(out) == {"translation": ["1/2"], "shift": "0"}

    def test_is_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "is-identity", "--c", "2,-1", "b b a^-1 b^-1 a"
        )
        assert (code, out) == (0, "true\n")
        code, out, _ = run_cli(capsys, "gc", "is-identity", "--c", "2,-1", "a")
        assert (code, out) == (0, "false\n")

    def test_is_proper(self, capsys):
        assert run_cli(capsys, "gc", "is-proper", "--c", "1,1,1")[1] == "false\n"
        code, out, _ = run_cli(capsys, "gc", "is-proper", "--c", "2,-1", "--json")
        assert json.loads(out) == {"is_proper": True}

    def test_abelianization(self, capsys):
        code, out, _ = run_cli(capsys, "gc", "abelianization", "--c", "1,1", "--json")
        assert json.loads(out) == {"free_rank": "1", "torsion_factors": ["2"]}
        code, out, _ = run_cli(capsys, "gc", "abelianization", "--c", "1,-1")
        assert out == "free rank 2, no torsion\n"

    def test_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "interval", "--c", "2,3", "--from", "0", "--to", "2", "--json"
        )
        assert json.loads(out) == {
            "generators": "3",
            "relators": "2",
            "free_rank": "1",
            "torsion_factors": [],
        }

    def test_index(self, capsys):
        code, out, _ = run_cli(capsys, "gc", "index", "--c", "2,-1", "--t", "3", "--json")
        assert json.loads(out) == {"status": "index", "index": "3"}
        # the window cap does not affect the closed-form index
        for cap in ("0", "20"):
            code, out, _ = run_cli(capsys, "gc", "index", "--c", "1,2,-2,2,0,2,-2",
                                   "--t", "32", "--cap", cap, "--json")
            assert (code, json.loads(out)) == (0, {"status": "index", "index": "1"})

    def test_member_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "member", "--c", "2,-1", "--v", "1/2", "--json"
        )
        assert json.loads(out) == {"status": "member", "witness": {"-1": "1"}}

    def test_member_not_found(self, capsys):
        code, out, _ = run_cli(
            capsys, "gc", "member", "--c", "2,-1", "--v", "1/3", "--jmax", "4", "--json"
        )
        assert json.loads(out) == {"status": "not_found_within_bound", "j_max": "4"}

    def test_negative_values_need_no_equals_sign(self, capsys):
        # -2,3 and -1/2 are values: no solvkit option starts with a dash and a digit.
        spaced = run_cli(capsys, "gc", "eval", "--c", "-2,3", "a^-1 b a b")
        assert spaced[0] == 0
        assert spaced == run_cli(capsys, "gc", "eval", "--c=-2,3", "a^-1 b a b")
        code, out, err = run_cli(capsys, "gc", "member", "--c", "2,-1", "--v", "-1/2", "--json")
        assert (code, out, err) == (0, '{"status": "member", "witness": {"-1": "-1"}}\n', "")
        assert run_cli(capsys, "gc", "member", "--c", "2,-1", "--v", "-.5", "--json") == (
            code, out, err
        )

    def test_dash_value_that_is_no_number_is_still_an_option(self, capsys):
        code, out, err = run_cli(capsys, "gc", "eval", "--c", "-x", "b")
        assert (code, out) == (1, "")
        assert err == "solvkit: argument --c: expected one argument\n"


class TestMatrixCommands:
    def test_band(self, capsys):
        code, out, _ = run_cli(capsys, "band", "--c", "2,3", "--m", "2", "--json")
        assert json.loads(out) == {
            "rows": 2,
            "cols": 3,
            "entries": [["2", "3", "0"], ["0", "2", "3"]],
        }
        code, out, _ = run_cli(capsys, "band", "--c", "2,3", "--m", "2")
        assert out == "[2, 3, 0]\n[0, 2, 3]\n"

    def test_snf_file(self, capsys, tmp_path):
        matrix = Matrix([[2, 0], [0, 3]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(matrix)))
        code, out, _ = run_cli(capsys, "snf", "--in", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        result = snf(matrix)
        assert payload["invariant_factors"] == ["1", "6"]
        assert payload["smith"] == matrix_to_json(result.smith)
        assert payload["left"] == matrix_to_json(result.left)
        assert payload["right"] == matrix_to_json(result.right)

    def test_minors_file(self, capsys, tmp_path):
        matrix = Matrix([[2, 0], [0, 3]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(matrix)))
        code, out, _ = run_cli(capsys, "minors", "--in", str(path), "--json")
        assert json.loads(out) == {
            "minor_gcds": [str(g) for g in minor_gcds(matrix)]
        }

    def test_snf_text_skips_the_transforms(self, capsys, tmp_path):
        # The band of c = 3,-7,5,2 with m = 120 has Smith form (I | 0), but
        # its transforms have entries of over 4,300 digits: the text form
        # prints, while --json still stops at the digit limit.
        c, m = GcSignature((3, -7, 5, 2)), 120
        path = tmp_path / "band.json"
        path.write_text(json.dumps(matrix_to_json(band_matrix(c, m))))
        rows = "\n".join(
            "[" + ", ".join("1" if j == i else "0" for j in range(m + 3)) + "]"
            for i in range(m)
        )
        expected = rows + "\ninvariant factors: " + ", ".join(["1"] * m) + "\n"
        assert run_cli(capsys, "snf", "--in", str(path)) == (0, expected, "")
        code, out, err = run_cli(capsys, "snf", "--in", str(path), "--json")
        assert (code, out) == (1, "")
        assert err == "solvkit: a number is over the limit of 4300 decimal digits\n"

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "snf", "--in", str(tmp_path / "nope.json"))
        assert code == 1
        assert err


class TestTextOutput:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["gc", "interval", "--c", "2,3", "--from", "0", "--to", "2"],
             "generators 3, relators 2, free rank 1, no torsion"),
            (["gc", "index", "--c", "2,-1", "--t", "3"], "index 3"),
            (["gc", "member", "--c", "2,-1", "--v", "1/2"], "member, witness {-1: 1}"),
            (["gc", "member", "--c", "2,-1", "--v", "0"], "member, witness {empty combination}"),
            (["gc", "member", "--c", "2,-1", "--v", "1/3", "--jmax", "4"],
             "not found within bound j_max=4"),
            (["gc", "abelianization", "--c", "1,1"], "free rank 1, torsion [2]"),
            (["snf", "--in"], "[1, 0, 0]\n[0, 1, 0]\ninvariant factors: 1, 1"),
            (["minors", "--in"], "minor gcds: 1, 1"),
            (["wreath", "eval", "--mod", "3", "b^4 a b"], "support {0: 1, 1: 1}, shift 1, modulus 3"),
        ],
        ids=["interval", "index", "member", "member-zero", "member-miss", "abelianization",
             "snf", "minors", "wreath-mod"],
    )
    def test_text(self, capsys, tmp_path, argv, expected):
        if argv[-1] == "--in":
            path = tmp_path / "m.json"
            path.write_text(json.dumps(matrix_to_json(Matrix([[2, 3, 0], [0, 2, 3]]))))
            argv = [*argv, str(path)]
        assert run_cli(capsys, *argv) == (0, expected + "\n", "")


class TestWreathCommands:
    def test_eval(self, capsys):
        code, out, _ = run_cli(capsys, "wreath", "eval", "--json", "b a b a^-1")
        assert json.loads(out) == {
            "shift": "0",
            "support": {"-1": "1", "0": "1"},
            "modulus": None,
        }

    def test_eval_json_matches_library_bytes(self, capsys):
        from solvkit.wreath import element_to_json, wr_eval

        code, out, _ = run_cli(capsys, "wreath", "eval", "--json", "b a b a^-1")
        assert out == json.dumps(element_to_json(wr_eval("b a b a^-1"))) + "\n"

    def test_eval_mod(self, capsys):
        code, out, _ = run_cli(capsys, "wreath", "eval", "--mod", "2", "--json", "b b")
        assert json.loads(out) == {"shift": "0", "support": {}, "modulus": 2}

    def test_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "wreath", "is-identity", "--mod", "3", "b b b")
        assert (code, out) == (0, "true\n")


class TestMinkowski:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "minkowski", "--n", "2", "--json")
        assert json.loads(out) == {"n": "2", "bound": "24"}
        assert run_cli(capsys, "minkowski", "--n", "4")[1] == "5760\n"

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "minkowski", "--n", "0")
        assert code == 1 and err

    def test_budget_is_the_largest_printable_n(self, capsys):
        code, out, _ = run_cli(capsys, "minkowski", "--n", str(MINKOWSKI_N_BUDGET))
        assert code == 0 and int(out) == minkowski_bound(MINKOWSKI_N_BUDGET)
        code, out, err = run_cli(capsys, "minkowski", "--n", str(MINKOWSKI_N_BUDGET + 1))
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1

    def test_over_budget_is_refused_promptly(self):
        # Trial division up to n + 1 would take minutes, for a bound too
        # long to print.
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "minkowski", "--n", "1000000"],
            capture_output=True,
            timeout=5,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"solvkit: ") and result.stderr.count(b"\n") == 1


class TestErrorPaths:
    def test_invalid_signature(self, capsys):
        code, _, err = run_cli(capsys, "gc", "eval", "--c", "2,4", "b")
        assert code == 1
        assert "gcd" in err

    def test_word_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "gc", "eval", "--c", "2,-1", "c")
        assert code == 1
        assert "column 1" in err

    def test_usage_error_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "gc", "eval", "--c", "2,-1")
        assert code == 1 and err

    @pytest.mark.parametrize("command", ["gc", "snf"])
    def test_huge_exponent_notation_is_refused_promptly(self, command, tmp_path):
        # Fraction("1e1000000000") would build 10**1000000000.
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [["1e1000000000"]]}')
        args = {"gc": ["gc", "member", "--c", "2,-1", "--v", "1e100000000"],
                "snf": ["snf", "--in", str(path)]}[command]
        result = subprocess.run([sys.executable, "-m", "solvkit", *args],
                                capture_output=True, timeout=5)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"solvkit: a number is over the limit of 4300 decimal digits\n"

    @pytest.mark.parametrize("text", [
        '{"rows": 1, "cols": 2, "entries": ["12"]}',
        '{"rows": 2, "cols": 1, "entries": "12"}',
        '{"rows": true, "cols": 1, "entries": [["5"]]}',
        "[" * 5000 + "]" * 5000,
        '{"rows": 1, "cols": 1, "entries": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["string-row", "string-entries", "bool-rows", "nested-array", "nested-entries"])
    @pytest.mark.parametrize("command", ["snf", "minors"])
    def test_malformed_matrix_file_is_one_line(self, command, text, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(text)
        result = subprocess.run([sys.executable, "-m", "solvkit", command, "--in", str(path)],
                                capture_output=True, timeout=30)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"solvkit: ") and result.stderr.count(b"\n") == 1
        assert b"Traceback" not in result.stderr

    def test_huge_pure_shift_evaluates_promptly(self):
        # A pure shift lights no lamp, so no power of the action is formed.
        command = [sys.executable, "-m", "solvkit", "gc", "eval", "--c", "2,-1",
                   "--json", "a^-99999999999999999999"]
        result = subprocess.run(command, capture_output=True, timeout=30)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout == (
            b'{"translation": ["0"], "shift": "-99999999999999999999"}\n'
        )

    def test_huge_conjugated_relator_decides_promptly(self):
        # The lamps sit at N and N + 1: x^N mod c must never be formed.
        n = "99999999999999999999"
        command = [sys.executable, "-m", "solvkit", "gc", "is-identity", "--c", "2,-1",
                   "--json", f"a^-{n} b^2 a^-1 b^-1 a a^{n}"]
        result = subprocess.run(command, capture_output=True, timeout=30)
        assert result.returncode == 0, result.stderr.decode()
        assert json.loads(result.stdout) == {"is_identity": True}

    @pytest.mark.parametrize(
        "command, word",
        [("is-identity", f"b a^{HUGE} b^-1 a^-{HUGE}"), ("eval", f"a^-{HUGE} b a^{HUGE}")],
    )
    def test_huge_residue_is_refused_promptly(self, command, word):
        # x^N mod (2 - x) is 2^N: the residue budget refuses it.
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", command, "--c", "2,-1", "--json", word],
            capture_output=True,
            timeout=5,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"solvkit: ") and result.stderr.count(b"\n") == 1

    @pytest.mark.parametrize(
        "command, expected",
        [("is-identity", {"is_identity": True}), ("eval", {"translation": ["0"], "shift": "0"})],
    )
    def test_huge_shift_of_cancelling_cluster_answers(self, command, expected):
        # R = b^2 a^-1 b^-1 a is trivial for c = 2 - x, so the top cluster's
        # residue is zero and x^N is never formed.
        relator = "b^2 a^-1 b^-1 a"
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", command, "--c", "2,-1", "--json",
             f"{relator} a^{HUGE} {relator} a^-{HUGE}"],
            capture_output=True,
            timeout=5,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert json.loads(result.stdout) == expected

    @pytest.mark.parametrize(
        "command, expected",
        [("is-identity", {"is_identity": False}), ("eval", {"translation": ["1"], "shift": "0"})],
    )
    def test_cancelling_cluster_far_below_a_lamp_drops_out(self, command, expected):
        # The lamps of R sit N below the lamp at 0 and cancel, so the lamp at 0
        # is never shifted across the gap.
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", command, "--c", "2,-1", "--json",
             f"a^{HUGE} b^2 a^-1 b^-1 a a^-{HUGE} b"],
            capture_output=True,
            timeout=5,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert json.loads(result.stdout) == expected

    def test_huge_conjugate_with_cyclotomic_signature_answers(self):
        # For c = 1 + x the residue x^N = -1 stays small.
        command = [sys.executable, "-m", "solvkit", "gc", "eval", "--c", "1,1", "--json",
                   f"a^-{HUGE} b a^{HUGE}"]
        result = subprocess.run(command, capture_output=True, timeout=5)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout == b'{"translation": ["-1"], "shift": "0"}\n'

    @pytest.mark.parametrize(
        "command, code, out, err",
        [("is-identity", 0, b'{"is_identity": false}\n', b""),
         ("eval", 1, b"", b"solvkit: a number is over the limit of 4300 decimal digits\n")],
        ids=["is-identity", "eval"],
    )
    def test_longest_shift_zero_word_answers_promptly(self, command, code, out, err):
        # (b a)^n a^-n lights n lamps; at n = 32,750 the word is 131,008
        # characters, the longest one argument can carry.  A gcd after every
        # Horner step made it cubic in n; its translation has over 15,000
        # digits, so eval meets the output limit.
        n = 32750
        word = "b a " * n + f"a^-{n}"
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", command, "--c", "2,3", "--json", word],
            capture_output=True,
            timeout=10,
        )
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err)

    def test_answer_over_the_digit_limit_is_refused_from_its_pair(self):
        # x^-262143 mod 3x^3 - x^2 + x + 2 has three coordinates of about
        # 415,000 bits over 262,144.  Building their Fractions takes nearly
        # twice as long as the evaluation; the refusal reads only the bit
        # lengths of the pair, so the call may take half as long again as the
        # evaluation, plus 0.3 s to start.
        word = "a^262143 b a^-262143"
        start = time.perf_counter()
        element = gc_eval(GcSignature((2, 1, -1, 3)), word)
        spare = 1.5 * (time.perf_counter() - start) + 0.3
        with pytest.raises(ValueError, match="over the limit of 4300 decimal digits"):
            element_to_json(element)
        assert "translation" not in vars(element)
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", "eval", "--c=2,1,-1,3", "--json", word],
            capture_output=True,
            timeout=spare,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"solvkit: a number is over the limit of 4300 decimal digits\n"

    def test_membership_over_window_budget_is_refused_promptly(self):
        # One window system per j: --jmax 100000000 would run for hours.
        result = subprocess.run(
            [sys.executable, "-m", "solvkit", "gc", "member", "--c", "2,-1", "--v", "1/3",
             "--jmax", "100000000"],
            capture_output=True,
            timeout=5,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.startswith(b"solvkit: ") and result.stderr.count(b"\n") == 1

    def test_band_over_budget_is_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "band", "--c", "2,3", "--m", str(BAND_ROWS_BUDGET + 1), "--json"
        )
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1

    def test_minors_over_budget_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(Matrix.identity(20))))
        code, out, err = run_cli(capsys, "minors", "--in", str(path), "--json")
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1

    def test_zero_denominator_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "gc", "member", "--c", "2,-1", "--v", "1/0")
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1

    def test_non_string_matrix_entry_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 2, "entries": [[true, "1"]]}')
        code, out, err = run_cli(capsys, "snf", "--in", str(path), "--json")
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "word",
        ["a^-20000 b a^20000", "a^" + "1" * 5000],
        ids=["answer", "exponent"],
    )
    def test_digit_limit_is_one_line_naming_it(self, capsys, word):
        # An answer of 6,021 digits, or an exponent of 5,000 digits, passes
        # Python's 4,300-digit limit for converting between int and text.
        code, out, err = run_cli(capsys, "gc", "eval", "--c", "2,-1", "--json", word)
        assert (code, out) == (1, "")
        assert err == "solvkit: a number is over the limit of 4300 decimal digits\n"

    def test_negative_index_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "gc", "index", "--c", "2,-1", "--t", "3", "--cap", "-1", "--json"
        )
        assert (code, out) == (1, "")
        assert err.startswith("solvkit: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_json_deterministic_and_green(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "all", "--seed", "0", "--json")
        code2, out2, _ = run_cli(capsys, "verify", "all", "--seed", "0", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        reports = json.loads(out1)
        assert all(r["cases_run"] == r["cases_passed"] for r in reports)
        assert all(r["first_failure"] is None for r in reports)

    def test_env_seed_matches_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SOLVKIT_SEED", "7")
        _, out_env, _ = run_cli(capsys, "verify", "all", "--json")
        monkeypatch.delenv("SOLVKIT_SEED")
        _, out_flag, _ = run_cli(capsys, "verify", "all", "--seed", "7", "--json")
        assert out_env == out_flag

    def test_failures_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            solvkit.verify,
            "run_all",
            lambda seed=0: [LemmaReport("forced", 2, 1, "injected failure")],
        )
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 2
        assert "FAIL" in out

    def test_human_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "0")
        assert code == 0
        assert "pass" in out and "total" in out


# One valid argument list after each command's path.
VALID = {
    ("gc", "eval"): ["--c", "-2,3", "--json", "a b"],
    ("gc", "is-identity"): ["--c=2,-1", "b"],
    ("gc", "is-proper"): ["--c", "-1,1"],
    ("gc", "abelianization"): ["--c", "1,1", "--json"],
    ("gc", "interval"): ["--c", "2,-1", "--from", "-1", "--to", "3"],
    ("gc", "index"): ["--c", "2,-1", "--t", "6", "--cap", "3"],
    ("gc", "member"): ["--c", "2,-1", "--v", "-1/2", "--jmax", "4"],
    ("snf",): ["--in", "m.json"],
    ("minors",): ["--json", "--in", "m.json"],
    ("band",): ["--c", "2,3", "--m", "2"],
    ("wreath", "eval"): ["--mod", "3", "b a"],
    ("wreath", "is-identity"): ["b"],
    ("verify", "all"): ["--seed", "7"],
    ("minkowski",): ["--n", "4"],
}


def leaf_parsers(parser, path=()):
    """``{path: parser}`` for every command under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {path: parser}
    return {leaf: p for a in subparsers for name, sub in a.choices.items()
            for leaf, p in leaf_parsers(sub, path + (name,)).items()}


def outcome(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except ValueError as exc:
        return f"error: {exc}"


class TestParserOfOneCommand:
    def test_every_command_has_a_valid_call(self):
        assert sorted(leaf_parsers(cli._build_parser())) == sorted(VALID)

    @pytest.mark.parametrize("path", sorted(VALID), ids=" ".join)
    def test_path_parser_is_the_whole_tree_on_its_path(self, path):
        whole = cli._build_parser()
        argv = [*path, *VALID[path]]
        alone = cli._build_parser(argv)
        assert list(leaf_parsers(alone)) == [path]
        assert leaf_parsers(alone)[path].format_help() == leaf_parsers(whole)[path].format_help()
        parsed = outcome(whole, argv)
        assert isinstance(parsed, dict) and parsed["handler"] is not None
        assert outcome(alone, argv) == parsed
        # with its path alone, a command with a required argument fails
        assert outcome(cli._build_parser(list(path)), list(path)) == outcome(whole, list(path))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["gc"], ["gc", "--help"], ["gc", "ev"], ["--json", "gc", "eval"],
        ["gc", "--c", "2,-1", "eval", "b"], ["Gc", "eval"], ["eval"],
    ], ids=repr)
    def test_any_other_argv_builds_the_whole_tree(self, argv):
        assert sorted(leaf_parsers(cli._build_parser(argv))) == sorted(VALID)

    def test_missing_argument_error_names_them_all(self):
        assert outcome(cli._build_parser(["gc", "eval"]), ["gc", "eval"]) == (
            "error: the following arguments are required: --c, word")
