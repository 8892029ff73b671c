"""Command-line front end.

Every subcommand is a thin adapter over one library call.  With ``--json``
the output is a single machine-readable line in which integers are decimal
strings (rationals ``p/q``), so round-trips are bit exact regardless of
the consumer; without it a short human-readable form is printed.  Exit
status: 0 on success, 1 on domain errors (bad signature, word syntax,
malformed matrix file), 2 when ``verify all`` finds failing cases.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values such as -2,3 and -1/2 are values: no option starts with -digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # exit code 1 for bad usage, keeping 2 reserved for verification failures
    def error(self, message):
        raise ValueError(message)


# Each handler maps ``args`` to ``(payload, text)``: the ``--json`` object and
# the human-readable form, the latter built from the payload's decimal strings.
# It imports the modules it runs, so that a call loads, and with no bytecode
# cache compiles, only those: the commands whose answer is a closed form in the
# signature (``gc is-proper``, ``abelianization``, ``interval``, ``index``) and
# ``minkowski`` import ``forms`` alone, ``band`` adds ``linalg`` for its matrix,
# and only ``gc eval``, ``is-identity`` and ``member`` import the residue core,
# ``gcgroup``.


def _fmt_rows(entries) -> str:
    return "\n".join("[" + ", ".join(row) + "]" for row in entries)


def _flag(key: str, value: bool):
    return {key: value}, "true" if value else "false"


def _torsion(factors) -> str:
    return f"torsion [{', '.join(factors)}]" if factors else "no torsion"


def _signature(args):
    from . import forms
    return forms.parse_signature(args.c)


def _load_matrix(path: str):
    from . import linalg
    try:
        with open(path, encoding="utf-8") as handle:
            return linalg.matrix_from_json(json.load(handle))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _cmd_gc_eval(args):
    from . import gcgroup
    payload = gcgroup.element_to_json(gcgroup.gc_eval(_signature(args), args.word))
    return payload, f"translation ({', '.join(payload['translation'])}), shift {payload['shift']}"


def _cmd_gc_is_identity(args):
    from . import gcgroup
    return _flag("is_identity", gcgroup.gc_is_identity(_signature(args), args.word))


def _cmd_gc_is_proper(args):
    from . import forms
    return _flag("is_proper", forms.gc_is_proper(_signature(args)))


def _cmd_gc_abelianization(args):
    from . import forms
    free_rank, torsion = forms.gc_abelianization(_signature(args))
    factors = [str(f) for f in torsion]
    payload = {"free_rank": str(free_rank), "torsion_factors": factors}
    return payload, f"free rank {free_rank}, {_torsion(factors)}"


def _cmd_gc_interval(args):
    from . import forms
    report = forms.interval_subgroup(_signature(args), args.low, args.high)
    factors = [str(f) for f in report.torsion_factors]
    payload = {
        "generators": str(report.generators),
        "relators": str(report.relators),
        "free_rank": str(report.free_rank),
        "torsion_factors": factors,
    }
    return payload, (
        f"generators {report.generators}, relators {report.relators}, "
        f"free rank {report.free_rank}, {_torsion(factors)}"
    )


def _cmd_gc_index(args):
    from . import forms
    cap = forms.DEFAULT_INDEX_WINDOW_CAP if args.cap is None else args.cap
    index = str(forms.power_subgroup_index(_signature(args), args.t, cap).index)
    return {"status": "index", "index": index}, f"index {index}"


def _cmd_gc_member(args):
    from . import gcgroup, linalg
    j_max = gcgroup.DEFAULT_MEMBERSHIP_BOUND if args.jmax is None else args.jmax
    vector = [linalg.scalar_from_str(part) for part in args.v.split(",")]
    result = gcgroup.base_membership(_signature(args), vector, j_max)
    if not result.is_member:
        return (
            {"status": "not_found_within_bound", "j_max": str(j_max)},
            f"not found within bound j_max={j_max}",
        )
    witness = {str(power): str(coeff) for power, coeff in result.witness}
    pairs = ", ".join(f"{p}: {n}" for p, n in witness.items()) or "empty combination"
    return {"status": "member", "witness": witness}, f"member, witness {{{pairs}}}"


def _cmd_snf(args):
    from . import linalg
    result = linalg.snf(_load_matrix(args.infile))
    factors = [str(f) for f in result.invariant_factors]
    payload = {"smith": linalg.matrix_to_json(result.smith)}
    if args.json:
        # Text mode prints no transforms, so it does not pay to format them.
        payload["left"] = linalg.matrix_to_json(result.left)
        payload["right"] = linalg.matrix_to_json(result.right)
    payload["invariant_factors"] = factors
    text = _fmt_rows(payload["smith"]["entries"]) + "\ninvariant factors: "
    return payload, text + (", ".join(factors) or "none")


def _cmd_minors(args):
    from . import linalg
    gcds = [str(g) for g in linalg.minor_gcds(_load_matrix(args.infile))]
    return {"minor_gcds": gcds}, "minor gcds: " + ", ".join(gcds)


def _cmd_band(args):
    from . import forms, linalg
    payload = linalg.matrix_to_json(forms.band_matrix(_signature(args), args.m))
    return payload, _fmt_rows(payload["entries"])


def _cmd_wreath_eval(args):
    from . import wreath
    payload = wreath.element_to_json(wreath.wr_eval(args.word, args.mod))
    support = ", ".join(f"{p}: {v}" for p, v in payload["support"].items())
    text = f"support {{{support}}}, shift {payload['shift']}"
    if payload["modulus"] is not None:
        text += f", modulus {payload['modulus']}"
    return payload, text


def _cmd_wreath_is_identity(args):
    from . import wreath
    element = wreath.wr_eval(args.word, args.mod)
    return _flag("is_identity", wreath.wr_is_identity(element))


def _cmd_verify_all(args):
    from . import verify
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SOLVKIT_SEED", "0"))
    reports = verify.run_all(seed)
    width = max(len(r.lemma_id) for r in reports)
    lines = [
        f"{r.lemma_id:<{width}}  {r.cases_passed}/{r.cases_run}  {'pass' if r.passed else 'FAIL'}"
        + (f"  first failure: {r.first_failure}" if r.first_failure else "")
        for r in reports
    ]
    total_run = sum(r.cases_run for r in reports)
    total_passed = sum(r.cases_passed for r in reports)
    lines.append(f"{'total':<{width}}  {total_passed}/{total_run}")
    return verify.reports_to_json(reports), "\n".join(lines)


def _cmd_minkowski(args):
    from . import forms
    bound = str(forms.minkowski_bound(args.n))
    return {"n": str(args.n), "bound": bound}, bound


_C = ("--c", {"required": True, "help": "signature, e.g. 2,-1"})
_WORD = ("word", {"help": "word in a and b, e.g. 'a^-1 b a'"})
_IN = ("--in", {"dest": "infile", "required": True})
_WREATH = (("--mod", {"type": int, "default": None}), ("word", {}))
# One row per command: its path, its handler, the help line its parent lists
# for it (None for no line) and its arguments after ``--json``, in ``--help``
# order.  Each group's subcommands are stored as ``<group>_command``.
_COMMANDS = (
    (("gc", "eval"), _cmd_gc_eval, None, (_C, _WORD)),
    (("gc", "is-identity"), _cmd_gc_is_identity, None, (_C, _WORD)),
    (("gc", "is-proper"), _cmd_gc_is_proper, None, (_C,)),
    (("gc", "abelianization"), _cmd_gc_abelianization, None, (_C,)),
    (("gc", "interval"), _cmd_gc_interval, None, (
        _C,
        ("--from", {"dest": "low", "type": int, "required": True}),
        ("--to", {"dest": "high", "type": int, "required": True}),
    )),
    (("gc", "index"), _cmd_gc_index, None, (
        _C, ("--t", {"type": int, "required": True}), ("--cap", {"type": int}),
    )),
    (("gc", "member"), _cmd_gc_member, None, (
        _C,
        ("--v", {"required": True, "help": "comma-separated rationals, e.g. 1/2,3"}),
        ("--jmax", {"type": int}),
    )),
    (("snf",), _cmd_snf, "Smith normal form of a matrix file", (_IN,)),
    (("minors",), _cmd_minors, "gcds of all k x k minors", (_IN,)),
    (("band",), _cmd_band, "banded relation matrix", (
        ("--c", {"required": True}), ("--m", {"type": int, "required": True}),
    )),
    (("wreath", "eval"), _cmd_wreath_eval, None, _WREATH),
    (("wreath", "is-identity"), _cmd_wreath_is_identity, None, _WREATH),
    (("verify", "all"), _cmd_verify_all, None, (
        ("--seed", {"type": int, "default": None, "help": "defaults to $SOLVKIT_SEED or 0"}),
    )),
    (("minkowski",), _cmd_minkowski, "finite-subgroup order bound", (
        ("--n", {"type": int, "required": True}),
    )),
)
_GROUP_HELP = {
    "gc": "coefficient-vector group operations",
    "wreath": "wreath product operations",
    "verify": "re-run the verification harness",
}


def _build_parser(argv=()) -> _Parser:
    """The parser of every command; or, when ``argv`` starts with the whole
    path of one command, only the parsers on that path, which parse, print
    help and fail as they do in the whole tree.  Any other ``argv``, such as
    ``--help``, a group alone, an unknown name or an option before the path,
    needs the whole tree for its usage line and its list of choices."""
    rows = [row for row in _COMMANDS if tuple(argv[: len(row[0])]) == row[0]] or _COMMANDS
    parser = _Parser(prog="solvkit", description=__doc__)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, handler, help_text, arguments in rows:
        group = path[:-1]
        if group not in subparsers:
            node = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = node.add_subparsers(dest=f"{group[0]}_command", required=True)
        leaf = subparsers[group].add_parser(path[-1], **({"help": help_text} if help_text else {}))
        leaf.add_argument("--json", action="store_true", help="emit one JSON line")
        for name, options in arguments:
            leaf.add_argument(name, **options)
        leaf.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        payload, text = args.handler(args)
        print(json.dumps(payload) if args.json else text)
    except (ValueError, OSError) as exc:
        message = str(exc)
        if "integer string conversion" in message:
            message = f"a number is over the limit of {sys.get_int_max_str_digits()} decimal digits"
        print(f"solvkit: {message}", file=sys.stderr)
        return 1
    failing = args.command == "verify" and any(r["cases_passed"] != r["cases_run"] for r in payload)
    return 2 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
