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
# cache compiles, only those.


def _fmt_rows(entries) -> str:
    return "\n".join("[" + ", ".join(row) + "]" for row in entries)


def _flag(key: str, value: bool):
    return {key: value}, "true" if value else "false"


def _torsion(factors) -> str:
    return f"torsion [{', '.join(factors)}]" if factors else "no torsion"


def _signature(args):
    from . import gcgroup
    return gcgroup.parse_signature(args.c)


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
    from . import gcgroup
    return _flag("is_proper", gcgroup.gc_is_proper(_signature(args)))


def _cmd_gc_abelianization(args):
    from . import gcgroup
    free_rank, torsion = gcgroup.gc_abelianization(_signature(args))
    factors = [str(f) for f in torsion]
    payload = {"free_rank": str(free_rank), "torsion_factors": factors}
    return payload, f"free rank {free_rank}, {_torsion(factors)}"


def _cmd_gc_interval(args):
    from . import gcgroup
    report = gcgroup.interval_subgroup(_signature(args), args.low, args.high)
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
    from . import gcgroup
    cap = gcgroup.DEFAULT_INDEX_WINDOW_CAP if args.cap is None else args.cap
    index = str(gcgroup.power_subgroup_index(_signature(args), args.t, cap).index)
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
    from . import gcgroup, linalg
    payload = linalg.matrix_to_json(gcgroup.band_matrix(_signature(args), args.m))
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
    from . import linalg
    bound = str(linalg.minkowski_bound(args.n))
    return {"n": str(args.n), "bound": bound}, bound


def _build_parser() -> _Parser:
    parser = _Parser(prog="solvkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(sp, name, handler, **kwargs):
        p = sp.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one JSON line")
        p.set_defaults(handler=handler)
        return p

    gc = sub.add_parser("gc", help="coefficient-vector group operations")
    gc_sub = gc.add_subparsers(dest="gc_command", required=True)

    def add_gc(name, handler, word=False):
        p = add(gc_sub, name, handler)
        p.add_argument("--c", required=True, help="signature, e.g. 2,-1")
        if word:
            p.add_argument("word", help="word in a and b, e.g. 'a^-1 b a'")
        return p

    add_gc("eval", _cmd_gc_eval, word=True)
    add_gc("is-identity", _cmd_gc_is_identity, word=True)
    add_gc("is-proper", _cmd_gc_is_proper)
    add_gc("abelianization", _cmd_gc_abelianization)
    p = add_gc("interval", _cmd_gc_interval)
    p.add_argument("--from", dest="low", type=int, required=True)
    p.add_argument("--to", dest="high", type=int, required=True)
    p = add_gc("index", _cmd_gc_index)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--cap", type=int)
    p = add_gc("member", _cmd_gc_member)
    p.add_argument("--v", required=True, help="comma-separated rationals, e.g. 1/2,3")
    p.add_argument("--jmax", type=int)

    p = add(sub, "snf", _cmd_snf, help="Smith normal form of a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p = add(sub, "minors", _cmd_minors, help="gcds of all k x k minors")
    p.add_argument("--in", dest="infile", required=True)
    p = add(sub, "band", _cmd_band, help="banded relation matrix")
    p.add_argument("--c", required=True)
    p.add_argument("--m", type=int, required=True)

    wr = sub.add_parser("wreath", help="wreath product operations")
    wr_sub = wr.add_subparsers(dest="wreath_command", required=True)
    for name, handler in (("eval", _cmd_wreath_eval), ("is-identity", _cmd_wreath_is_identity)):
        p = add(wr_sub, name, handler)
        p.add_argument("--mod", type=int, default=None)
        p.add_argument("word")

    vf = sub.add_parser("verify", help="re-run the verification harness")
    vf_sub = vf.add_subparsers(dest="verify_command", required=True)
    p = add(vf_sub, "all", _cmd_verify_all)
    p.add_argument("--seed", type=int, default=None, help="defaults to $SOLVKIT_SEED or 0")

    p = add(sub, "minkowski", _cmd_minkowski, help="finite-subgroup order bound")
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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
