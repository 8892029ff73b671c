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
import sys

from . import gcgroup, linalg, verify, wreath
from .words import parse_word


class _Parser(argparse.ArgumentParser):
    # exit code 1 for bad usage, keeping 2 reserved for verification failures
    def error(self, message):
        raise ValueError(message)


def _fmt_vector(values) -> str:
    return "(" + ", ".join(str(x) for x in values) + ")"


def _fmt_matrix(matrix: linalg.Matrix) -> str:
    return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in matrix.rows_as_tuples())


def _emit(args, payload, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _signature(args) -> gcgroup.GcSignature:
    return gcgroup.parse_signature(args.c)


def _load_matrix(path: str) -> linalg.Matrix:
    with open(path, encoding="utf-8") as handle:
        return linalg.matrix_from_json(json.load(handle))


def _cmd_gc_eval(args) -> int:
    c = _signature(args)
    element = gcgroup.gc_eval(c, parse_word(args.word))
    _emit(
        args,
        gcgroup.element_to_json(element),
        f"translation {_fmt_vector(element.translation)}, shift {element.shift}",
    )
    return 0


def _cmd_gc_is_identity(args) -> int:
    c = _signature(args)
    value = gcgroup.gc_is_identity(c, parse_word(args.word))
    _emit(args, {"is_identity": value}, "true" if value else "false")
    return 0


def _cmd_gc_is_proper(args) -> int:
    value = gcgroup.gc_is_proper(_signature(args))
    _emit(args, {"is_proper": value}, "true" if value else "false")
    return 0


def _cmd_gc_abelianization(args) -> int:
    free_rank, torsion = gcgroup.gc_abelianization(_signature(args))
    payload = {"free_rank": str(free_rank), "torsion_factors": [str(f) for f in torsion]}
    human = f"free rank {free_rank}, " + (
        f"torsion {list(torsion)}" if torsion else "no torsion"
    )
    _emit(args, payload, human)
    return 0


def _cmd_gc_interval(args) -> int:
    report = gcgroup.interval_subgroup(_signature(args), args.low, args.high)
    payload = {
        "generators": str(report.generators),
        "relators": str(report.relators),
        "free_rank": str(report.free_rank),
        "torsion_factors": [str(f) for f in report.torsion_factors],
    }
    human = (
        f"generators {report.generators}, relators {report.relators}, "
        f"free rank {report.free_rank}, "
        + (f"torsion {list(report.torsion_factors)}" if report.torsion_factors else "no torsion")
    )
    _emit(args, payload, human)
    return 0


def _cmd_gc_index(args) -> int:
    index = gcgroup.power_subgroup_index(_signature(args), args.t, args.cap).index
    _emit(args, {"status": "index", "index": str(index)}, f"index {index}")
    return 0


def _cmd_gc_member(args) -> int:
    vector = [linalg.scalar_from_str(part) for part in args.v.split(",")]
    result = gcgroup.base_membership(_signature(args), vector, args.jmax)
    if result.is_member:
        witness = {str(power): str(coeff) for power, coeff in result.witness}
        human_pairs = ", ".join(f"{p}: {n}" for p, n in result.witness) or "empty combination"
        _emit(
            args,
            {"status": "member", "witness": witness},
            f"member, witness {{{human_pairs}}}",
        )
    else:
        _emit(
            args,
            {"status": "not_found_within_bound", "j_max": str(args.jmax)},
            f"not found within bound j_max={args.jmax}",
        )
    return 0


def _cmd_snf(args) -> int:
    result = linalg.snf(_load_matrix(args.infile))
    payload = {
        "smith": linalg.matrix_to_json(result.smith),
        "left": linalg.matrix_to_json(result.left),
        "right": linalg.matrix_to_json(result.right),
        "invariant_factors": [str(f) for f in result.invariant_factors],
    }
    human = (
        _fmt_matrix(result.smith)
        + "\ninvariant factors: "
        + (", ".join(str(f) for f in result.invariant_factors) or "none")
    )
    _emit(args, payload, human)
    return 0


def _cmd_minors(args) -> int:
    gcds = linalg.minor_gcds(_load_matrix(args.infile))
    _emit(
        args,
        {"minor_gcds": [str(g) for g in gcds]},
        "minor gcds: " + ", ".join(str(g) for g in gcds),
    )
    return 0


def _cmd_band(args) -> int:
    matrix = gcgroup.band_matrix(_signature(args), args.m)
    _emit(args, linalg.matrix_to_json(matrix), _fmt_matrix(matrix))
    return 0


def _cmd_wreath_eval(args) -> int:
    element = wreath.wr_eval(parse_word(args.word), args.mod)
    support_h = ", ".join(f"{p}: {v}" for p, v in element.support)
    human = f"support {{{support_h}}}, shift {element.shift}"
    if element.modulus is not None:
        human += f", modulus {element.modulus}"
    _emit(args, wreath.element_to_json(element), human)
    return 0


def _cmd_wreath_is_identity(args) -> int:
    element = wreath.wr_eval(parse_word(args.word), args.mod)
    value = wreath.wr_is_identity(element)
    _emit(args, {"is_identity": value}, "true" if value else "false")
    return 0


def _cmd_verify_all(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SOLVKIT_SEED", "0"))
    reports = verify.run_all(seed)
    if args.json:
        print(json.dumps(verify.reports_to_json(reports)))
    else:
        width = max(len(r.lemma_id) for r in reports)
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            line = f"{r.lemma_id:<{width}}  {r.cases_passed}/{r.cases_run}  {status}"
            if r.first_failure:
                line += f"  first failure: {r.first_failure}"
            print(line)
        total_run = sum(r.cases_run for r in reports)
        total_passed = sum(r.cases_passed for r in reports)
        print(f"{'total':<{width}}  {total_passed}/{total_run}")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_minkowski(args) -> int:
    bound = verify.minkowski_bound(args.n)
    _emit(args, {"n": str(args.n), "bound": str(bound)}, str(bound))
    return 0


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
    p.add_argument("--cap", type=int, default=gcgroup.DEFAULT_INDEX_WINDOW_CAP)
    p = add_gc("member", _cmd_gc_member)
    p.add_argument("--v", required=True, help="comma-separated rationals, e.g. 1/2,3")
    p.add_argument("--jmax", type=int, default=gcgroup.DEFAULT_MEMBERSHIP_BOUND)

    p = add(sub, "snf", _cmd_snf, help="Smith normal form of a matrix file")
    p.add_argument("--in", dest="infile", required=True)
    p = add(sub, "minors", _cmd_minors, help="gcds of all k x k minors")
    p.add_argument("--in", dest="infile", required=True)
    p = add(sub, "band", _cmd_band, help="banded relation matrix")
    p.add_argument("--c", required=True)
    p.add_argument("--m", type=int, required=True)

    wr = sub.add_parser("wreath", help="wreath product operations")
    wr_sub = wr.add_subparsers(dest="wreath_command", required=True)
    p = add(wr_sub, "eval", _cmd_wreath_eval)
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("word")
    p = add(wr_sub, "is-identity", _cmd_wreath_is_identity)
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
        return args.handler(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
        if "integer string conversion" in message:
            message = f"a number is over the limit of {sys.get_int_max_str_digits()} decimal digits"
        print(f"solvkit: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
