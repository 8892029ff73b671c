"""The four workloads: inputs and known answers from a seed.

Each generator returns a list of :class:`Op`.  ``call`` runs one request
against solvkit and returns its answer; ``expected`` is the answer the
generator built without asking solvkit (see ``oracles``).  ``CHECKS[kind]``
holds ``(check, wrong)``: ``check(result, expected)`` accepts a correct
answer, and ``wrong(expected)`` turns a known answer into a wrong one, so
the self-test can show that every check rejects it.

Each generator takes ``quick``: tiny sizes, used only by the self-test.  All
``import solvkit`` statements sit inside the generators, so that the set-up
timer sees them.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracles as orc


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    expected: Any


def _eq(result, expected) -> bool:
    return result == expected


def _flip_first(expected):
    return (not expected[0],) + tuple(expected[1:])


# Signatures, band sizes, t values, interval widths, matrix shapes and the
# order of the requests come from a fixed catalogue, not from the seed.
# The cost of one evaluation in G(c) swings several-fold with c (the
# denominators and root sizes of the companion matrix), so drawing c from
# the seed made the wall time of a pass differ by about 20% between seeds.
# The order decides which requests meet a warm ``action_power`` cache:
# drawn from the seed, it gave the word-problem 90th percentile a spread of
# 0.14 over five seeds, against 0.05 in a fixed order.  The seed draws
# everything else: the words, the moduli and the matrix and vector contents.
CATALOGUE = "solvbench-catalogue-1"


def catalogue_rng(part: str) -> random.Random:
    return random.Random(f"{CATALOGUE}-{part}")


# -- word-problem -------------------------------------------------------------

# (letters, words per pass) for each s.  Most requests are short.  The
# counts put the median latency in the middle of the s = 4 short words
# rather than at the edge between two classes.  s = 8
# stops at 1000 letters: one 5000-letter s = 8 word takes 2-3.5 s at the
# seed commit, and that cost swings with the signature, so a single draw
# would set the wall time of the whole pass.
WORD_PLAN = {
    2: ((100, 30), (1000, 6), (5000, 2)),
    4: ((100, 20), (1000, 6), (5000, 1)),
    8: ((100, 16), (1000, 3)),
}
WORD_PLAN_QUICK = {2: ((20, 2), (60, 1)), 4: ((20, 1),), 8: ((20, 1),)}
COEFF_BOUND = 3
A_BOUND = 4


def _trivial_pairs(rng, c, letters, a_bound):
    # w . (conjugated relators and commutators) . w^-1
    w = orc.random_pairs(rng, max(1, letters // 4), a_bound, 3 * a_bound)
    body: list = []
    while len(body) < letters - 2 * len(w):
        u = orc.random_pairs(rng, rng.randint(2, 8), a_bound, 3 * a_bound)
        if rng.random() < 0.5:
            piece = orc.relator_pairs(c)
            if rng.random() < 0.5:
                piece = orc.inverse_pairs(piece)
        else:
            piece = orc.commutator_pairs(rng.randint(1, len(c) + 2))
        body += u + piece + orc.inverse_pairs(u)
    return w + body + orc.inverse_pairs(w)


def _nontrivial_pairs(rng, letters, a_bound):
    # w . b^k . w^-1 with k != 0: nontrivial since G(c) is torsion-free
    w = orc.random_pairs(rng, max(1, (letters - 1) // 2), a_bound, 3 * a_bound)
    k = rng.choice((-1, 1)) * rng.randint(1, 5)
    return w, k, w + [("b", k)] + orc.inverse_pairs(w)


def word_problem(seed: int, quick: bool) -> list[Op]:
    from solvkit import gcgroup, words, wreath

    rng = random.Random(seed)
    plan = WORD_PLAN_QUICK if quick else WORD_PLAN
    signatures = {s: iter([orc.random_signature(catalogue_rng(f"word-{s}"), s, COEFF_BOUND)
                           for _ in range(40)]) for s in plan}
    pool = {s: [next(signatures[s]) for _ in range(3)] for s in plan}
    # Longest first, so the few long words also alternate reuse and
    # triviality; half reuse a pool signature (cache hits), half take a
    # fresh one (cache misses).
    classes = sorted(((letters, s, count) for s in plan for letters, count in plan[s]), reverse=True)
    specs = []
    for letters, s, count in classes:
        for j in range(count):
            n = len(specs)
            reuse = n % 2 == 0
            c = pool[s][j % 3] if reuse else next(signatures[s])
            specs.append((c, letters, (n // 2) % 2 == 0))
    catalogue_rng("word-order").shuffle(specs)
    ops = []
    for c, letters, trivial in specs:
        sig = gcgroup.GcSignature(c)
        modulus = rng.randint(2, 9) if rng.random() < 0.5 else None
        if trivial:
            pairs = _trivial_pairs(rng, c, letters, A_BOUND)
            expected = (True,) + orc.lamps(pairs, modulus)
        else:
            w, k, pairs = _nontrivial_pairs(rng, letters, A_BOUND)
            shift_w = orc.a_total(w)
            translation = tuple(k * x for x in orc.x_power_mod(c, -shift_w))
            expected = (translation, 0) + orc.lamps(pairs, modulus)
        text = orc.word_text(pairs)

        def call(sig=sig, text=text, modulus=modulus, trivial=trivial):
            word = words.parse_word(text)
            if trivial:
                head = (gcgroup.gc_is_identity(sig, word),)
            else:
                element = gcgroup.gc_eval(sig, word)
                head = (element.translation, element.shift)
            lamp = wreath.wr_eval(word, modulus)
            return head + (lamp.support, lamp.shift)

        ops.append(Op("word.trivial" if trivial else "word.nontrivial", call, expected))
    return ops


def _wrong_translation(expected):
    translation = (expected[0][0] + 1,) + tuple(expected[0][1:])
    return (translation,) + tuple(expected[1:])


# -- exact-linalg --------------------------------------------------------------

def _band_rows(c, m):
    s = len(c) - 1
    return [[c[j - i] if 0 <= j - i <= s else 0 for j in range(m + s)] for i in range(m)]


def _snf_check(result, expected) -> bool:
    original, factors = expected
    return tuple(result.invariant_factors) == tuple(factors) and orc.smith_certificate(
        original,
        result.smith.rows_as_tuples(),
        result.left.rows_as_tuples(),
        result.right.rows_as_tuples(),
        tuple(factors),
    )


def _snf_wrong(expected):
    original, factors = expected
    return original, tuple(factors[:-1]) + (factors[-1] * 2 + 1,)


def _solve_check(result, expected) -> bool:
    rows, rhs, solvable = expected
    if not solvable:
        return result is None
    return result is not None and orc.matvec(rows, result) == list(rhs)


def _solve_wrong(expected):
    rows, rhs, solvable = expected
    return rows, rhs, not solvable


def _member_check(result, expected) -> bool:
    c, vector = expected
    return result.is_member and orc.orbit_combination(c, result.witness) == tuple(vector)


def _member_wrong(expected):
    c, vector = expected
    return c, (vector[0] + 1,) + tuple(vector[1:])


def _index_check(result, expected) -> bool:
    t, s, index = expected
    return result.index == index and t**s % index == 0


def _index_wrong(expected):
    t, s, index = expected
    return t, s, index + 1


def _proper_signature(rng, s, proper):
    if not proper:
        return orc.cyclotomic_product(rng, s)
    if s >= 7:
        # trinomial +-2 +- x^j +- x^s: |c_0| = 2 makes it proper, and the
        # unit leading coefficient keeps A^K integral
        c = [0] * (s + 1)
        c[0] = rng.choice((-2, 2))
        c[rng.randint(1, s - 1)] = rng.choice((-1, 1))
        c[s] = rng.choice((-1, 1))
        return tuple(c)
    while True:
        c = orc.random_signature(rng, s, 3)
        if abs(c[0]) >= 2:
            return c


LINALG_PLAN = {
    # kind: ops per pass (full, quick)
    "snf.band": (24, 2),
    "snf.dense": (12, 1),
    "solve": (24, 2),
    "member": (36, 2),
    "index": (36, 2),
    "proper": (30, 2),
    "interval": (18, 1),
    "abelianization": (12, 1),
}
# Band cost grows much faster with m for larger s (entry growth in the
# transforms), so m is sized per s.
BAND_M = {1: (20, 50, 100), 2: (20, 40, 60), 3: (15, 25, 35), 4: (10, 20, 30)}


def exact_linalg(seed: int, quick: bool) -> list[Op]:
    from solvkit import gcgroup, linalg

    rng = random.Random(seed)
    cat = catalogue_rng("linalg")  # signatures, shapes and t: see CATALOGUE
    Matrix = linalg.Matrix
    ops: list[Op] = []
    for kind, counts in LINALG_PLAN.items():
        for i in range(counts[1] if quick else counts[0]):
            if kind == "snf.band":
                s = 1 + i % 4
                m = BAND_M[s][(i // 4) % 3] // (5 if quick else 1)
                rows = _band_rows(orc.random_signature(cat, s, 5), m)
                expected = (rows, (1,) * m)
                call = lambda M=Matrix(rows): linalg.snf(M)
            elif kind == "snf.dense":
                n = 5 if quick else (10, 20, 30)[i % 3]
                diag = orc.divisibility_chain(cat, n, n - cat.randint(0, 2))
                rows, _ = orc.with_smith_form(rng, n, n, diag)
                expected = (rows, tuple(d for d in diag if d))
                call = lambda M=Matrix(rows): linalg.snf(M)
            elif kind == "solve":
                r, cols = cat.randint(4, 16), cat.randint(4, 16)
                rank = min(r, cols) - cat.randint(0, 1)
                diag = orc.divisibility_chain(rng, min(r, cols), rank)
                rows, left = orc.with_smith_form(rng, r, cols, diag)
                solvable = i % 4 != 3 or max(diag) < 2 and rank == min(r, cols) == r
                if solvable:
                    rhs = orc.matvec(rows, [rng.randint(-9, 9) for _ in range(cols)])
                else:
                    # y_j = d_j z_j + 1 at a position where d_j != 1 (or a zero row)
                    y = [d * rng.randint(-5, 5) for d in diag] + [0] * (r - len(diag))
                    bad = next(j for j in range(r) if j >= len(diag) or diag[j] != 1)
                    y[bad] += 1
                    rhs = orc.matvec(left, y)
                expected = (rows, rhs, solvable)
                call = lambda M=Matrix(rows), rhs=rhs: linalg.solve_integer_system(M, rhs)
            elif kind == "member":
                s = 1 + i % 4
                c = orc.random_signature(cat, s, 5)
                # the catalogue picks the powers, which set how many windows
                # base_membership searches; the seed picks nonzero coefficients
                terms = [(p, rng.choice((-1, 1)) * rng.randint(1, 5))
                         for p in range(-3, s + 3) if cat.random() < 0.6]
                vector = orc.orbit_combination(c, terms)
                expected = (c, vector)
                call = lambda sig=gcgroup.GcSignature(c), v=vector: gcgroup.base_membership(sig, v)
            elif kind == "index":
                s = 1 + i % 4
                c = orc.random_signature(cat, s, 9)
                t = cat.randint(2, 30)
                expected = (t, s, orc.power_index(c, t))
                call = lambda sig=gcgroup.GcSignature(c), t=t: gcgroup.power_subgroup_index(sig, t)
            elif kind == "proper":
                s = 1 + i % 10
                proper = (i // 10 + i) % 2 == 0
                c = _proper_signature(cat, s, proper)
                expected = proper
                call = lambda sig=gcgroup.GcSignature(c): gcgroup.gc_is_proper(sig)
            elif kind == "interval":
                s = 1 + i % 4
                c = orc.random_signature(cat, s, 5)
                low = rng.randint(-10, 10)
                high = low + cat.randint(0, 6 if quick else 60)
                g = high - low + 1
                expected = (g, max(0, g - s), min(g, s), ())

                def call(sig=gcgroup.GcSignature(c), low=low, high=high):
                    r = gcgroup.interval_subgroup(sig, low, high)
                    return r.generators, r.relators, r.free_rank, tuple(r.torsion_factors)
            else:  # abelianization
                c = orc.random_signature(rng, 1 + i % 4, 5)
                total = abs(sum(c))
                expected = (2, ()) if total == 0 else (1, (total,) if total > 1 else ())

                def call(sig=gcgroup.GcSignature(c)):
                    rank, torsion = gcgroup.gc_abelianization(sig)
                    return rank, tuple(torsion)
            ops.append(Op(kind, call, expected))
    catalogue_rng("linalg-order").shuffle(ops)
    return ops


# -- verify-harness --------------------------------------------------------------

# Lemma ids and case counts of ``verify.run_all``, in order: the contract of
# ``solvkit verify all --json``.
VERIFY_CASES = (
    ("band-matrix-snf-identity-block", 101),
    ("invariant-factors-vs-minor-gcds", 200),
    ("banded-corner-minors", 102),
    ("companion-model-satisfies-relations", 300),
    ("torsion-free-power-probe", 200),
    ("baumslag-solitar-crosscheck", 5),
    ("power-subgroup-index-bound", 53),
    ("interval-subgroups-free", 100),
    ("wreath-model-properties", 500),
    ("finite-subgroup-order-bound", 24),
)
LEMMA_IDS = tuple(lemma for lemma, _ in VERIFY_CASES)


def _verify_check(result, expected) -> bool:
    got = tuple(
        (r["lemma_id"], int(r["cases_run"]))
        for r in json.loads(result)
        if r["cases_passed"] == r["cases_run"] and r["first_failure"] is None
    )
    return got == expected


def _verify_wrong(expected):
    (lemma, count), *rest = expected
    return ((lemma, count + 1), *rest)


def verify_harness(seed: int, quick: bool) -> list[Op]:
    from solvkit import verify

    rng = random.Random(seed)
    ops = []
    # The cost of run_all differs by up to ~10% between child seeds; six
    # per pass keep that from setting the spread between workload seeds.
    for _ in range(1 if quick else 6):
        child_seed = rng.randrange(2**31)
        ops.append(Op(
            "verify",
            lambda child_seed=child_seed: json.dumps(
                verify.reports_to_json(verify.run_all(child_seed))),
            VERIFY_CASES,
        ))
    return ops


def digest(result) -> str:
    """Fingerprint of a ``verify`` answer, compared across processes."""
    return hashlib.sha256(result.encode()).hexdigest()


# -- cli-calls --------------------------------------------------------------------

CLI_CALLS = {False: 36, True: 3}  # requests per pass (full, quick)
# Hand-checked values of the finite-subgroup order bound.
MINKOWSKI = {1: 2, 2: 24, 3: 48, 4: 5760, 5: 11520, 6: 2903040}


def _gc_eval_line(c, rng):
    w = orc.random_pairs(rng, rng.randint(3, 9), 4, 12)
    k = rng.choice((-2, -1, 1, 3))
    translation = [str(k * x) for x in orc.x_power_mod(c, -orc.a_total(w))]
    pairs = w + [("b", k)] + orc.inverse_pairs(w)
    return ["gc", "eval", "--c=" + _sig(c), orc.word_text(pairs)], {"translation": translation, "shift": "0"}


def _sig(c):
    # joined as --c=..., since argparse reads a leading "-1,..." as an option
    return ",".join(str(x) for x in c)


def cli_requests(rng: random.Random, count: int):
    """``(argv, expected stdout line)`` pairs, a fixed mix of small requests."""
    out = []
    for i in range(count):
        kind = i % 9
        c = orc.random_signature(rng, rng.randint(1, 3), 5)
        if kind == 0:
            trivial = rng.random() < 0.5
            if trivial:
                pairs = _trivial_pairs(rng, c, 24, 3)
            else:
                pairs = _nontrivial_pairs(rng, 24, 3)[2]
            argv = ["gc", "is-identity", "--c=" + _sig(c), orc.word_text(pairs)]
            payload = {"is_identity": trivial}
        elif kind == 1:
            argv, payload = _gc_eval_line(c, rng)
        elif kind == 2:
            modulus = rng.choice((None, 2, 3, 5, 7))
            pairs = orc.random_pairs(rng, rng.randint(4, 20), 3, 9)
            support, shift = orc.lamps(pairs, modulus)
            argv = ["wreath", "eval"] + (["--mod", str(modulus)] if modulus else []) + [orc.word_text(pairs)]
            payload = {"shift": str(shift), "support": {str(p): str(v) for p, v in support}, "modulus": modulus}
        elif kind == 3:
            t = rng.randint(2, 12)
            argv = ["gc", "index", "--c=" + _sig(c), "--t", str(t)]
            payload = {"status": "index", "index": str(orc.power_index(c, t))}
        elif kind == 4:
            low = rng.randint(-5, 5)
            high = low + rng.randint(0, 8)
            g = high - low + 1
            s = len(c) - 1
            argv = ["gc", "interval", "--c=" + _sig(c), "--from", str(low), "--to", str(high)]
            payload = {"generators": str(g), "relators": str(max(0, g - s)),
                       "free_rank": str(min(g, s)), "torsion_factors": []}
        elif kind == 5:
            total = abs(sum(c))
            argv = ["gc", "abelianization", "--c=" + _sig(c)]
            payload = {"free_rank": "2" if total == 0 else "1",
                       "torsion_factors": [str(total)] if total > 1 else []}
        elif kind == 6:
            proper = rng.random() < 0.5
            c = _proper_signature(rng, rng.randint(1, 4), proper)
            argv = ["gc", "is-proper", "--c=" + _sig(c)]
            payload = {"is_proper": proper}
        elif kind == 7:
            m = rng.randint(1, 4)
            rows = _band_rows(c, m)
            argv = ["band", "--c=" + _sig(c), "--m", str(m)]
            payload = {"rows": m, "cols": len(rows[0]), "entries": [[str(x) for x in r] for r in rows]}
        else:
            n = rng.choice(sorted(MINKOWSKI))
            argv = ["minkowski", "--n", str(n)]
            payload = {"n": str(n), "bound": str(MINKOWSKI[n])}
        out.append((argv + ["--json"], json.dumps(payload) + "\n"))
    return out


def _cli_check(result, expected) -> bool:
    return result.returncode == 0 and result.stdout == expected and result.stderr == ""


def _cli_wrong(expected):
    return expected.replace('"', "'", 1)


def cli_calls(seed: int, quick: bool) -> list[Op]:
    import solvkit  # noqa: F401  (set-up cost is the same for every workload)

    rng = random.Random(seed)
    ops = []
    for argv, line in cli_requests(rng, CLI_CALLS[quick]):
        ops.append(Op(
            "cli",
            lambda argv=argv: subprocess.run(
                [sys.executable, "-m", "solvkit", *argv], capture_output=True, text=True,
                timeout=60),
            line,
        ))
    return ops


GENERATORS = {
    "verify-harness": verify_harness,
    "word-problem": word_problem,
    "exact-linalg": exact_linalg,
    "cli-calls": cli_calls,
}

CHECKS = {
    "word.trivial": (_eq, _flip_first),
    "word.nontrivial": (_eq, _wrong_translation),
    "snf.band": (_snf_check, _snf_wrong),
    "snf.dense": (_snf_check, _snf_wrong),
    "solve": (_solve_check, _solve_wrong),
    "member": (_member_check, _member_wrong),
    "index": (_index_check, _index_wrong),
    "proper": (_eq, lambda expected: not expected),
    "interval": (_eq, lambda expected: expected[:2] + (expected[2] + 1,) + expected[3:]),
    "abelianization": (_eq, lambda expected: (expected[0] + 1, expected[1])),
    "verify": (_verify_check, _verify_wrong),
    "cli": (_cli_check, _cli_wrong),
}
