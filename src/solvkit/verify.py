"""Executable re-verification of the algebraic facts the library rests on.

Every check yields concrete cases, each an exact test (tolerance is zero
by definition) with the template and arguments of its description, and
``_lemma`` reports their counts instead of raising, so the harness behaves
as a measurement instrument: failures are data.  All sampling is driven by
explicit ``random.Random`` instances, so a fixed seed gives a
byte-identical run.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator, Sequence

from . import linalg
from ._value import _Value
from .gcgroup import (
    GcSignature,
    band_matrix,
    gc_eval,
    gc_identity,
    gc_is_identity,
    gc_is_proper,
    gc_mul,
    interval_subgroup,
    power_subgroup_index,
    relator_check,
)
from .linalg import MINKOWSKI_N_BUDGET, Matrix, minkowski_bound  # noqa: F401  (re-exported)
from .words import GeneratorWord
from .wreath import WreathElement, wr_base_relation, wr_eval, wr_inv, wr_mul, wr_pow


class LemmaReport(_Value):
    """Aggregated outcome of one named check."""

    def __init__(self, lemma_id: str, cases_run: int, cases_passed: int,
                 first_failure: str | None = None):
        if cases_passed > cases_run:
            raise ValueError("cases_passed cannot exceed cases_run")
        if (first_failure is not None) != (cases_passed < cases_run):
            raise ValueError("first_failure must be present iff some case failed")
        self._set(lemma_id, cases_run, cases_passed, first_failure)

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run


def _lemma(lemma_id: str):
    """Turn a generator of ``(ok, template, *args)`` cases into the check of
    ``lemma_id``: it runs every case and reports how many ran and passed,
    with ``template.format(*args)`` for the first that failed, the one
    description it builds."""

    def decorate(cases):
        @functools.wraps(cases)
        def check(*rng) -> LemmaReport:
            run = passed = 0
            first_failure = None
            for ok, template, *args in cases(*rng):
                run += 1
                if ok:
                    passed += 1
                elif first_failure is None:
                    first_failure = template.format(*args)
            return LemmaReport(lemma_id, run, passed, first_failure)

        return check

    return decorate


def random_signature(
    rng: random.Random, s_max: int = 5, coeff_bound: int = 9
) -> GcSignature:
    """Uniformly sampled valid signature (rejection on the constraints)."""
    while True:
        s = rng.randint(1, s_max)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(s + 1)]
        try:
            return GcSignature(tuple(coeffs))
        except ValueError:
            continue


def random_word(
    rng: random.Random, max_terms: int = 10, max_exponent: int = 3
) -> GeneratorWord:
    terms = rng.randint(0, max_terms)
    pairs = [
        (rng.choice("ab"), rng.randint(-max_exponent, max_exponent))
        for _ in range(terms)
    ]
    return GeneratorWord.from_letters(pairs)


def defining_relator_word(c: GcSignature) -> GeneratorWord:
    """The word ``b^{c_0} (a^-1 b a)^{c_1} ... (a^-s b a^s)^{c_s}``."""
    pairs: list[tuple[str, int]] = []
    for i, coeff in enumerate(c.coeffs):
        if coeff == 0:
            continue
        pairs.extend([("a", -i), ("b", coeff), ("a", i)])
    return GeneratorWord.from_letters(pairs)


def conjugate_commutator_word(i: int) -> GeneratorWord:
    """The commutator ``[b, a^-i b a^i]`` as a word."""
    pairs = [
        ("b", -1),
        ("a", -i),
        ("b", -1),
        ("a", i),
        ("b", 1),
        ("a", -i),
        ("b", 1),
        ("a", i),
    ]
    return GeneratorWord.from_letters(pairs)


def _identity_block(m: int, cols: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(cols)] for i in range(m)])


@_lemma("band-matrix-snf-identity-block")
def check_band_snf_identity(rng: random.Random) -> Iterator[tuple]:
    """SNF of every banded relation matrix is the identity block (I_m | 0),
    for random signatures and 1 <= m <= 6."""
    pinned = [(GcSignature((2, 3)), 2)]
    cases = pinned + [(random_signature(rng), rng.randint(1, 6)) for _ in range(100)]
    for c, m in cases:
        smith = linalg.snf(band_matrix(c, m)).smith
        yield smith == _identity_block(m, m + c.s), "c={}, m={}", c, m


@_lemma("invariant-factors-vs-minor-gcds")
def check_snf_minor_gcds(rng: random.Random) -> Iterator[tuple]:
    """Invariant factors against the brute-force minor-gcd oracle.

    For each sampled integer matrix (up to 4 x 5, entries in [-9, 9]),
    ``sigma_i * gamma_{i-1} = gamma_i`` must hold up to the rank, where the
    gammas enumerate all minors.
    """
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = Matrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        gammas = (1,) + linalg.minor_gcds(matrix)
        sigmas = linalg.snf(matrix).invariant_factors
        ok = all(
            sigmas[i] * gammas[i] == gammas[i + 1] for i in range(len(sigmas))
        ) and all(g == 0 for g in gammas[len(sigmas) + 1 :])
        yield ok, "matrix={!r}", matrix


@_lemma("banded-corner-minors")
def check_corner_minors(rng: random.Random) -> Iterator[tuple]:
    """The extreme maximal minors of the banded matrix are c_0^m and c_s^m,
    for random signatures and 1 <= m <= 6."""
    pinned = [(GcSignature((2, 3)), 2)]
    cases = pinned + [(random_signature(rng), rng.randint(1, 6)) for _ in range(50)]
    for c, m in cases:
        matrix = band_matrix(c, m)
        left = matrix.submatrix(range(m), range(m)).det()
        yield left == c.coeffs[0] ** m, "left window of c={}, m={}: {}", c, m, left
        right = matrix.submatrix(range(m), range(c.s, c.s + m)).det()
        yield right == c.coeffs[-1] ** m, "right window of c={}, m={}: {}", c, m, right


@_lemma("companion-model-satisfies-relations")
def check_relator_identities(rng: random.Random) -> Iterator[tuple]:
    """Model images satisfy the defining relations, word by word."""
    for _ in range(100):
        c = random_signature(rng)
        yield relator_check(c), "relator_check failed for c={}", c
        yield (
            gc_is_identity(c, defining_relator_word(c)),
            "defining relator word not trivial for c={}", c,
        )
        i = rng.randint(-4, 4)
        yield (
            gc_is_identity(c, conjugate_commutator_word(i)),
            "commutator [b, b_{}] not trivial for c={}", i, c,
        )


@_lemma("torsion-free-power-probe")
def check_torsion_free(rng: random.Random) -> Iterator[tuple]:
    """No nontrivial element has finite order up to the 20th power."""
    for _ in range(200):
        c = random_signature(rng)
        element = gc_identity(c)
        while element.is_identity:
            element = gc_eval(c, random_word(rng))
        powers = itertools.accumulate([element] * 20, functools.partial(gc_mul, c))
        yield not any(p.is_identity for p in powers), "torsion found: c={}, element={}", c, element


@_lemma("baumslag-solitar-crosscheck")
def check_bs_crosscheck() -> Iterator[tuple]:
    """Pinned sanity facts in the classic one-relator cases."""
    c = GcSignature((2, -1))
    yield (
        gc_eval(c, "a^-1 b a") == gc_eval(c, "b^2"),
        "conjugation by a must double b in G((2,-1))",
    )
    yield gc_is_proper(c), "G((2,-1)) must be proper"
    yield not gc_is_proper(GcSignature((1, 1))), "G((1,1)) must not be proper"
    yield not gc_is_proper(GcSignature((1, 1, 1))), "G((1,1,1)) must not be proper"
    yield gc_is_proper(GcSignature((1, 3, 1))), "G((1,3,1)) must be proper"


@_lemma("power-subgroup-index-bound")
def check_power_index(rng: random.Random) -> Iterator[tuple]:
    """Power-subgroup indexes divide t**s; pinned values hold."""
    pinned = [
        (GcSignature((2, -1)), 2, 1),
        (GcSignature((2, -1)), 3, 3),
        (GcSignature((1, -1)), 5, 5),
    ]
    for c, t, expected in pinned:
        result = power_subgroup_index(c, t)
        yield (
            result.index == expected,
            "index of <a, b^{}> in G({}) gave {}, expected {}", t, c, result.index, expected,
        )
    for _ in range(50):
        c = random_signature(rng, s_max=3)
        t = rng.randint(1, 6)
        result = power_subgroup_index(c, t)
        ok = 1 <= result.index and t**c.s % result.index == 0
        yield ok, "c={}, t={}: result={}", c, t, result.index


@_lemma("interval-subgroups-free")
def check_interval_subgroups(rng: random.Random) -> Iterator[tuple]:
    """Interval subgroups are free abelian of rank min(generators, s), and
    the closed-form report matches the SNF of the banded presentation."""
    for _ in range(100):
        c = random_signature(rng)
        low = rng.randint(-5, 5)
        high = low + rng.randint(0, 7)
        report = interval_subgroup(c, low, high)
        factors = ()
        if report.relators:
            factors = linalg.snf(band_matrix(c, report.relators)).invariant_factors
        from_snf = (report.generators - len(factors), tuple(f for f in factors if f > 1))
        expected = (min(report.generators, c.s), ())
        ok = (report.free_rank, report.torsion_factors) == from_snf == expected
        yield ok, "c={}, interval=[{},{}]: {}", c, low, high, report


@_lemma("wreath-model-properties")
def check_wreath(rng: random.Random) -> Iterator[tuple]:
    """Wreath model: base freeness, exponent law, conjugation shift, axioms."""

    def random_element(modulus=None):
        lamps = {
            rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))
        }
        return WreathElement.from_support(lamps, rng.randint(-4, 4), modulus)

    for _ in range(100):
        cvec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        element = wr_base_relation(cvec)
        expect_trivial = all(x == 0 for x in cvec)
        yield (
            element.is_identity == expect_trivial,
            "base relation for cvec={} gave {}", cvec, element,
        )

        modulus = rng.randint(2, 7)
        flat = random_element(modulus)
        flat = WreathElement(flat.support, 0, modulus)
        yield (
            wr_pow(flat, modulus).is_identity,
            "exponent law failed, modulus={}, element={}", modulus, flat,
        )

        g = random_element()
        k = rng.randint(-5, 5)
        g_flat = WreathElement(g.support, 0, None)
        shift_in = wr_eval(GeneratorWord.from_letters([("a", -k)]))
        shift_out = wr_eval(GeneratorWord.from_letters([("a", k)]))
        conjugated = wr_mul(wr_mul(shift_in, g_flat), shift_out)
        yield (
            conjugated.positions == tuple(p + k for p in g_flat.positions),
            "conjugation by a^{} did not shift support of {}", k, g_flat,
        )

        x, y, z = random_element(), random_element(), random_element()
        yield (
            wr_mul(wr_mul(x, y), z) == wr_mul(x, wr_mul(y, z)),
            "associativity failed on {}, {}, {}", x, y, z,
        )
        yield (
            wr_mul(x, wr_inv(x)).is_identity and wr_mul(wr_inv(x), x).is_identity,
            "inverse law failed on {}", x,
        )


@_lemma("finite-subgroup-order-bound")
def check_minkowski() -> Iterator[tuple]:
    """Formula sanity: pinned small values and the divisibility chain."""
    yield minkowski_bound(1) == 2, "bound(1) = {}", minkowski_bound(1)
    yield minkowski_bound(2) == 24, "bound(2) = {}", minkowski_bound(2)
    for n in range(1, 12):
        yield (
            minkowski_bound(n + 1) % minkowski_bound(n) == 0,
            "bound({}) does not divide bound({})", n, n + 1,
        )
    for n in range(2, 13):
        yield minkowski_bound(n) % 24 == 0, "bound({}) not divisible by 24", n


def run_all(seed: int = 0) -> list[LemmaReport]:
    """Run every check with sampling derived deterministically from seed."""
    master = random.Random(seed)

    def child() -> random.Random:
        return random.Random(master.randrange(2**63))

    return [
        check_band_snf_identity(child()),
        check_snf_minor_gcds(child()),
        check_corner_minors(child()),
        check_relator_identities(child()),
        check_torsion_free(child()),
        check_bs_crosscheck(),
        check_power_index(child()),
        check_interval_subgroups(child()),
        check_wreath(child()),
        check_minkowski(),
    ]


def reports_to_json(reports: Sequence[LemmaReport]) -> list[dict]:
    return [
        {
            "lemma_id": r.lemma_id,
            "cases_run": str(r.cases_run),
            "cases_passed": str(r.cases_passed),
            "first_failure": r.first_failure,
        }
        for r in reports
    ]
