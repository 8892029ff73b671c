"""Executable re-verification of the algebraic facts the library rests on.

Every check runs concrete instances with exact arithmetic (tolerance is
zero by definition) and reports counts instead of raising, so the harness
behaves as a measurement instrument: failures are data.  All sampling is
driven by explicit ``random.Random`` instances, so a fixed seed gives a
byte-identical run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import linalg
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
from .linalg import Matrix
from .words import GeneratorWord
from .wreath import WreathElement, wr_base_relation, wr_eval, wr_inv, wr_mul, wr_pow


@dataclass(frozen=True)
class LemmaReport:
    """Aggregated outcome of one named check."""

    lemma_id: str
    cases_run: int
    cases_passed: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.cases_passed == self.cases_run

    def __post_init__(self):
        if self.cases_passed > self.cases_run:
            raise ValueError("cases_passed cannot exceed cases_run")
        if (self.first_failure is not None) != (self.cases_passed < self.cases_run):
            raise ValueError("first_failure must be present iff some case failed")


class _Recorder:
    def __init__(self, lemma_id: str):
        self.lemma_id = lemma_id
        self.run = 0
        self.passed = 0
        self.first_failure: str | None = None

    def case(self, ok: bool, description: str):
        self.run += 1
        if ok:
            self.passed += 1
        elif self.first_failure is None:
            self.first_failure = description

    def report(self) -> LemmaReport:
        return LemmaReport(self.lemma_id, self.run, self.passed, self.first_failure)


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


def check_band_snf_identity(rng: random.Random) -> LemmaReport:
    """SNF of every banded relation matrix is the identity block (I_m | 0),
    for random signatures and 1 <= m <= 6."""
    rec = _Recorder("band-matrix-snf-identity-block")
    pinned = [(GcSignature((2, 3)), 2)]
    cases = pinned + [(random_signature(rng), rng.randint(1, 6)) for _ in range(100)]
    for c, m in cases:
        smith = linalg.snf(band_matrix(c, m)).smith
        rec.case(smith == _identity_block(m, m + c.s), f"c={c}, m={m}")
    return rec.report()


def check_snf_minor_gcds(rng: random.Random) -> LemmaReport:
    """Invariant factors against the brute-force minor-gcd oracle.

    For each sampled integer matrix (up to 4 x 5, entries in [-9, 9]),
    ``sigma_i * gamma_{i-1} = gamma_i`` must hold up to the rank, where the
    gammas enumerate all minors.
    """
    rec = _Recorder("invariant-factors-vs-minor-gcds")
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = Matrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        gammas = (1,) + linalg.minor_gcds(matrix)
        sigmas = linalg.snf(matrix).invariant_factors
        ok = all(
            sigmas[i] * gammas[i] == gammas[i + 1] for i in range(len(sigmas))
        ) and all(g == 0 for g in gammas[len(sigmas) + 1 :])
        rec.case(ok, f"matrix={matrix!r}")
    return rec.report()


def check_corner_minors(rng: random.Random) -> LemmaReport:
    """The extreme maximal minors of the banded matrix are c_0^m and c_s^m,
    for random signatures and 1 <= m <= 6."""
    rec = _Recorder("banded-corner-minors")
    pinned = [(GcSignature((2, 3)), 2)]
    cases = pinned + [(random_signature(rng), rng.randint(1, 6)) for _ in range(50)]
    for c, m in cases:
        matrix = band_matrix(c, m)
        left = matrix.submatrix(range(m), range(m)).det()
        rec.case(left == c.coeffs[0] ** m, f"left window of c={c}, m={m}: {left}")
        right = matrix.submatrix(range(m), range(c.s, c.s + m)).det()
        rec.case(right == c.coeffs[-1] ** m, f"right window of c={c}, m={m}: {right}")
    return rec.report()


def check_relator_identities(rng: random.Random) -> LemmaReport:
    """Model images satisfy the defining relations, word by word."""
    rec = _Recorder("companion-model-satisfies-relations")
    for _ in range(100):
        c = random_signature(rng)
        rec.case(relator_check(c), f"relator_check failed for c={c}")
        rec.case(
            gc_is_identity(c, defining_relator_word(c)),
            f"defining relator word not trivial for c={c}",
        )
        i = rng.randint(-4, 4)
        rec.case(
            gc_is_identity(c, conjugate_commutator_word(i)),
            f"commutator [b, b_{i}] not trivial for c={c}",
        )
    return rec.report()


def check_torsion_free(rng: random.Random) -> LemmaReport:
    """No nontrivial element has finite order up to the 20th power."""
    rec = _Recorder("torsion-free-power-probe")
    for _ in range(200):
        c = random_signature(rng)
        element = gc_identity(c)
        while element.is_identity:
            element = gc_eval(c, random_word(rng))
        power = element
        ok = True
        for _ in range(20):
            if power.is_identity:
                ok = False
                break
            power = gc_mul(c, power, element)
        rec.case(ok, f"torsion found: c={c}, element={element}")
    return rec.report()


def check_bs_crosscheck() -> LemmaReport:
    """Pinned sanity facts in the classic one-relator cases."""
    rec = _Recorder("baumslag-solitar-crosscheck")
    c = GcSignature((2, -1))
    rec.case(
        gc_eval(c, "a^-1 b a") == gc_eval(c, "b^2"),
        "conjugation by a must double b in G((2,-1))",
    )
    rec.case(gc_is_proper(c), "G((2,-1)) must be proper")
    rec.case(not gc_is_proper(GcSignature((1, 1))), "G((1,1)) must not be proper")
    rec.case(
        not gc_is_proper(GcSignature((1, 1, 1))), "G((1,1,1)) must not be proper"
    )
    rec.case(gc_is_proper(GcSignature((1, 3, 1))), "G((1,3,1)) must be proper")
    return rec.report()


def check_power_index(rng: random.Random) -> LemmaReport:
    """Power-subgroup indexes divide t**s; pinned values hold."""
    rec = _Recorder("power-subgroup-index-bound")
    pinned = [
        (GcSignature((2, -1)), 2, 1),
        (GcSignature((2, -1)), 3, 3),
        (GcSignature((1, -1)), 5, 5),
    ]
    for c, t, expected in pinned:
        result = power_subgroup_index(c, t)
        rec.case(
            result.index == expected,
            f"index of <a, b^{t}> in G({c}) gave {result.index}, expected {expected}",
        )
    for _ in range(50):
        c = random_signature(rng, s_max=3)
        t = rng.randint(1, 6)
        result = power_subgroup_index(c, t)
        ok = 1 <= result.index and t**c.s % result.index == 0
        rec.case(ok, f"c={c}, t={t}: result={result.index}")
    return rec.report()


def check_interval_subgroups(rng: random.Random) -> LemmaReport:
    """Interval subgroups are free abelian of rank min(generators, s), and
    the closed-form report matches the SNF of the banded presentation."""
    rec = _Recorder("interval-subgroups-free")
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
        rec.case(ok, f"c={c}, interval=[{low},{high}]: {report}")
    return rec.report()


def check_wreath(rng: random.Random) -> LemmaReport:
    """Wreath model: base freeness, exponent law, conjugation shift, axioms."""
    rec = _Recorder("wreath-model-properties")

    def random_element(modulus=None):
        lamps = {
            rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))
        }
        return WreathElement.from_support(lamps, rng.randint(-4, 4), modulus)

    for _ in range(100):
        cvec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        element = wr_base_relation(cvec)
        expect_trivial = all(x == 0 for x in cvec)
        rec.case(
            element.is_identity == expect_trivial,
            f"base relation for cvec={cvec} gave {element}",
        )

        modulus = rng.randint(2, 7)
        flat = random_element(modulus)
        flat = WreathElement(flat.support, 0, modulus)
        rec.case(
            wr_pow(flat, modulus).is_identity,
            f"exponent law failed, modulus={modulus}, element={flat}",
        )

        g = random_element()
        k = rng.randint(-5, 5)
        g_flat = WreathElement(g.support, 0, None)
        shift_in = wr_eval(GeneratorWord.from_letters([("a", -k)]))
        shift_out = wr_eval(GeneratorWord.from_letters([("a", k)]))
        conjugated = wr_mul(wr_mul(shift_in, g_flat), shift_out)
        rec.case(
            conjugated.positions == tuple(p + k for p in g_flat.positions),
            f"conjugation by a^{k} did not shift support of {g_flat}",
        )

        x, y, z = random_element(), random_element(), random_element()
        rec.case(
            wr_mul(wr_mul(x, y), z) == wr_mul(x, wr_mul(y, z)),
            f"associativity failed on {x}, {y}, {z}",
        )
        rec.case(
            wr_mul(x, wr_inv(x)).is_identity and wr_mul(wr_inv(x), x).is_identity,
            f"inverse law failed on {x}",
        )
    return rec.report()


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


MINKOWSKI_N_BUDGET = 1331


def minkowski_bound(n: int) -> int:
    """A positive integer divisible by the order of every finite subgroup
    of the n x n integer general linear group.

    Computed by the classical exponent formula: for each prime
    ``p <= n + 1`` the exponent of p is ``sum_k floor(n / (p^k (p-1)))``.
    For ``n`` above ``MINKOWSKI_N_BUDGET`` the bound has more than 4,300
    decimal digits, Python's limit for printing an int, so such ``n`` is
    refused with ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MINKOWSKI_N_BUDGET:
        raise ValueError(f"n {n} is over the budget of {MINKOWSKI_N_BUDGET}")
    bound = 1
    for p in _primes_up_to(n + 1):
        exponent = 0
        pk = 1
        while pk * (p - 1) <= n:
            exponent += n // (pk * (p - 1))
            pk *= p
        bound *= p**exponent
    return bound


def check_minkowski() -> LemmaReport:
    """Formula sanity: pinned small values and the divisibility chain."""
    rec = _Recorder("finite-subgroup-order-bound")
    rec.case(minkowski_bound(1) == 2, f"bound(1) = {minkowski_bound(1)}")
    rec.case(minkowski_bound(2) == 24, f"bound(2) = {minkowski_bound(2)}")
    for n in range(1, 12):
        rec.case(
            minkowski_bound(n + 1) % minkowski_bound(n) == 0,
            f"bound({n}) does not divide bound({n + 1})",
        )
    for n in range(2, 13):
        rec.case(minkowski_bound(n) % 24 == 0, f"bound({n}) not divisible by 24")
    return rec.report()


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
