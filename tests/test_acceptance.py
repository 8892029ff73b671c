"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
assertions are exact (tolerance zero); each criterion also carries a
wall-clock budget that is asserted.
"""

import random
import subprocess
import sys
import time

from finite_groups import finite_subgroup_orders
from solvkit.gcgroup import (
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
from solvkit.linalg import Matrix, minor_gcds, snf
from solvkit.verify import (
    conjugate_commutator_word,
    defining_relator_word,
    minkowski_bound,
    random_signature,
    random_word,
)
from solvkit.words import GeneratorWord
from solvkit.wreath import WreathElement, wr_base_relation, wr_eval, wr_mul, wr_pow


def _criterion(number: int, description: str, budget_seconds: float, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except AssertionError as exc:
        failure = str(exc) or "assertion failed"
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget_seconds
    verdict = "PASS" if failure is None and in_budget else "FAIL"
    print(
        f"criterion {number:02d} [{verdict}] {description} "
        f"({elapsed:.2f}s, budget {budget_seconds:g}s)"
    )
    assert failure is None, f"criterion {number}: {failure}"
    assert in_budget, f"criterion {number}: took {elapsed:.2f}s"


def _identity_block(m: int, cols: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(cols)] for i in range(m)])


def test_criterion_01_banded_snf_identity():
    def body():
        rng = random.Random(101)
        for _ in range(100):
            c = random_signature(rng, s_max=5, coeff_bound=9)
            m = rng.randint(1, 6)
            result = snf(band_matrix(c, m))
            assert result.smith == _identity_block(m, m + c.s), f"c={c}, m={m}"
            assert result.invariant_factors == (1,) * m

    _criterion(1, "banded relation matrices have SNF (I_m | 0)", 30, body)


def test_criterion_02_invariant_factors_vs_minor_oracle():
    def body():
        rng = random.Random(102)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            matrix = Matrix(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            gammas = (1,) + minor_gcds(matrix)
            sigmas = snf(matrix).invariant_factors
            for i in range(len(sigmas)):
                assert sigmas[i] * gammas[i] == gammas[i + 1], f"matrix={matrix!r}"

    _criterion(2, "invariant factors match the brute-force minor gcds", 60, body)


def test_criterion_03_relators_hold_in_model():
    def body():
        rng = random.Random(103)
        for _ in range(100):
            c = random_signature(rng, s_max=5, coeff_bound=9)
            assert relator_check(c), f"c={c}"
            assert gc_is_identity(c, defining_relator_word(c)), f"c={c}"
            for i in range(-4, 5):
                assert gc_is_identity(c, conjugate_commutator_word(i)), f"c={c}, i={i}"

    _criterion(3, "defining relations hold under the faithful embedding", 10, body)


def test_criterion_04_torsion_free_probe():
    def body():
        rng = random.Random(104)
        for _ in range(200):
            c = random_signature(rng)
            element = gc_identity(c)
            while element.is_identity:
                element = gc_eval(c, random_word(rng))
            power = element
            for n in range(1, 21):
                assert not power.is_identity, f"c={c}, g={element}, n={n}"
                power = gc_mul(c, power, element)

    _criterion(4, "no nontrivial element has order <= 20", 10, body)


def test_criterion_05_baumslag_solitar_crosscheck():
    def body():
        c = GcSignature((2, -1))
        assert gc_eval(c, "a^-1 b a") == gc_eval(c, "b^2")
        assert gc_is_proper(c)
        assert not gc_is_proper(GcSignature((1, 1)))
        assert not gc_is_proper(GcSignature((1, 1, 1)))

    _criterion(5, "doubling relation and properness flags", 10, body)


def test_criterion_06_power_subgroup_indexes():
    def body():
        assert power_subgroup_index(GcSignature((2, -1)), 2).index == 1
        assert power_subgroup_index(GcSignature((2, -1)), 3).index == 3
        assert power_subgroup_index(GcSignature((1, -1)), 5).index == 5
        rng = random.Random(106)
        for _ in range(50):
            c = random_signature(rng, s_max=3, coeff_bound=9)
            t = rng.randint(1, 6)
            result = power_subgroup_index(c, t)
            assert result.stabilized, f"c={c}, t={t}"
            assert 1 <= result.index <= t**c.s, f"c={c}, t={t}"
            assert t**c.s % result.index == 0, f"c={c}, t={t}"

    _criterion(6, "power subgroup indexes stabilize and divide t**s", 60, body)


def test_criterion_07_interval_subgroups():
    def body():
        rng = random.Random(107)
        for _ in range(100):
            c = random_signature(rng)
            low = rng.randint(-6, 6)
            high = low + rng.randint(0, 7)
            report = interval_subgroup(c, low, high)
            assert report.free_rank == min(report.generators, c.s), f"c={c}"
            assert report.torsion_factors == (), f"c={c}"

    _criterion(7, "interval subgroups are free of rank min(generators, s)", 20, body)


def test_criterion_08_wreath_suite():
    def body():
        rng = random.Random(108)
        for _ in range(100):
            cvec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            element = wr_base_relation(cvec)
            assert element.is_identity == all(x == 0 for x in cvec), f"cvec={cvec}"

            n = rng.randint(2, 7)
            lamps = {
                rng.randint(-4, 4): rng.randint(-9, 9)
                for _ in range(rng.randint(0, 4))
            }
            flat = WreathElement.from_support(lamps, 0, modulus=n)
            assert wr_pow(flat, n).is_identity, f"n={n}, lamps={lamps}"

            g = WreathElement.from_support(
                {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))},
                0,
            )
            k = rng.randint(-5, 5)
            conjugated = wr_mul(
                wr_mul(wr_eval(GeneratorWord.from_letters([("a", -k)])), g),
                wr_eval(GeneratorWord.from_letters([("a", k)])),
            )
            assert conjugated.positions == tuple(p + k for p in g.positions)

    _criterion(8, "wreath base freeness, exponent law, conjugation shift", 10, body)


def test_criterion_09_finite_subgroup_order_bound():
    def body():
        oracle_one = finite_subgroup_orders(1)
        assert minkowski_bound(1) == 2
        assert all(minkowski_bound(1) % k == 0 for k in oracle_one)
        oracle_two = finite_subgroup_orders(2)
        assert minkowski_bound(2) == 24
        assert all(minkowski_bound(2) % k == 0 for k in oracle_two)
        assert max(oracle_two) == 12  # the bound is attained up to index 2
        for n in range(1, 12):
            assert minkowski_bound(n + 1) % minkowski_bound(n) == 0

    _criterion(9, "order bound confirmed against brute-force subgroups", 60, body)


def test_criterion_10_end_to_end_determinism():
    def body():
        command = [sys.executable, "-m", "solvkit", "verify", "all", "--seed", "0", "--json"]
        first = subprocess.run(command, capture_output=True)
        second = subprocess.run(command, capture_output=True)
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0, second.stderr.decode()
        assert first.stdout == second.stdout
        assert first.stdout.strip()

    _criterion(10, "verify all --seed 0 is byte-identical and green", 120, body)
