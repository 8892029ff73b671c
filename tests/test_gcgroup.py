import math
import random
import sys
import time
from fractions import Fraction

import pytest
from properness_reference import _divide_monic, trial_division_is_proper
from window_search import stable_image_cardinality, window_search_index

from solvkit import gcgroup, linalg
from solvkit.gcgroup import (
    BAND_ROWS_BUDGET,
    DEFAULT_INDEX_WINDOW_CAP,
    MEMBERSHIP_WINDOW_BUDGET,
    STEP_LIMIT,
    GcElement,
    GcSignature,
    band_matrix,
    base_membership,
    basis_orbit_vector,
    companion_action,
    gc_abelianization,
    gc_eval,
    gc_identity,
    gc_inv,
    gc_is_identity,
    gc_is_proper,
    gc_mul,
    gc_pow,
    interval_subgroup,
    parse_signature,
    power_subgroup_index,
    relator_check,
)
from solvkit.gcgroup import _element, _reduce, _residue, _scalars, _times_x_power
from solvkit.linalg import DimensionError, Matrix, mat_pow, snf, solve_integer_system
from solvkit.verify import (
    conjugate_commutator_word,
    defining_relator_word,
    random_signature,
    random_word,
)
from solvkit.wreath import WreathElement, wr_eval, wr_mul


def char_poly_monic(a: Matrix) -> list[Fraction]:
    """det(xI - A) by Faddeev-LeVerrier, coefficients ascending in x."""
    n = a.rows
    identity = Matrix.identity(n)
    m = identity
    descending = [Fraction(1)]
    for k in range(1, n + 1):
        am = a * m
        trace = sum(am[i, i] for i in range(n))
        ck = Fraction(-trace) / k
        descending.append(ck)
        m = am + ck * identity
    return list(reversed(descending))


class TestSignature:
    def test_valid(self):
        c = GcSignature((2, -1))
        assert c.s == 1
        assert str(c) == "2,-1"

    def test_interior_zero_allowed(self):
        assert GcSignature((1, 0, 5)).s == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            GcSignature((3,))

    def test_zero_endpoints(self):
        with pytest.raises(ValueError):
            GcSignature((0, 1))
        with pytest.raises(ValueError):
            GcSignature((1, 0))

    def test_gcd_condition(self):
        with pytest.raises(ValueError):
            GcSignature((2, 4))

    @pytest.mark.parametrize("coeffs, kind", [((2, True), "bool"), ((2.0, -1), "float"),
                                              ((2, "-1", 1.5), "str"), ("21", "str")])
    def test_coefficients_are_integers_not_bools(self, coeffs, kind):
        # the first coefficient that is no int, or is a bool, is named
        with pytest.raises(TypeError) as caught:
            GcSignature(coeffs)
        assert str(caught.value) == f"signature coefficient must be an integer, got {kind}"

    def test_parse(self):
        assert parse_signature("1,0,5").coeffs == (1, 0, 5)
        with pytest.raises(ValueError):
            parse_signature("1,x")


class TestBandMatrix:
    def test_two_row_example(self):
        assert band_matrix(GcSignature((2, 3)), 2) == Matrix(
            [[2, 3, 0], [0, 2, 3]]
        )

    def test_single_row_is_signature(self):
        assert band_matrix(GcSignature((1, 0, 5)), 1) == Matrix([[1, 0, 5]])

    def test_dimensions(self):
        rng = random.Random(3)
        for _ in range(25):
            c = random_signature(rng)
            m = rng.randint(1, 6)
            matrix = band_matrix(c, m)
            assert (matrix.rows, matrix.cols) == (m, m + c.s)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            band_matrix(GcSignature((2, 3)), 0)

    def test_rows_over_budget_rejected(self):
        c = GcSignature((2, 3))
        assert band_matrix(c, BAND_ROWS_BUDGET).rows == BAND_ROWS_BUDGET
        with pytest.raises(ValueError, match="budget"):
            band_matrix(c, BAND_ROWS_BUDGET + 1)


class TestCompanionAction:
    def test_one_dimensional_examples(self):
        assert companion_action(GcSignature((2, -1))) == Matrix([[2]])
        assert companion_action(GcSignature((1, 1))) == Matrix([[-1]])

    def test_two_dimensional_example(self):
        assert companion_action(GcSignature((1, 1, 1))) == Matrix(
            [[0, 1], [-1, -1]]
        )

    def test_characteristic_polynomial_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            c = random_signature(rng, s_max=4)
            a = companion_action(c)
            expected = [Fraction(coeff, c.coeffs[-1]) for coeff in c.coeffs]
            assert char_poly_monic(a) == expected

    def test_relator_check_on_random_signatures(self):
        rng = random.Random(23)
        for _ in range(100):
            assert relator_check(random_signature(rng))


class TestElementArithmetic:
    def test_identity_laws(self):
        rng = random.Random(8)
        for _ in range(50):
            c = random_signature(rng)
            g = gc_eval(c, random_word(rng))
            e = gc_identity(c)
            assert gc_mul(c, e, g) == g
            assert gc_mul(c, g, e) == g

    def test_conjugation_example_bs12(self):
        # alpha^-1 beta alpha evaluated two ways in the coefficient group (2,-1)
        c = GcSignature((2, -1))
        beta = GcElement((1,), 0)
        alpha = GcElement((0,), 1)
        inner = gc_mul(c, beta, alpha)
        conjugated = gc_mul(c, gc_inv(c, alpha), inner)
        assert conjugated == GcElement((2,), 0)
        assert conjugated == gc_eval(c, "a^-1 b a")

    def test_inverse_examples(self):
        c = GcSignature((2, -1))
        assert gc_inv(c, gc_identity(c)) == gc_identity(c)
        assert gc_inv(c, GcElement((1,), 0)) == GcElement((-1,), 0)

    def test_inverse_law_random(self):
        rng = random.Random(31)
        for _ in range(100):
            c = random_signature(rng)
            g = gc_eval(c, random_word(rng))
            assert gc_mul(c, g, gc_inv(c, g)).is_identity
            assert gc_mul(c, gc_inv(c, g), g).is_identity

    def test_associativity_random(self):
        rng = random.Random(37)
        for _ in range(60):
            c = random_signature(rng, s_max=3)
            g, h, k = (gc_eval(c, random_word(rng, max_terms=6)) for _ in range(3))
            assert gc_mul(c, gc_mul(c, g, h), k) == gc_mul(c, g, gc_mul(c, h, k))

    def test_signature_mismatch(self):
        c = GcSignature((2, -1))
        with pytest.raises(ValueError):
            gc_mul(c, gc_identity(c), GcElement((0, 0), 0))

    def test_shift_zero_elements_translate(self):
        c = GcSignature((1, 1, 1))
        g = GcElement((1, Fraction(1, 2)), 0)
        h = GcElement((2, 3), 0)
        assert gc_mul(c, g, h) == GcElement((3, Fraction(7, 2)), 0)


class TestWordEvaluation:
    def test_empty_word(self):
        c = GcSignature((2, -1))
        assert gc_eval(c, "") == gc_identity(c)

    def test_single_generator_images(self):
        c = GcSignature((1, 1, 1))
        assert gc_eval(c, "b") == GcElement((1, 0), 0)
        assert gc_eval(c, "a") == GcElement((0, 0), 1)

    def test_bs12_doubling_relation(self):
        c = GcSignature((2, -1))
        assert gc_eval(c, "a^-1 b a") == gc_eval(c, "b^2")

    def test_conjugate_lands_on_orbit_vector(self):
        rng = random.Random(41)
        for _ in range(30):
            c = random_signature(rng, s_max=4)
            i = rng.randint(-4, 4)
            word = f"a^{-i} b a^{i}"
            assert gc_eval(c, word) == GcElement(basis_orbit_vector(c, i), 0)

    def test_homomorphism_on_concatenation(self):
        # word-problem soundness: 200 random words of letter length <= 30
        rng = random.Random(43)
        for _ in range(200):
            c = random_signature(rng, s_max=3)
            u, v = random_word(rng), random_word(rng)
            assert gc_eval(c, u.concat(v)) == gc_mul(c, gc_eval(c, u), gc_eval(c, v))
            assert gc_eval(c, u.concat(u.inverse())).is_identity


class TestWordProblem:
    def test_relators_are_trivial(self):
        rng = random.Random(47)
        for _ in range(30):
            c = random_signature(rng)
            assert gc_is_identity(c, defining_relator_word(c))
            for i in range(-4, 5):
                assert gc_is_identity(c, conjugate_commutator_word(i))

    def test_single_letter_not_identity(self):
        assert not gc_is_identity(GcSignature((2, -1)), "a")
        assert not gc_is_identity(GcSignature((2, -1)), "b")

    def test_bs12_relator_word(self):
        assert gc_is_identity(GcSignature((2, -1)), "b b a^-1 b^-1 a")


def orbit_oracle(c: GcSignature, i: int) -> tuple:
    """``e_1 A^i`` from the companion matrix."""
    return mat_pow(companion_action(c), i).row(0)


class TestResidueCoreAgainstMatrixModel:
    """The polynomial residue arithmetic against the companion-matrix model."""

    def test_orbit_vectors(self):
        rng = random.Random(83)
        for _ in range(6):
            c = random_signature(rng, s_max=4)
            for i in range(-30, 31):
                assert basis_orbit_vector(c, i) == orbit_oracle(c, i)

    def test_mul_and_inv(self):
        rng = random.Random(89)
        for _ in range(60):
            c = random_signature(rng, s_max=5)
            g, h = (gc_eval(c, random_word(rng)) for _ in range(2))
            a = companion_action(c)
            moved = (Matrix([g.translation]) * mat_pow(a, h.shift)).row(0)
            expected = tuple(x + y for x, y in zip(moved, h.translation))
            assert gc_mul(c, g, h) == GcElement(expected, g.shift + h.shift)
            moved = (Matrix([g.translation]) * mat_pow(a, -g.shift)).row(0)
            assert gc_inv(c, g) == GcElement(tuple(-x for x in moved), -g.shift)

    def test_shifts_on_both_sides_of_step_limit(self):
        # |c_0|, |c_s| > 1, so x^k and x^-k both carry real denominators.
        assert STEP_LIMIT < 80
        rng = random.Random(101)
        for coeffs in [(2, -3), (3, 1, -2), (-2, 0, 5, 3), (2, 1, 0, -1, 3)]:
            c = GcSignature(coeffs)
            a = companion_action(c)
            for k in range(-80, 81):
                power = mat_pow(a, k)
                assert basis_orbit_vector(c, k) == power.row(0)
                g, w = (gc_eval(c, random_word(rng)) for _ in range(2))
                h = GcElement(w.translation, k)
                moved = (Matrix([g.translation]) * power).row(0)
                expected = tuple(x + y for x, y in zip(moved, h.translation))
                assert gc_mul(c, g, h) == GcElement(expected, g.shift + k)
                moved = (Matrix([h.translation]) * mat_pow(a, -k)).row(0)
                assert gc_inv(c, h) == GcElement(tuple(-x for x in moved), -k)

    def test_eval_against_letter_fold(self):
        rng = random.Random(97)
        for _ in range(60):
            c = random_signature(rng, s_max=5)
            word = random_word(rng, max_terms=14, max_exponent=6)
            a = companion_action(c)
            vector, shift = Matrix([(0,) * c.s]), 0
            for gen, exp in word.letters:
                if gen == "a":
                    vector, shift = vector * mat_pow(a, exp), shift + exp
                else:
                    vector += Matrix([(exp,) + (0,) * (c.s - 1)])
            assert gc_eval(c, word) == GcElement(vector.row(0), shift)

    def test_long_conjugate(self):
        for coeffs in ((2, -1), (1, 3, 0, -2, 1), (3, 1, -2)):
            c = GcSignature(coeffs)
            element = gc_eval(c, "a^-2000 b a^2000")
            assert element == GcElement(orbit_oracle(c, 2000), 0)

    def test_properness(self):
        def totient(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        cyclotomic_products = [
            (1, -1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1), (1, 0, 0, 0, 1),
            (1, 1, 1, 1, 1), (1, 0, 1, 0, 1), (-1, 0, 0, 0, 0, 0, 1),
        ]
        # repeated cyclotomic factors: (x - 1)^2, (x + 1)^2, (x - 1)^2 (x + 1),
        # Phi_3^2, Phi_4^2, Phi_1^2 Phi_4^2, Phi_6^3
        squared_factors = [
            (1, -2, 1), (1, 2, 1), (1, -1, -1, 1), (1, 2, 3, 2, 1), (1, 0, 2, 0, 1),
            (1, -2, 3, -4, 3, -2, 1), (-1, 3, -6, 7, -6, 3, -1),
        ]
        rng = random.Random(101)
        signatures = [GcSignature(c) for c in cyclotomic_products + squared_factors]
        signatures += [random_signature(rng, s_max=6, coeff_bound=2) for _ in range(12)]
        for c in signatures:
            k = math.lcm(*(d for d in range(1, 2 * c.s * c.s + 3) if totient(d) <= c.s))
            finite = mat_pow(companion_action(c), k) == Matrix.identity(c.s)
            assert gc_is_proper(c) == (not finite)
        assert not all(gc_is_proper(c) for c in signatures)
        assert any(gc_is_proper(c) for c in signatures)
        assert all(gc_is_proper(GcSignature(c)) for c in squared_factors)

    def test_wreath_eval_against_letter_fold(self):
        rng = random.Random(103)
        for _ in range(100):
            word = random_word(rng, max_terms=14, max_exponent=6)
            for modulus in (None, rng.randint(2, 7)):
                folded = WreathElement.identity(modulus)
                for gen, exp in word.letters:
                    if gen == "a":
                        letter = WreathElement((), exp, modulus)
                    else:
                        letter = WreathElement.from_support({0: exp}, 0, modulus)
                    folded = wr_mul(folded, letter)
                assert wr_eval(word, modulus) == folded


class TestProperness:
    def test_large_root_answers_promptly(self):
        c = GcSignature((1, 7) + (0,) * 10 + (1,))
        start = time.process_time()
        assert gc_is_proper(c)
        assert time.process_time() - start < 0.05

    @pytest.mark.parametrize(
        "coeffs, proper",
        [((1, 3) + (0,) * 997 + (3, 1), True), ((1, 3) + (0,) * 5997 + (3, 1), True),
         ((-1,) + (0,) * 1999 + (1,), False), ((1,) * 1001, False)],
        ids=["palindrome-1000", "palindrome-6000", "x^2000-1", "ones-1001"],
    )
    def test_high_degree_answers_promptly(self, coeffs, proper):
        start = time.process_time()
        assert gc_is_proper(GcSignature(coeffs)) == proper
        assert time.process_time() - start < 2

    def test_against_trial_division(self):
        def times(f, g):
            out = [0] * (len(f) + len(g) - 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    out[i + j] += x * y
            return out

        phis = {}
        for d in range(1, 41):
            phi = [-1] + [0] * (d - 1) + [1]
            for e in range(1, d):
                if d % e == 0:
                    phi = _divide_monic(phi, phis[e])
            phis[d] = phi
        rng = random.Random(107)
        # (coefficients, the answer, or None where only the oracle knows it)
        cases, exits = [], {"bound": 0, "distinct": 0, "repeated": 0}
        for _ in range(160):
            ds = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                ds.append(rng.choice(ds))
            f = [1]
            for d in ds:
                f = times(f, phis[d])
            proper = len(set(ds)) < len(ds)
            if rng.random() < 0.3:
                # A quadratic with a root off the unit circle: a palindromic
                # one passes both fast exits and ends at the coefficient bound.
                end = rng.choice((1, -1))
                f, proper = times(f, [1, rng.choice((-4, -3, 3, 4)), end]), True
                exits["bound"] += end == 1
            else:
                exits["repeated" if proper else "distinct"] += 1
            sign = rng.choice((1, -1))
            cases.append((tuple(sign * x for x in f), proper))
        cases += [(random_signature(rng, s_max=8, coeff_bound=3).coeffs, None) for _ in range(300)]
        assert min(exits.values()) >= 10
        for coeffs, expected in cases:
            answer = gc_is_proper(GcSignature(coeffs))
            assert answer == trial_division_is_proper(coeffs), coeffs
            assert expected is None or answer == expected, coeffs

    def test_examples(self):
        assert gc_is_proper(GcSignature((2, -1)))
        assert not gc_is_proper(GcSignature((1, 1)))
        assert not gc_is_proper(GcSignature((1, 1, 1)))
        assert gc_is_proper(GcSignature((1, 3, 1)))

    def test_negation_invariance(self):
        rng = random.Random(53)
        for _ in range(60):
            c = random_signature(rng)
            negated = GcSignature(tuple(-x for x in c.coeffs))
            assert gc_is_proper(c) == gc_is_proper(negated)

    def test_finite_order_families(self):
        # c = (1, k, 1) gives characteristic polynomial x^2 + kx + 1; the
        # action has finite order only when that is a single cyclotomic,
        # i.e. k in {-1, 0, 1}.  k = -2 and k = 2 give (x -+ 1)^2, whose
        # companion matrix is unipotent/parabolic of infinite order.
        for k in range(-6, 7):
            expected_finite = k in (-1, 0, 1)
            assert gc_is_proper(GcSignature((1, k, 1))) == (not expected_finite)


class TestAbelianization:
    def test_examples(self):
        assert gc_abelianization(GcSignature((1, -1))) == (2, ())
        assert gc_abelianization(GcSignature((2, -1))) == (1, ())
        assert gc_abelianization(GcSignature((1, 1))) == (1, (2,))

    def test_closed_form_on_randoms(self):
        rng = random.Random(59)
        for _ in range(80):
            c = random_signature(rng)
            total = sum(c.coeffs)
            free_rank, torsion = gc_abelianization(c)
            assert free_rank == (2 if total == 0 else 1)
            assert torsion == ((abs(total),) if abs(total) > 1 else ())


class TestIntervalSubgroup:
    def test_examples(self):
        report = interval_subgroup(GcSignature((2, 3)), 0, 2)
        assert (report.generators, report.relators) == (3, 2)
        assert report.free_rank == 1
        assert report.torsion_factors == ()

        short = interval_subgroup(GcSignature((1, 1, 1)), 0, 1)
        assert (short.generators, short.relators, short.free_rank) == (2, 0, 2)

        wide = interval_subgroup(GcSignature((1, 1, 1)), 0, 3)
        assert wide.free_rank == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            interval_subgroup(GcSignature((2, 3)), 1, 0)

    def test_random_reports_free_of_rank_min(self):
        rng = random.Random(61)
        for _ in range(60):
            c = random_signature(rng)
            low = rng.randint(-5, 5)
            high = low + rng.randint(0, 7)
            report = interval_subgroup(c, low, high)
            assert report.generators == high - low + 1
            assert report.relators == max(0, report.generators - c.s)
            assert report.free_rank == min(report.generators, c.s)
            assert report.torsion_factors == ()
            assert report.free_rank + report.relators == report.generators

    def test_against_band_matrix_snf(self):
        rng = random.Random(62)
        for _ in range(40):
            c = random_signature(rng)
            report = interval_subgroup(c, 0, rng.randint(c.s, c.s + 6))
            factors = snf(band_matrix(c, report.relators)).invariant_factors
            assert report.free_rank == report.generators - len(factors)
            assert report.torsion_factors == tuple(f for f in factors if f > 1)


def solve_every_window(c, vector, j_max):
    """Membership witness from solving every window system, skipping none:
    the oracle for ``base_membership``'s skip of windows by denominator."""
    target_nums, target_den = _residue(vector)
    one = _reduce(c, [1], 1)
    for j in range(j_max + 1):
        powers = list(range(-j, j + c.s))
        residues = [_times_x_power(c, one, i) for i in powers]
        den = math.lcm(target_den, *(d for _, d in residues))
        columns = Matrix(
            [[nums[row] * (den // d) for nums, d in residues] for row in range(c.s)]
        )
        solution = solve_integer_system(columns, [x * (den // target_den) for x in target_nums])
        if solution is not None:
            return tuple((power, coeff) for power, coeff in zip(powers, solution) if coeff)
    return None


class TestBaseMembership:
    def test_window_skip_matches_solving_every_window(self):
        rng = random.Random(2024)
        members = 0
        for _ in range(300):
            c = random_signature(rng, s_max=4, coeff_bound=7)
            dens = (1, 2, 3, 4, 6, 7, 9, 11)
            vector = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(c.s)]
            j_max = rng.randint(0, 5)
            expected = solve_every_window(c, vector, j_max)
            assert base_membership(c, vector, j_max).witness == expected, (c, vector, j_max)
            members += expected is not None
        assert members >= 30
        # Deep windows: denominators made of the primes of c_0 c_s (2 and 3
        # here), so that windows past STEP_LIMIT are solved and some hit.
        deep = cases = 0
        while cases < 10:
            s = rng.randint(1, 3)
            coeffs = [rng.choice((-1, 1)) * rng.randint(2, 4)] + [rng.randint(-3, 3) for _ in range(s - 1)]
            coeffs.append(rng.choice((-1, 1)) * rng.randint(2, 4))
            if math.gcd(*coeffs) != 1:
                continue
            c, cases = GcSignature(tuple(coeffs)), cases + 1
            primes = [p for p in (2, 3) if coeffs[0] * coeffs[-1] % p == 0]
            vector = [Fraction(rng.randint(-5, 5), math.prod(p ** rng.randint(0, 40) for p in primes))
                      for _ in range(s)]
            j_max = rng.randint(33, 50)
            expected = solve_every_window(c, vector, j_max)
            assert base_membership(c, vector, j_max).witness == expected, (c, vector, j_max)
            deep += expected is not None and max(abs(power) for power, _ in expected) > STEP_LIMIT
        assert deep >= 2

    def test_miss_steps_its_windows(self, monkeypatch):
        # Each window adds two powers, each one step from a neighbour: no
        # square-and-multiply, however wide the windows get.  The second
        # miss solves 36 of its windows, the others skip every window.
        shift, steps = gcgroup._times_x_power, []

        def counting(c, r, k):
            steps.append(k)
            return shift(c, r, k)

        monkeypatch.setattr(gcgroup, "_times_x_power", counting)
        for coeffs, vector in [((2, -1), [Fraction(1, 3)]), ((3, -1, 2), [Fraction(1, 6**12), Fraction(1, 6**15)]),
                               ((1, 3, -2), [Fraction(1, 5), 0]), ((3, -7, 5, 1, -6, 2, 7), [Fraction(1, 11)] * 6)]:
            c, steps[:] = GcSignature(coeffs), []
            assert not base_membership(c, vector, MEMBERSHIP_WINDOW_BUDGET).is_member
            assert len(steps) <= 2 * MEMBERSHIP_WINDOW_BUDGET + c.s + 2, coeffs
            assert max(map(abs, steps)) <= STEP_LIMIT, coeffs

    def test_miss_on_foreign_denominator_is_cheap(self):
        # Window denominators are made of the primes of c_0 c_s = 21, so no
        # window can hold a vector with denominator 11: no system is solved.
        c = GcSignature((3, -7, 5, 1, -6, 2, 7))
        start = time.process_time()
        result = base_membership(c, [Fraction(1, 11)] * c.s, MEMBERSHIP_WINDOW_BUDGET)
        assert not result.is_member
        assert time.process_time() - start < 1

    def test_zero_vector_is_member(self):
        result = base_membership(GcSignature((2, -1)), [0], 0)
        assert result.is_member
        assert result.witness == ()

    def test_half_in_bs12(self):
        result = base_membership(GcSignature((2, -1)), [Fraction(1, 2)], 2)
        assert result.is_member
        assert result.witness_dict() == {-1: 1}

    def test_witness_certificate_refuses_a_wrong_solution(self, monkeypatch):
        # 1/2 = x^-1 in G((2,-1)); a solver that answers one off in the first
        # coordinate gives a witness whose residue is not the target.
        solve = linalg.solve_integer_system

        def one_off(matrix, rhs):
            solution = solve(matrix, rhs)
            return None if solution is None else [solution[0] + 1, *solution[1:]]

        monkeypatch.setattr(linalg, "solve_integer_system", one_off)
        with pytest.raises(ArithmeticError) as caught:
            base_membership(GcSignature((2, -1)), [Fraction(1, 2)], 2)
        assert str(caught.value) == "membership witness certificate failed"

    def test_third_not_found_in_bs12(self):
        result = base_membership(GcSignature((2, -1)), [Fraction(1, 3)], 10)
        assert not result.is_member
        with pytest.raises(ValueError):
            result.witness_dict()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            base_membership(GcSignature((2, -1)), [1, 2], 1)

    def test_window_budget(self):
        c = GcSignature((2, -1))
        assert not base_membership(c, [Fraction(1, 3)], MEMBERSHIP_WINDOW_BUDGET).is_member
        with pytest.raises(ValueError, match="budget"):
            base_membership(c, [Fraction(1, 3)], MEMBERSHIP_WINDOW_BUDGET + 1)

    def test_witness_verified_independently(self):
        rng = random.Random(67)
        found = 0
        while found < 25:
            c = random_signature(rng, s_max=3, coeff_bound=5)
            # random integer combination of orbit vectors is always a member
            target = [Fraction(0)] * c.s
            for _ in range(rng.randint(1, 4)):
                power = rng.randint(-3, 3)
                coeff = rng.randint(-4, 4)
                vec = basis_orbit_vector(c, power)
                target = [x + coeff * y for x, y in zip(target, vec)]
            result = base_membership(c, target, 5)
            assert result.is_member
            # re-evaluate the witness by bare repeated matrix multiplication
            a = companion_action(c)
            recomputed = [Fraction(0)] * c.s
            for power, coeff in result.witness:
                vec = (Fraction(1),) + (Fraction(0),) * (c.s - 1)
                step = a if power >= 0 else a.inverse()
                for _ in range(abs(power)):
                    vec = tuple(
                        sum(vec[i] * step[i, j] for i in range(c.s))
                        for j in range(c.s)
                    )
                recomputed = [x + coeff * y for x, y in zip(recomputed, vec)]
            assert recomputed == target
            found += 1


class TestPowerSubgroupIndex:
    def test_trivial_power(self):
        assert power_subgroup_index(GcSignature((5, 3)), 1).index == 1

    def test_pinned_values(self):
        assert power_subgroup_index(GcSignature((2, -1)), 2).index == 1
        assert power_subgroup_index(GcSignature((2, -1)), 3).index == 3
        assert power_subgroup_index(GcSignature((1, -1)), 5).index == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            power_subgroup_index(GcSignature((2, -1)), 0)

    def test_negative_cap_rejected(self):
        for t in (1, 3):
            with pytest.raises(ValueError):
                power_subgroup_index(GcSignature((2, -1)), t, j_cap=-1)

    def test_divides_power_bound(self):
        rng = random.Random(71)
        for _ in range(30):
            c = random_signature(rng, s_max=3)
            t = rng.randint(2, 6)
            result = power_subgroup_index(c, t)
            assert result.stabilized
            assert t**c.s % result.index == 0

    def test_window_sequence_monotone(self):
        rng = random.Random(73)
        for _ in range(15):
            c = random_signature(rng, s_max=2, coeff_bound=6)
            t = rng.randint(2, 6)
            values = [
                stable_image_cardinality(c, t, j, DEFAULT_INDEX_WINDOW_CAP + 2)
                for j in range(4)
            ]
            assert all(v is not None for v in values)
            assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_closed_form_matches_window_search(self):
        rng = random.Random(74)
        for _ in range(300):
            c = random_signature(rng, s_max=3, coeff_bound=9)
            t = rng.randint(1, 12)
            searched = window_search_index(c, t)
            if searched is not None:
                assert power_subgroup_index(c, t).index == searched, f"c={c}, t={t}"

    def test_cap_does_not_change_the_answer(self):
        # the window search with cap 20 does not stabilize here; the index is 1
        c = GcSignature((1, 2, -2, 2, 0, 2, -2))
        assert window_search_index(c, 32) is None
        for cap in (0, 1, 20):
            assert power_subgroup_index(c, 32, cap).index == 1

    def test_large_t_is_not_factored(self):
        # b^(2^k) generates nothing new in G((2,-1)); the odd part counts fully
        odd = 10**30 + 57
        start = time.process_time()
        assert power_subgroup_index(GcSignature((2, -1)), 2**100 * odd).index == odd
        assert time.process_time() - start < 1


class TestTorsionFreeness:
    def test_power_probe(self):
        rng = random.Random(79)
        for _ in range(60):
            c = random_signature(rng, s_max=3)
            g = gc_identity(c)
            while g.is_identity:
                g = gc_eval(c, random_word(rng))
            power = g
            for _ in range(20):
                assert not power.is_identity
                power = gc_mul(c, power, g)

    def test_gc_pow_matches_iteration(self):
        c = GcSignature((2, -1))
        g = gc_eval(c, "a b")
        assert gc_pow(c, g, 0) == gc_identity(c)
        assert gc_pow(c, g, 3) == gc_mul(c, gc_mul(c, g, g), g)
        assert gc_pow(c, g, -2) == gc_inv(c, gc_mul(c, g, g))
        for c, word in [(c, "a^2 b^-1"), (GcSignature((3, -1, 2)), "b a^-1 b^2 a^3")]:
            g = gc_eval(c, word)
            for n in range(-6, 7):
                step, expected = g if n >= 0 else gc_inv(c, g), gc_identity(c)
                for _ in range(abs(n)):
                    expected = gc_mul(c, expected, step)
                assert gc_pow(c, g, n) == expected, (c, word, n)


class TestElementJson:
    def test_roundtrip(self):
        from solvkit.gcgroup import element_from_json, element_to_json

        c = GcSignature((2, -1))
        g = gc_eval(c, "a b a^-1 b^-1 a^3")
        obj = element_to_json(g)
        assert all(isinstance(x, str) for x in obj["translation"])
        assert isinstance(obj["shift"], str)
        assert element_from_json(obj) == g

    def test_rational_entries(self):
        from solvkit.gcgroup import element_from_json, element_to_json

        g = GcElement((Fraction(1, 2), -3), 7)
        obj = element_to_json(g)
        assert obj == {"translation": ["1/2", "-3"], "shift": "7"}
        assert element_from_json(obj) == g

    def test_coordinates_print_as_their_fractions_without_building_them(self):
        from solvkit.gcgroup import element_to_json

        rng = random.Random(2203)
        for _ in range(2000):
            den = rng.choice([1, 2, 6, 9, 2 ** rng.randint(1, 80), rng.randint(1, 10**6)])
            nums = tuple(
                rng.choice([0, 1, -1, den, -den, rng.randint(-(10**9), 10**9)])
                * rng.choice([1, 2, 3, den])
                for _ in range(rng.randint(1, 4))
            )
            element = _element((nums, rng.choice([1, -1]) * den), 0)
            printed = element_to_json(element)["translation"]
            assert "translation" not in vars(element)
            assert printed == [str(x) for x in element.translation]
            assert printed == [str(Fraction(x, element._pair[1])) for x in element._pair[0]]

    def test_digit_limit_refusal_is_that_of_the_printed_numbers(self):
        # The bit lengths of the pair refuse early only what printing refuses.
        from solvkit.gcgroup import element_to_json

        rng = random.Random(1701)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            early = 0
            for _ in range(1000):
                den = rng.choice([1, 2, 3 ** rng.randint(1, 1400), rng.getrandbits(2200) | 1,
                                  2 ** rng.randint(2, 2200) - 1])
                # numerators about 10^e over a small divisor, times 1 or den:
                # printed numerators at and past the limit, from pairs whose bit
                # lengths tell more or less about them
                nums = tuple(
                    rng.choice([1, -1, den, -den])
                    * (10 ** rng.choice([640, 640, 641, 700]) + rng.randint(-(2**20), 2**20))
                    // rng.choice([1, 3, 8, 1000])
                    for _ in range(rng.randint(1, 3))
                )
                element = _element((nums, den), 0)
                try:
                    printed = [str(x) for x in _scalars(*element._pair)]
                except ValueError:
                    printed = None
                try:
                    assert element_to_json(element)["translation"] == printed
                except ValueError as exc:
                    assert printed is None
                    if str(exc) == "a number is over the limit of 640 decimal digits":
                        early += "translation" not in vars(element)
            assert early > 100
            sys.set_int_max_str_digits(0)
            element = _element(((10**5000 + 1,), 3), 0)
            assert element_to_json(element)["translation"] == [f"{10**5000 + 1}/3"]
        finally:
            sys.set_int_max_str_digits(limit)
