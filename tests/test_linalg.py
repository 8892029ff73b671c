import itertools
import math
import random
from fractions import Fraction

import pytest

from solvkit import linalg
from solvkit.gcgroup import GcSignature, band_matrix
from solvkit.linalg import (
    MINOR_BUDGET,
    DimensionError,
    Matrix,
    SingularMatrixError,
    SNFResult,
    mat_pow,
    matrix_from_json,
    matrix_to_json,
    minor_gcds,
    scalar_from_str,
    snf,
    solve_integer_system,
)
from minor_reference import reference_minor_gcds
from snf_reference import reference_snf


def naive_det(m: Matrix):
    """Permutation-expansion determinant, independent of Matrix.det."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        product = 1
        for i in range(n):
            product *= m[i, perm[i]]
        total += (-1) ** inversions * product
    return total


class TestMatrixBasics:
    def test_construction_rejects_empty_and_ragged(self):
        with pytest.raises(DimensionError):
            Matrix([])
        with pytest.raises(DimensionError):
            Matrix([[]])
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[1.5]])

    @pytest.mark.parametrize("rows", [[[True]], [[1, True]], [[1, 2], [False, 3]]])
    def test_bools_rejected(self, rows):
        # an all-int row is taken as it is; a bool must not pass as one
        with pytest.raises(TypeError):
            Matrix(rows)

    @pytest.mark.parametrize("scalar", [True, False])
    def test_bool_scalar_rejected(self, scalar):
        # as in the constructor, a bool is no int scalar
        with pytest.raises(TypeError):
            Matrix([[2]]) * scalar
        with pytest.raises(TypeError):
            scalar * Matrix([[2]])

    def test_integral_fractions_canonicalize_to_int(self):
        m = Matrix([[Fraction(4, 2), Fraction(1, 3)]])
        assert m[0, 0] == 2 and isinstance(m[0, 0], int)
        assert m[0, 1] == Fraction(1, 3)
        assert not m.is_integer

    def test_equality_and_hash(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[Fraction(1), 2], [3, 4]])
        assert a == b
        assert hash(a) == hash(b)

    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a + b == Matrix([[1, 3], [4, 4]])
        assert a - b == Matrix([[1, 1], [2, 4]])
        assert a * b == Matrix([[2, 1], [4, 3]])
        assert 2 * a == Matrix([[2, 4], [6, 8]])
        assert a * Fraction(1, 2) == Matrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])

    def test_multiplication_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2]]) * Matrix([[1, 2]])
        for rows, inner, other, cols in [(2, 3, 2, 3), (3, 1, 2, 1), (1, 4, 5, 4)]:
            with pytest.raises(DimensionError):
                Matrix.zeros(rows, inner) * Matrix.zeros(other, cols)

    def test_product_against_triple_loop(self):
        # About half the entries are zero, so whole rows and columns of zeros
        # turn up; entries mix ints and fractions whose products may cancel
        # to integers.  Values and types (int exactly when integral) match.
        rng = random.Random(13)

        def entry():
            if rng.random() < 0.5:
                return 0
            if rng.random() < 0.5:
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

        def naive_product(a, b):
            return [
                [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                 for j in range(len(b[0]))]
                for i in range(len(a))
            ]

        shapes = [(rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)) for _ in range(260)]
        shapes += [(1, n, 1) for n in range(1, 8)] + [(n, 1, n) for n in range(1, 8)]
        shapes += [(n, n, n) for n in range(1, 8)] * 4
        for rows, inner, cols in shapes:
            a = [[entry() for _ in range(inner)] for _ in range(rows)]
            b = [[entry() for _ in range(cols)] for _ in range(inner)]
            if rng.random() < 0.2:
                a[rng.randrange(rows)] = [0] * inner
            if rng.random() < 0.2:
                j = rng.randrange(cols)
                for row in b:
                    row[j] = 0
            product = Matrix(a) * Matrix(b)
            expected = naive_product(a, b)
            assert (product.rows, product.cols) == (rows, cols)
            for i in range(rows):
                for j in range(cols):
                    value = product[i, j]
                    assert value == expected[i][j]
                    integral = expected[i][j].denominator == 1
                    assert type(value) is (int if integral else Fraction)

    def test_det_against_permutation_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert m.det() == naive_det(m)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = Matrix(
                [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            assert m.det() == naive_det(m)

    def test_det_of_mixed_rows_is_canonical(self):
        # Rows of ints and of fractions, up to 6 x 6: the value matches the
        # oracle and is an int exactly when it is integral.
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = Matrix(
                [
                    [rng.randint(-5, 5) for _ in range(n)]
                    if rng.random() < 0.3
                    else [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            value = m.det()
            assert value == naive_det(m)
            assert isinstance(value, int) == (Fraction(value).denominator == 1)
        assert type(Matrix([[Fraction(1, 2), 0], [0, 2]]).det()) is int

    def test_inverse_roundtrip_and_singular(self):
        rng = random.Random(5)
        produced = 0
        while produced < 25:
            n = rng.randint(1, 4)
            m = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
                continue
            assert m * m.inverse() == Matrix.identity(n)
            assert m.inverse() * m == Matrix.identity(n)
            produced += 1

    @staticmethod
    def rational_matrix(rng, n):
        # about a third of the rows are all int, the rest have denominators
        return Matrix(
            [
                [rng.randint(-5, 5) for _ in range(n)]
                if rng.random() < 0.3
                else [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
        )

    def test_rational_inverse_and_negative_powers(self):
        rng = random.Random(24)
        produced = 0
        while produced < 40:
            n = rng.randint(1, 8)
            m = self.rational_matrix(rng, n)
            if m.det() == 0:
                continue
            inverse, one = m.inverse(), Matrix.identity(n)
            assert m * inverse == one and inverse * m == one
            k = rng.randint(1, 3)
            assert mat_pow(m, -k) * mat_pow(m, k) == one
            produced += 1

    def test_rational_singular_inputs_raise(self):
        rng = random.Random(25)
        for _ in range(30):
            n = rng.randint(1, 8)
            rows = [list(row) for row in self.rational_matrix(rng, n).rows_as_tuples()]
            # the last row is a rational combination of the others (zero when n == 1)
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - 1)]
            rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
            rng.shuffle(rows)
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                Matrix(rows).inverse()

    def test_inverse_certificate_rejects_a_wrong_elimination(self, monkeypatch):
        original = linalg._det_bareiss

        def perturbed(rows):
            p = original(rows)
            rows[-1][-1] += 1  # one entry of the right block
            return p

        monkeypatch.setattr(linalg, "_det_bareiss", perturbed)
        for m in (Matrix([[2, 1], [1, 1]]), Matrix([[Fraction(1, 2), 3], [4, Fraction(-2, 3)]])):
            with pytest.raises(ArithmeticError, match="inverse certificate"):
                m.inverse()


class TestSNF:
    def test_banded_example(self):
        result = snf(Matrix([[2, 3, 0], [0, 2, 3]]))
        assert result.smith == Matrix([[1, 0, 0], [0, 1, 0]])

    def test_zero_matrix(self):
        result = snf(Matrix([[0, 0], [0, 0]]))
        assert result.smith == Matrix.zeros(2, 2)
        assert result.invariant_factors == ()

    def test_diagonal_example(self):
        assert snf(Matrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)

    def test_rejects_rational_matrix(self):
        with pytest.raises(ValueError):
            snf(Matrix([[Fraction(1, 2)]]))

    def test_entry_growth_regression(self):
        # This 9x3 matrix once blew up a single-pivot-selection reduction.
        rows = [
            [0, 5125, -5000],
            [9000, -3000, -1875],
            [3375, 7875, -5625],
            [10125, 0, 0],
            [0, 10125, 0],
            [0, 0, 10125],
            [-18225, 6075, 14175],
            [-25515, -9720, 25920],
            [-46656, -9963, 26568],
        ]
        result = snf(Matrix(rows))
        assert result.invariant_factors == (1, 1125, 10125)

    @pytest.mark.parametrize("wrong_call", [0, 1])
    @pytest.mark.parametrize("entry", [(0, 0), (-1, -1)])
    def test_certificate_rejects_a_wrong_product(self, monkeypatch, wrong_call, entry):
        # One entry off by one in either product of L (M R) must be caught:
        # off in M R it shifts the result by a column of the unimodular L,
        # which is never zero.  The certificate runs on row lists through
        # the product helper that Matrix.__mul__ also uses.
        multiply = linalg._product
        calls = []

        def off_by_one(left, right, cols):
            product = multiply(left, right, cols)
            calls.append(None)
            if len(calls) - 1 != wrong_call:
                return product
            rows = [list(row) for row in product]
            i, j = entry
            rows[i][j] += 1
            return rows

        monkeypatch.setattr(linalg, "_product", off_by_one)
        with pytest.raises(ArithmeticError, match="certificate"):
            snf(Matrix([[2, 3, 0], [0, 2, 3]]))
        assert len(calls) > wrong_call

    def test_random_matrices_full_contract(self):
        # transforms, unimodularity, divisibility chain, and the minor-gcd
        # oracle, on a few hundred random matrices
        rng = random.Random(2024)
        for _ in range(220):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = Matrix(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            result = snf(m)
            assert result.left * m * result.right == result.smith
            assert abs(result.left.det()) == 1
            assert abs(result.right.det()) == 1
            factors = result.invariant_factors
            assert all(f > 0 for f in factors)
            assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
            for i in range(min(rows, cols)):
                for j in range(cols):
                    if i != j and i < result.smith.rows:
                        assert result.smith[i, j] == 0 or i == j
            gammas = (1,) + minor_gcds(m)
            assert all(
                factors[i] * gammas[i] == gammas[i + 1] for i in range(len(factors))
            )


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A product of random elementary integer row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return rows


def assert_same_as_reference(m: Matrix):
    got, want = snf(m), reference_snf(m)
    assert got.smith == want.smith
    assert got.left == want.left
    assert got.right == want.right
    assert got.invariant_factors == want.invariant_factors


class TestSNFAgainstReference:
    # snf must pick the reference's pivots and apply its steps in its order,
    # so the transforms, not only the Smith form, must match exactly.

    def test_random_matrices(self):
        rng = random.Random(1010)
        for trial in range(1200):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            zeros = rng.random() * 0.9
            # a tenth are scaled, so pivots above 1 and offender folds occur
            scale = rng.choice((2, 3, 6)) if trial % 10 == 0 else 1
            m = Matrix(
                [
                    [0 if rng.random() < zeros else scale * rng.randint(-20, 20) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            assert_same_as_reference(m)

    @pytest.mark.parametrize("c", [(2, -1), (3, -7, 5, 2), (1, 3, 0, -2, 1), (2, 1, -3), (5, -3, 4, -2, 5)])
    @pytest.mark.parametrize("m", [20, 60, 1, 3, 6])  # 1 to 6 are the sizes of ``verify all``
    def test_bands(self, c, m):
        assert_same_as_reference(band_matrix(GcSignature(c), m))

    @pytest.mark.parametrize("n", [10, 20])
    def test_dense_with_known_smith_form(self, n):
        rng = random.Random(n)
        diag = [1, 1, 2, 2, 6] + [12] * (n - 7) + [0, 0]
        middle = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        u, v = Matrix(random_unimodular(rng, n)), Matrix(random_unimodular(rng, n))
        m = u * Matrix(middle) * v
        assert snf(m).invariant_factors == tuple(diag[:-2])
        assert_same_as_reference(m)

    def test_offender_fold_with_pivot_above_one(self):
        # pivot 2 at k = 1 leaves 3 undivided, so row 2 is folded in
        m = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        assert snf(m).invariant_factors == (1, 1, 6)
        assert_same_as_reference(m)


class TestMinorGcds:
    def test_identity(self):
        assert minor_gcds(Matrix.identity(2)) == (1, 1)

    def test_diagonal(self):
        assert minor_gcds(Matrix([[2, 0], [0, 3]])) == (1, 6)

    def test_banded_window_minors(self):
        # gamma_2 of the 2x6-coefficient band: extreme 2x2 windows are
        # squares of the end coefficients, middle window contributes 6
        m = Matrix([[2, 3, 0], [0, 2, 3]])
        assert m.submatrix((0, 1), (0, 1)).det() == 4
        assert m.submatrix((0, 1), (1, 2)).det() == 9
        assert m.submatrix((0, 1), (0, 2)).det() == 6
        assert minor_gcds(m)[1] == 1

    def test_rejects_rational(self):
        with pytest.raises(ValueError):
            minor_gcds(Matrix([[Fraction(1, 2)]]))

    def test_against_submatrix_determinants(self):
        rng = random.Random(29)
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            m = Matrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
            expected = []
            for size in range(1, min(rows, cols) + 1):
                g = 0
                for row_sel in itertools.combinations(range(rows), size):
                    for col_sel in itertools.combinations(range(cols), size):
                        g = math.gcd(g, m.submatrix(row_sel, col_sel).det())
                expected.append(g)
            assert minor_gcds(m) == tuple(expected)

    def test_against_reference(self):
        # the Laplace expansion against one Bareiss determinant per minor,
        # with zero rows and columns, single rows and columns, and 7-digit
        # entries
        rng = random.Random(4099)
        for trial in range(1200):
            shape = trial % 4
            if shape == 0:
                rows, cols = 1, rng.randint(1, 6)
            elif shape == 1:
                rows, cols = rng.randint(1, 6), 1
            else:
                rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            bound = 10**7 - 1 if trial % 5 == 0 else 9
            zeros = rng.random() * 0.6
            entries = [
                [0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(cols)]
                for _ in range(rows)
            ]
            if trial % 7 == 0:
                entries[rng.randrange(rows)] = [0] * cols
            if trial % 11 == 0:
                j = rng.randrange(cols)
                for row in entries:
                    row[j] = 0
            m = Matrix(entries)
            assert minor_gcds(m) == reference_minor_gcds(m), m

    def test_at_the_budget_edge(self):
        # 9 x 10 has C(19, 9) - 1 = 92,377 minors, the largest shape under
        # the budget; the k-th gcd is sigma_1 ... sigma_k (Smith, 1861)
        rng = random.Random(910)
        diag = [1, 1, 2, 2, 6, 6, 12, 0, 0]
        middle = Matrix([[diag[i] if i == j else 0 for j in range(10)] for i in range(9)])
        m = Matrix(random_unimodular(rng, 9)) * middle * Matrix(random_unimodular(rng, 10))
        assert minor_gcds(m) == (1, 1, 2, 4, 24, 144, 1728, 0, 0)

    def test_budget(self):
        # sum_k C(r, k) C(c, k) = C(r + c, r) - 1 minors in all
        assert 461 <= MINOR_BUDGET < 184755
        assert minor_gcds(Matrix.identity(5)) == (1,) * 5
        assert minor_gcds(Matrix([[1] * 6] * 5))[1] == 0
        with pytest.raises(ValueError, match="budget"):
            minor_gcds(Matrix.zeros(10, 10))


class TestSolveIntegerSystem:
    def test_identity_system(self):
        assert solve_integer_system(Matrix.identity(2), [5, -1]) == [5, -1]

    def test_parity_obstruction(self):
        assert solve_integer_system(Matrix([[2]]), [3]) is None

    def test_bezout(self):
        x = solve_integer_system(Matrix([[2, 3]]), [1])
        assert x is not None
        assert 2 * x[0] + 3 * x[1] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_integer_system(Matrix([[1, 2]]), [1, 2])

    @pytest.mark.parametrize("rhs, kind", [([1, True], "bool"), ([1.0, 2], "float"),
                                           ([Fraction(1), 2], "Fraction")])
    def test_right_hand_side_entries_are_integers_not_bools(self, rhs, kind):
        with pytest.raises(TypeError) as caught:
            solve_integer_system(Matrix.identity(2), rhs)
        assert str(caught.value) == f"right-hand side entry must be an integer, got {kind}"

    def test_substitution_certificate_refuses_a_wrong_transform(self, monkeypatch):
        # The solution of 2x + 3y = 1 is right times a nonzero y; one entry
        # off in right gives a vector that the substitution check refuses.
        original = linalg.snf

        def perturbed(matrix):
            result = original(matrix)
            rows = [list(row) for row in result.right.rows_as_tuples()]
            rows[0][0] += 1
            return SNFResult(result.smith, result.left, Matrix(rows), result.invariant_factors)

        monkeypatch.setattr(linalg, "snf", perturbed)
        with pytest.raises(ArithmeticError) as caught:
            solve_integer_system(Matrix([[2, 3]]), [1])
        assert str(caught.value) == "integer solution substitution certificate failed"

    def test_unsolvable_has_snf_certificate(self):
        rng = random.Random(99)
        checked_unsolvable = 0
        while checked_unsolvable < 40:
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = Matrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            b = [rng.randint(-9, 9) for _ in range(rows)]
            x = solve_integer_system(a, b)
            if x is not None:
                assert [sum(a[i, j] * x[j] for j in range(cols)) for i in range(rows)] == b
                continue
            result = snf(a)
            transformed = [
                sum(result.left[i, j] * b[j] for j in range(rows)) for i in range(rows)
            ]
            rank = len(result.invariant_factors)
            certificate = any(
                transformed[i] % result.invariant_factors[i] != 0 for i in range(rank)
            ) or any(transformed[i] != 0 for i in range(rank, rows))
            assert certificate
            checked_unsolvable += 1


class TestMatPow:
    def test_scalar_power(self):
        assert mat_pow(Matrix([[2]]), 3) == Matrix([[8]])

    def test_scalar_inverse(self):
        assert mat_pow(Matrix([[2]]), -1) == Matrix([[Fraction(1, 2)]])

    def test_order_three_rotation(self):
        a = Matrix([[0, 1], [-1, -1]])
        assert mat_pow(a, 3) == Matrix.identity(2)
        assert a * a * a == Matrix.identity(2)

    def test_zero_power_is_identity(self):
        assert mat_pow(Matrix([[7, 1], [0, 2]]), 0) == Matrix.identity(2)

    def test_matches_iteration(self):
        a = Matrix([[2, 1, 0], [Fraction(1, 3), 1, -1], [0, 4, 1]])
        for n in range(-6, 7):
            step, expected = a if n >= 0 else a.inverse(), Matrix.identity(3)
            for _ in range(abs(n)):
                expected = expected * step
            assert mat_pow(a, n) == expected, n

    def test_negative_power_of_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_pow(Matrix([[1, 1], [1, 1]]), -2)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            mat_pow(Matrix([[1, 2]]), 2)

    def test_negative_powers_invert_positive(self):
        a = Matrix([[2, 1], [1, 1]])
        assert mat_pow(a, -3) * mat_pow(a, 3) == Matrix.identity(2)


class TestJson:
    def test_roundtrip_integers(self):
        m = Matrix([[2, 3, 0], [0, 2, 3]])
        obj = matrix_to_json(m)
        assert obj == {
            "rows": 2,
            "cols": 3,
            "entries": [["2", "3", "0"], ["0", "2", "3"]],
        }
        assert matrix_from_json(obj) == m

    def test_roundtrip_rationals_and_bigints(self):
        m = Matrix([[Fraction(-1, 2), 10**30], [7, Fraction(22, 7)]])
        obj = matrix_to_json(m)
        assert obj["entries"][0] == ["-1/2", str(10**30)]
        assert matrix_from_json(obj) == m

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": [["1", "2"]]})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"entries": [["1"]]})

    def test_non_string_entry_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[True, "1"]]})

    def test_rows_must_be_lists(self):
        # a string is never read as a row of digits, nor a list of them
        message = "matrix JSON needs 'rows', 'cols' and 'entries' of decimal strings"
        for obj in [
            {"rows": 1, "cols": 2, "entries": ["12"]},
            {"rows": 2, "cols": 1, "entries": "12"},
            {"rows": 1, "cols": 1, "entries": [("1",)]},
            {"rows": 2, "cols": 1, "entries": [["1"], "2"]},
            {"rows": 1, "cols": 1, "entries": {"0": ["1"]}},
            {"rows": 0, "cols": 0, "entries": None},
        ]:
            with pytest.raises(ValueError) as caught:
                matrix_from_json(obj)
            assert str(caught.value) == message, obj

    def test_shape_must_be_integers(self):
        message = "matrix JSON needs 'rows', 'cols' and 'entries' of decimal strings"
        for rows, cols in [(True, 1), (1, True), (1.0, 1), (1, "1"), (None, 1)]:
            with pytest.raises(ValueError) as caught:
                matrix_from_json({"rows": rows, "cols": cols, "entries": [["5"]]})
            assert str(caught.value) == message, (rows, cols)
        assert matrix_from_json({"rows": 1, "cols": 1, "entries": [["5"]]}) == Matrix([[5]])

    def test_scalar_from_str(self):
        assert scalar_from_str("-7") == -7
        assert scalar_from_str("3/6") == Fraction(1, 2)
        with pytest.raises(TypeError):
            scalar_from_str(1.5)
        with pytest.raises(ValueError):
            scalar_from_str("1/0")
        assert scalar_from_str("-.5") == Fraction(-1, 2) and scalar_from_str("1e5") == 10**5
        assert scalar_from_str(" 1E-4_300 ") == Fraction(1, 10**4300)
        for text in ["1e4301", "-2.5E-4301", "0e99999"]:
            with pytest.raises(ValueError, match="over the limit of 4300 decimal digits"):
                scalar_from_str(text)
