"""Exact dense linear algebra over the integers and rationals.

Scalars are plain Python ``int`` and ``fractions.Fraction``, so every
operation is arbitrary precision and nothing ever rounds.  The module
provides an immutable dense matrix type, Smith normal form with unimodular
transform matrices, gcds of k x k minors (brute force, oracle grade),
integer linear system solving and exact matrix powers.  It re-exports
Minkowski's bound on the orders of the finite subgroups of GL_n(Z), a
closed form in :mod:`solvkit.forms`.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from ._value import _int_only, _power, _Value
from .forms import MINKOWSKI_N_BUDGET, minkowski_bound  # noqa: F401  (re-exported)


class DimensionError(ValueError):
    """A matrix or vector has the wrong shape for the requested operation."""


class SingularMatrixError(ValueError):
    """Exact inversion was requested for a matrix with determinant zero."""


Scalar = int | Fraction


def exact_scalar(value) -> Scalar:
    """Canonical exact scalar: int when integral, else Fraction in lowest
    terms.  Floats are rejected, never silently converted."""
    if isinstance(value, bool):
        raise TypeError("exact scalars must be int or Fraction, not bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact scalars must be int or Fraction, got {type(value).__name__}")


def scalar_from_str(text) -> Scalar:
    """Parse ``"5"``, ``"-3"``, ``"p/q"`` or ``"1e-5"`` back into an exact scalar."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str):
        raise TypeError(f"expected a decimal string, got {type(text).__name__}")
    # Fraction builds 10**exponent, so a power over the digit limit is refused first.
    exponent = re.fullmatch(r"\s*[-+]?[\d_.]*e([-+]?\d+(_\d+)*)\s*", text, re.I)
    if exponent and abs(int(exponent[1])) > (limit := sys.get_int_max_str_digits()) > 0:
        raise ValueError(f"a number is over the limit of {limit} decimal digits")
    try:
        return exact_scalar(Fraction(text))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


class Matrix:
    """An immutable dense matrix of exact scalars.

    Entries are ``int`` or ``Fraction``; a matrix whose entries are all
    ``int`` is an *integer* matrix and is accepted by :func:`snf`,
    :func:`minor_gcds` and :func:`solve_integer_system`.  Instances are
    hashable and safe to share between threads.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Iterable[Iterable]):
        # an all-int row is canonical as it is; bool is not int here
        data = tuple(
            row if set(map(type, row)) <= {int} else tuple(map(exact_scalar, row))
            for row in map(tuple, entries)
        )
        if not data or not data[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("rows have inconsistent lengths")
        self.rows = len(data)
        self.cols = width
        self._data = data

    @classmethod
    def _of_int_rows(cls, rows: list[list[int]]) -> "Matrix":
        """The matrix of ``rows``, nonempty lists of ``int`` of one length,
        taken without the checks of the constructor."""
        matrix = object.__new__(cls)
        matrix._data = tuple(map(tuple, rows))
        matrix.rows, matrix.cols = len(rows), len(rows[0])
        return matrix

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, index: tuple[int, int]) -> Scalar:
        i, j = index
        return self._data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self._data)

    def rows_as_tuples(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._data

    @property
    def is_integer(self) -> bool:
        return all(set(map(type, row)) <= {int} for row in self._data)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __reduce__(self):
        # pickle protocols 0 and 1 cannot save __slots__, so copies are rebuilt
        return self.__class__, (self._data,)

    def __repr__(self) -> str:
        body = ", ".join(repr(list(row)) for row in self._data)
        return f"Matrix([{body}])"

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._data])

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix addition needs equal shapes")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return Matrix(_product(self._data, other._data, other.cols))
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Matrix([[x * other for x in row] for row in self._data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self._data)))

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "Matrix":
        return Matrix(
            [[self._data[i][j] for j in col_indices] for i in row_indices]
        )

    def _scaled_rows(self) -> tuple[list[list[int]], list[int]]:
        """``N = D M``: fresh lists of the rows, each times the lcm ``d`` of
        its denominators, and the list of the ``d``."""
        scales = [math.lcm(*(x.denominator for x in row)) for row in self._data]
        return [[int(x * d) for x in row] for row, d in zip(self._data, scales)], scales

    def det(self) -> Scalar:
        """Exact determinant: Bareiss elimination on the rows scaled to
        integers, divided by the product of the row scales."""
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        rows, scales = self._scaled_rows()
        return exact_scalar(Fraction(_det_bareiss(rows), math.prod(scales)))

    def inverse(self) -> "Matrix":
        """Exact inverse.  Bareiss elimination of ``[N | I]``, with ``N = D M``
        the rows scaled to integers, leaves ``X = p N^-1`` on the right, p =
        det N.  Every call checks the certificate ``N X == p I`` and raises
        ``ArithmeticError`` when it fails; ``M^-1 = X D / p``."""
        if not self.is_square:
            raise DimensionError("inverse needs a square matrix")
        n = self.rows
        rows, scales = self._scaled_rows()
        work = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        p = _det_bareiss(work)
        if p == 0:
            raise SingularMatrixError("matrix is singular")
        x = [row[n:] for row in work]
        if _product(rows, x, n) != [[p if i == j else 0 for j in range(n)] for i in range(n)]:
            raise ArithmeticError("inverse certificate N*X == p*I failed")
        return Matrix([[Fraction(v * d, p) for v, d in zip(row, scales)] for row in x])


def _product(left, right, cols: int) -> list[list]:
    """The product of two matrices given as row sequences, ``right`` with
    ``cols`` columns.  Each output row is a sum of rows of ``right``,
    skipping zeros on both sides: a banded or zero-padded factor costs only
    its nonzero entries."""
    terms = [[(j, b) for j, b in enumerate(row) if b] for row in right]
    out = []
    for row in left:
        acc = [0] * cols
        for a, nonzeros in zip(row, terms):
            if a:
                for j, b in nonzeros:
                    acc[j] += a * b
        out.append(acc)
    return out


def _det_bareiss(a: list[list[int]]) -> int:
    """Fraction-free elimination (Bareiss 1968) of the n rows ``a`` of ints,
    in place, with exact divisions; returns the determinant p of the first
    n columns.  A square ``a`` is cleared below each pivot.  Wider rows
    ``[N | B]`` are cleared above each pivot too (Gauss-Jordan), so when
    p != 0 their last columns end as ``p N^-1 B``.  A row swap negates the
    row it moves up, so p is the last pivot."""
    n, width = len(a), len(a[0])
    prev = 1
    for k in range(n if width > n else n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = [-x for x in a[i]], a[k]
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n) if width == n else [*range(k), *range(k + 1, n)]:
            row = a[i]
            f = row[k]  # column k is not read again, so it is left as it is
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return a[n - 1][n - 1]


def matrix_times_column(matrix: Matrix, vector: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(vector) != matrix.cols:
        raise DimensionError("vector length must equal matrix column count")
    return tuple(sum(map(operator.mul, row, vector)) for row in matrix.rows_as_tuples())


class SNFResult(_Value):
    """Smith normal form ``left * original * right = smith``.

    ``left`` and ``right`` are unimodular, ``smith`` is zero off the
    diagonal, and the diagonal is ``invariant_factors`` (nonnegative, each
    dividing the next) padded with zeros.
    """

    def __init__(self, smith: Matrix, left: Matrix, right: Matrix,
                 invariant_factors: tuple[int, ...]):
        self._set(smith, left, right, invariant_factors)


def snf(matrix: Matrix) -> SNFResult:
    """Smith normal form of an integer matrix, with transforms.

    The reduction repeatedly moves the entry of smallest nonzero absolute
    value into pivot position and clears its row and column by exact
    division steps; whenever some remaining entry is not divisible by the
    pivot, the offending row is folded in and the reduction restarted, so
    the divisibility chain holds by construction.

    Each sweep reads all column quotients off the pivot row ``top`` first
    (column k and the rest of row k stay put meanwhile) and gives each row
    from k down (those above are zero in column k) its column steps in one
    pass; the pivot is the first least of the per-row minima; row and
    column k are tested on slices; a pivot of 1 skips the offender scan.
    These are the pivots and steps of an entry-at-a-time sweep, in its
    order, so the output is the same.

    All steps act on one work array that starts as ``[[M, I], [I, 0]]``.
    Row steps touch only the top ``rows`` rows and column steps only the
    left ``cols`` columns, so the array ends as ``[[S, L], [R, 0]]`` with
    ``L M R = S``, and the transforms are read off it.

    Every call checks the certificate ``L (M R) == S`` exactly, on the row
    lists and with the product of ``Matrix``, and raises
    ``ArithmeticError`` when it fails.  The checked rows become the
    result's matrices as they are.  It is evaluated in that order
    because ``M R = L^-1 S`` has entries about as large as R's and, on
    banded inputs, few nonzeros, so the zero-skipping product multiplies
    each large entry of ``L`` only a few times, where ``(L M) R`` would
    multiply each large entry of ``L M`` by a whole row of R.
    """
    if not matrix.is_integer:
        raise ValueError("snf is defined for integer matrices only")
    rows, cols = matrix.rows, matrix.cols
    n = rows + cols
    unit = [0] * n + [1] + [0] * n  # unit[n - i :][:m] is row i of the m x m identity
    w = [list(row) + unit[n - i : n - i + rows] for i, row in enumerate(matrix.rows_as_tuples())]
    w += [unit[n - i : 2 * n - i] for i in range(cols)]

    def select_pivot(k):
        # smallest |entry|, the first in row-major order on ties; it is
        # moved to (k, k), made positive, and its row is returned
        best, bi = math.inf, None
        for i in range(k, rows):
            low = min(map(abs, filter(None, w[i][k:cols])), default=math.inf)
            if low < best:
                best, bi = low, i
                if low == 1:
                    break
        if bi is None:
            return None
        w[k], w[bi] = w[bi], w[k]
        top, j = w[k], k + list(map(abs, w[k][k:cols])).index(best)
        if j != k:
            for row in w:
                row[k], row[j] = row[j], row[k]
        if top[k] < 0:
            top = w[k] = [-x for x in top]
        return top

    for k in range(min(rows, cols)):
        if (top := select_pivot(k)) is None:
            break
        while True:
            # One reduction sweep: quotient steps against the current pivot
            # leave remainders in place; they are strictly smaller than the
            # pivot, so re-selecting keeps the pivot shrinking and the
            # entries tame.
            pivot = top[k]
            for i in range(k + 1, rows):
                row = w[i]
                if row[k] and (q := row[k] // pivot):
                    w[i] = [x - q * y for x, y in zip(row, top)]
            # column j gets -q_j times column k, all in one pass per row
            steps = [(j, q) for j, x in enumerate(top[k + 1 : cols], k + 1) if (q := -(x // pivot))]
            for row in w[k:] if steps else ():  # rows above k are zero in column k
                x = row[k]
                if x:
                    for j, q in steps:
                        row[j] += q * x
            if any(top[k + 1 : cols]) or any(map(operator.itemgetter(k), w[k + 1 : rows])):
                top = select_pivot(k)
                continue
            if pivot == 1:
                break  # 1 divides every entry: there is no offender to find
            offender = next((row for row in w[k + 1 : rows]
                             if any(x % pivot for x in row[k + 1 : cols])), None)
            if offender is None:
                break
            top = w[k] = [x + y for x, y in zip(top, offender)]

    factors = tuple(itertools.takewhile(bool, [w[i][i] for i in range(min(rows, cols))]))
    smith = [row[:cols] for row in w[:rows]]
    left = [row[cols:] for row in w[:rows]]
    right = [row[:cols] for row in w[rows:]]
    if _product(left, _product(matrix.rows_as_tuples(), right, cols), cols) != smith:
        raise ArithmeticError("SNF certificate L*M*R == S failed")
    smith, left, right = map(Matrix._of_int_rows, (smith, left, right))
    return SNFResult(smith=smith, left=left, right=right, invariant_factors=factors)


MINOR_BUDGET = 10**5


def minor_gcds(matrix: Matrix) -> tuple[int, ...]:
    """gcds of all i x i minors, for i = 1 .. min(rows, cols).

    Enumerates every minor, so the cost is exponential in the smaller
    dimension; this is an oracle for testing, not a production path.  Each
    k x k minor is the Laplace expansion of its last row against the
    (k-1) x (k-1) minors of its other rows, kept from the size before:
    about ``k`` products per minor, one list of ints per row selection
    that a larger minor still extends.  Entry i is zero exactly when all
    (i+1) x (i+1) minors vanish.  A matrix with more than ``MINOR_BUDGET``
    minors in all, ``sum_k C(rows, k) C(cols, k) = C(rows + cols, rows) - 1``,
    is refused with ``ValueError``.
    """
    if not matrix.is_integer:
        raise ValueError("minor_gcds is defined for integer matrices only")
    count = math.comb(matrix.rows + matrix.cols, matrix.rows) - 1
    if count > MINOR_BUDGET:
        raise ValueError(
            f"a {matrix.rows}x{matrix.cols} matrix has {count} minors, "
            f"over the budget of {MINOR_BUDGET}"
        )
    data, last_row = matrix.rows_as_tuples(), matrix.rows - 1
    top, out = min(matrix.rows, matrix.cols), []
    # kept[rows] lists the minors on the row selection ``rows`` (sorted), one
    # per column selection in the order of ``itertools.combinations``
    kept, index = {(): [1]}, {(): 0}
    for size in range(1, top + 1):
        selections = list(itertools.combinations(range(matrix.cols), size))
        # expanding along the last row, column t of the minor has the sign
        # (-1)^(size - 1 + t) and the smaller minor on the selection without it
        plans = [
            [
                (j, index[sel[:t] + sel[t + 1 :]], (size - 1 + t) % 2)
                for t, j in enumerate(sel)
            ]
            for sel in selections
        ]
        g, extended = 0, {}
        for rows in itertools.combinations(range(matrix.rows), size):
            row, smaller, minors = data[rows[-1]], kept[rows[:-1]], []
            for plan in plans:
                det = 0
                for j, sub, odd in plan:
                    a = row[j]
                    if a:
                        if odd:
                            det -= a * smaller[sub]
                        else:
                            det += a * smaller[sub]
                minors.append(det)
                g = math.gcd(g, det)
            if rows[-1] < last_row and size < top:
                extended[rows] = minors
        kept, index = extended, {sel: i for i, sel in enumerate(selections)}
        out.append(g)
    return tuple(out)


def solve_integer_system(matrix: Matrix, rhs: Sequence[int]) -> list[int] | None:
    """Solve ``matrix @ x = rhs`` over the integers via Smith normal form.

    Returns one integer solution (free coordinates set to zero) or ``None``
    when no integer solution exists: in that case some invariant factor
    fails to divide the transformed right-hand side, or a zero row meets a
    nonzero target.  Any returned solution is re-verified by substitution.
    """
    if len(rhs) != matrix.rows:
        raise DimensionError("right-hand side length must equal the row count")
    for x in rhs:
        _int_only(x, "right-hand side entry")
    result = snf(matrix)
    transformed = matrix_times_column(result.left, list(rhs))
    factors = result.invariant_factors
    rank = len(factors)
    y = [0] * matrix.cols
    for i in range(matrix.rows):
        if i < rank:
            quotient, remainder = divmod(transformed[i], factors[i])
            if remainder:
                return None
            y[i] = quotient
        elif transformed[i] != 0:
            return None
    x = list(matrix_times_column(result.right, y))
    if list(matrix_times_column(matrix, x)) != list(rhs):
        raise ArithmeticError("integer solution substitution certificate failed")
    return x


def mat_pow(matrix: Matrix, exponent: int) -> Matrix:
    """Exact n-th power of a square matrix; negative n inverts first."""
    if not matrix.is_square:
        raise DimensionError("matrix power needs a square matrix")
    return _power(operator.mul, Matrix.identity(matrix.rows), matrix, exponent, Matrix.inverse)


def matrix_to_json(matrix: Matrix) -> dict:
    """Matrix as a JSON-ready dict with entries as decimal strings."""
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[str(x) for x in row] for row in matrix.rows_as_tuples()],
    }


def matrix_from_json(obj: dict) -> Matrix:
    """Inverse of :func:`matrix_to_json`; validates the declared shape.
    ``rows`` and ``cols`` must be JSON integers and ``entries`` a list of
    JSON arrays, so a string is never read as a row of digits."""
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        shape = (type(rows), type(cols), type(entries))
        if shape != (int, int, list) or any(type(row) is not list for row in entries):
            raise TypeError("malformed matrix JSON")
        matrix = Matrix([[scalar_from_str(x) for x in row] for row in entries])
    except (TypeError, KeyError) as exc:
        raise ValueError(
            "matrix JSON needs 'rows', 'cols' and 'entries' of decimal strings"
        ) from exc
    if (matrix.rows, matrix.cols) != (rows, cols):
        raise ValueError(
            f"declared shape {rows}x{cols} does not match entries "
            f"{matrix.rows}x{matrix.cols}"
        )
    return matrix
