"""The Smith normal form elimination as it stood before its loop body was
reworked, kept as a test oracle for ``solvkit.linalg.snf``.

It scans every remaining entry for the pivot, applies each column step as
its own pass over the work rows, and looks for offenders whatever the
pivot.  ``snf`` must pick the same pivots and apply the same steps, so its
``smith``, ``left``, ``right`` and ``invariant_factors`` must equal these
exactly.
"""

from __future__ import annotations

import itertools

from solvkit.linalg import Matrix, SNFResult


def reference_snf(matrix: Matrix) -> SNFResult:
    """Smith normal form of an integer matrix, with transforms.

    The reduction repeatedly moves the entry of smallest nonzero absolute
    value into pivot position and clears its row and column by exact
    division steps; whenever some remaining entry is not divisible by the
    pivot, the offending row is folded in and the reduction restarted, so
    the divisibility chain holds by construction.

    All steps act on one work array that starts as ``[[M, I], [I, 0]]``.
    Row steps touch only the top ``rows`` rows and column steps only the
    left ``cols`` columns, so the array ends as ``[[S, L], [R, 0]]`` with
    ``L M R = S``, and the transforms are read off it.

    Every call checks the certificate ``L (M R) == S`` exactly and raises
    ``ArithmeticError`` when it fails.  It is evaluated in that order
    because ``M R = L^-1 S`` has entries about as large as R's and, on
    banded inputs, few nonzeros, so the zero-skipping product multiplies
    each large entry of ``L`` only a few times, where ``(L M) R`` would
    multiply each large entry of ``L M`` by a whole row of R.
    """
    if not matrix.is_integer:
        raise ValueError("snf is defined for integer matrices only")
    rows, cols = matrix.rows, matrix.cols
    w = [
        list(row) + [int(i == j) for j in range(rows)]
        for i, row in enumerate(matrix.rows_as_tuples())
    ]
    w += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    def add_row_multiple(dst, src, q):
        # row_dst += q * row_src
        w[dst] = [x + q * y for x, y in zip(w[dst], w[src])]

    def add_col_multiple(dst, src, q):
        for row in w:
            row[dst] += q * row[src]

    def select_pivot(k) -> bool:
        # smallest |entry|, the first in row-major order on ties
        best = min(
            (
                (abs(w[i][j]), i, j)
                for i in range(k, rows)
                for j in range(k, cols)
                if w[i][j]
            ),
            default=None,
        )
        if best is None:
            return False
        _, i, j = best
        w[k], w[i] = w[i], w[k]
        if j != k:
            for row in w:
                row[k], row[j] = row[j], row[k]
        if w[k][k] < 0:
            w[k] = [-x for x in w[k]]
        return True

    for k in range(min(rows, cols)):
        if not select_pivot(k):
            break
        while True:
            # One reduction sweep: quotient steps against the current pivot
            # leave remainders in place; they are strictly smaller than the
            # pivot, so re-selecting keeps the pivot shrinking and the
            # entries tame.
            for i in range(k + 1, rows):
                if w[i][k] != 0:
                    q = w[i][k] // w[k][k]
                    if q:
                        add_row_multiple(i, k, -q)
            for j in range(k + 1, cols):
                if w[k][j] != 0:
                    q = w[k][j] // w[k][k]
                    if q:
                        add_col_multiple(j, k, -q)
            if any(w[i][k] for i in range(k + 1, rows)) or any(
                w[k][j] for j in range(k + 1, cols)
            ):
                select_pivot(k)
                continue
            offender = next(
                (
                    i
                    for i in range(k + 1, rows)
                    if any(x % w[k][k] for x in w[i][k + 1 : cols])
                ),
                None,
            )
            if offender is None:
                break
            add_row_multiple(k, offender, 1)

    diagonal = (w[i][i] for i in range(min(rows, cols)))
    factors = tuple(itertools.takewhile(lambda d: d != 0, diagonal))
    smith = Matrix(row[:cols] for row in w[:rows])
    left = Matrix(row[cols:] for row in w[:rows])
    right = Matrix(row[:cols] for row in w[rows:])
    if left * (matrix * right) != smith:
        raise ArithmeticError("SNF certificate L*M*R == S failed")
    return SNFResult(smith=smith, left=left, right=right, invariant_factors=factors)
