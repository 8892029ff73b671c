"""The gcds of the minors as ``solvkit.linalg.minor_gcds`` took them before
it expanded each minor along its last row: one Bareiss determinant per
minor, on plain row slices.  Kept as the test oracle for ``minor_gcds``.
"""

from __future__ import annotations

import itertools
import math

from solvkit.linalg import Matrix, _det_bareiss


def reference_minor_gcds(matrix: Matrix) -> tuple[int, ...]:
    """gcds of all i x i minors of an integer matrix, for
    i = 1 .. min(rows, cols), each minor by its own determinant."""
    out, data = [], matrix.rows_as_tuples()
    for size in range(1, min(matrix.rows, matrix.cols) + 1):
        g = 0
        for rows in itertools.combinations(data, size):
            for col_sel in itertools.combinations(range(matrix.cols), size):
                g = math.gcd(g, _det_bareiss([[row[j] for j in col_sel] for row in rows]))
        out.append(g)
    return tuple(out)
