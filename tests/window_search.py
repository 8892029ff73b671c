"""The capped window search for the power-subgroup index, kept as a test
oracle for the closed form in ``solvkit.gcgroup.power_subgroup_index``.

Replacing ``b`` by ``b^t`` scales the base group by ``t``, so the index is
the size of (base group) / (t * base group).  That quotient is the
increasing union of the images of finite orbit windows; each image
cardinality is an exact covolume ratio of full-rank lattices, the sequence
is non-decreasing and bounded by ``t**s``, and two consecutive equal window
values are taken as the stable answer, with a cap on the window depth.
"""

from __future__ import annotations

import math
from fractions import Fraction

from solvkit.gcgroup import DEFAULT_INDEX_WINDOW_CAP, GcSignature, basis_orbit_vector
from solvkit.linalg import Matrix, snf


def window_vectors(c: GcSignature, j: int) -> list[tuple]:
    """Orbit window for symmetric depth j: powers -j .. j+s-1 (2j+s vectors)."""
    return [basis_orbit_vector(c, i) for i in range(-j, j + c.s)]


def lattice_covolume(vectors: list[tuple], s: int) -> Fraction:
    """Covolume of the full-rank lattice spanned by the given row vectors:
    clear denominators, then multiply the invariant factors."""
    denominator = math.lcm(*(Fraction(x).denominator for vec in vectors for x in vec))
    rows = Matrix([[int(Fraction(x) * denominator) for x in vec] for vec in vectors])
    factors = snf(rows).invariant_factors
    if len(factors) < s:
        raise ArithmeticError("window lattice unexpectedly degenerate")
    return Fraction(math.prod(factors), denominator**s)


def image_cardinality_step(c: GcSignature, t: int, j: int, j_outer: int) -> int:
    """|window-j lattice : its intersection with t * (window-j_outer lattice)|."""
    window = window_vectors(c, j)
    scaled_outer = [tuple(t * x for x in vec) for vec in window_vectors(c, j_outer)]
    ratio = lattice_covolume(scaled_outer, c.s) / lattice_covolume(
        window + scaled_outer, c.s
    )
    if ratio.denominator != 1 or ratio < 1:
        raise ArithmeticError(f"covolume ratio {ratio} is not a positive integer")
    return int(ratio)


def stable_image_cardinality(c: GcSignature, t: int, j: int, cap: int) -> int | None:
    """The image of window j in the full quotient by the scaled base group:
    grow the outer window until the covolume ratio stops changing."""
    previous = None
    for j_outer in range(j, j + cap + 1):
        value = image_cardinality_step(c, t, j, j_outer)
        if value == previous:
            return value
        previous = value
    return None


def window_search_index(
    c: GcSignature, t: int, j_cap: int = DEFAULT_INDEX_WINDOW_CAP
) -> int | None:
    """The index by window search, or ``None`` when it did not stabilize
    within ``j_cap``."""
    if t == 1:
        return 1
    previous = None
    for j in range(j_cap + 1):
        value = stable_image_cardinality(c, t, j, j_cap + 2)
        if value is None:
            return None
        if value == previous:
            return value
        previous = value
    return None
