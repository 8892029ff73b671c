"""Properness as ``solvkit.gcgroup.gc_is_proper`` decided it before it
root-squared ``c``: exact trial division of ``c`` by every cyclotomic
polynomial ``Phi_d`` that can divide it.  Kept as the test oracle for
``gc_is_proper``.
"""

from __future__ import annotations

from typing import Sequence


def _totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divide_monic(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """The quotient ``f / g`` in Z[x] for monic ``g`` (coefficients ascending,
    ``len(f) >= len(g)``), or ``None`` when ``g`` does not divide ``f``."""
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f[k + len(g) - 1]
        if q[k]:
            for j, y in enumerate(g):
                f[k + j] -= q[k] * y
    return None if any(f) else q


def trial_division_is_proper(coeffs: tuple[int, ...]) -> bool:
    """True unless ``c`` is ``+-`` a product of distinct ``Phi_d``.

    Such a product has ``c_0, c_s = +-1`` and is its own reversal up to
    sign; the rest are divided in Z[x] by each ``Phi_d`` with ``phi(d)`` at
    most the remaining degree, once and for ``d`` ascending, and are
    virtually abelian iff ``+-1`` remains.  ``phi(d) >= sqrt(d / 2)``
    bounds the ``d`` to try by ``2 deg^2``.
    """
    if abs(coeffs[0]) != 1 or abs(coeffs[-1]) != 1:
        return True
    if coeffs[::-1] not in (coeffs, tuple(-x for x in coeffs)):
        return True
    rest, phis, d = list(coeffs), {}, 1
    while len(rest) > 1 and d <= 2 * (len(rest) - 1) ** 2:
        if _totient(d) < len(rest):
            # {d : phi(d) <= n} is closed under divisors, so every Phi_e with
            # e | d is built: Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e.
            phi = [-1] + [0] * (d - 1) + [1]
            for e in range(1, d):
                if d % e == 0:
                    phi = _divide_monic(phi, phis[e])
            phis[d] = phi
            quotient = _divide_monic(rest, phi)
            rest = rest if quotient is None else quotient
        d += 1
    return len(rest) > 1
