"""The residue core as it stood before canonical forms moved to the
boundary, kept as a test oracle for ``solvkit.gcgroup``.

Every ``_reduce`` here ends with a gcd, so each step returns the residue
in lowest terms with a positive denominator; ``_shift_add`` first shifts,
then adds and reduces again.  The library cancels once per product and
takes the gcd only where a canonical pair is read, so its canonicalized
pairs must equal these exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from solvkit.gcgroup import RESIDUE_BITS_BUDGET, STEP_LIMIT, GcSignature


def _reduce(c: GcSignature, nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """``(sum_j nums[j] x^j) / den mod c``: ``s`` integer numerators over a
    positive denominator, in lowest terms, so equal residues are equal pairs."""
    coeffs, s, nums = c.coeffs, c.s, list(nums)
    lead = coeffs[s]
    for top in range(len(nums) - 1, s - 1, -1):
        # Cancel the top term with x^(top-s) c, scaling by c_s unless it divides.
        q = nums.pop()
        if q % lead:
            nums, den = [lead * x for x in nums], den * lead
        else:
            q //= lead
        for i in range(s):
            nums[top - s + i] -= q * coeffs[i]
    nums += [0] * (s - len(nums))
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def _mul(c: GcSignature, a, b):
    (p, dp), (q, dq) = a, b
    prod = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                prod[i + j] += x * y
    return _reduce(c, prod, dp * dq)


def _times_x_power(c: GcSignature, r, k: int):
    """``r x^k mod c``.  Up to ``STEP_LIMIT`` steps, the top-term cancellation
    of :func:`_reduce` multiplies by ``x`` once per step.  For negative ``k``
    it runs against reversed ``c`` on reversed numerators: ``p x^-1 = q mod c``
    exactly when ``x^(s-1) p(1/x) x = x^(s-1) q(1/x)`` modulo the reversal of
    ``c``.  Beyond the limit, ``r`` is multiplied by square-and-multiply from
    the one-step base ``x^(+-1)``; a zero residue is returned as it is.

    Unless every root of ``c`` is a root of unity, ``x^k`` has about
    ``|k|`` bits, so a huge ``k`` would never finish: ``ValueError`` is
    raised instead of squaring a base whose square would pass
    ``RESIDUE_BITS_BUDGET`` bits (twice the bits of its numerators and
    denominator)."""
    nums, den = r
    if not any(nums):
        return r
    if 0 <= k <= STEP_LIMIT:
        return _reduce(c, [0] * k + list(nums), den)
    if -STEP_LIMIT <= k < 0:
        nums, den = _reduce(GcSignature(c.coeffs[::-1]), [0] * -k + list(nums[::-1]), den)
        return nums[::-1], den
    base, n = _times_x_power(c, _reduce(c, [1], 1), 1 if k > 0 else -1), abs(k)
    while n:
        if n & 1:
            r = _mul(c, r, base)
        n >>= 1
        if n:
            bits = base[1].bit_length() + sum(map(int.bit_length, base[0]))
            if 2 * bits > RESIDUE_BITS_BUDGET:
                raise ValueError(f"x^{k} mod c needs more than {RESIDUE_BITS_BUDGET} bits")
            base = _mul(c, base, base)
    return r


def _shift_add(c: GcSignature, r, k: int, v):
    """``r x^k + v`` for residues ``r`` and ``v``."""
    (p, dp), (q, dq) = _times_x_power(c, r, k), v
    return _reduce(c, [x * dq + y * dp for x, y in zip(p, q)], dp * dq)


def _lamp_residue(c: GcSignature, lamps: dict[int, int]):
    """``(sum_p lamps[p] x^(p - low) mod c, low)``.  Lit lamps at most
    ``STEP_LIMIT`` apart form a cluster, folded by Horner's rule from its
    highest lamp down; the clusters whose residue is nonzero are then folded
    the same way across the longer gaps, so ``low`` is the lowest lamp of the
    lowest such cluster (0 if there is none), ``x^low`` is never formed, and a
    cluster that cancels costs no ``x^gap`` at all."""
    clusters = []  # [residue, lowest lamp], from the highest cluster down
    for pos in sorted((pos for pos, val in lamps.items() if val), reverse=True):
        lamp = _reduce(c, [lamps[pos]], 1)
        if clusters and clusters[-1][1] - pos <= STEP_LIMIT:
            clusters[-1] = [_shift_add(c, clusters[-1][0], clusters[-1][1] - pos, lamp), pos]
        else:
            clusters.append([lamp, pos])
    residue, low = _reduce(c, [0], 1), 0
    for r, pos in clusters:
        if any(r[0]):
            residue, low = _shift_add(c, residue, low - pos, r), pos
    return residue, low
