"""Signatures and the answers that are closed forms in their coefficients.

A signature ``c = (c_0, ..., c_s)`` is read as the polynomial
``c_0 + c_1 x + ... + c_s x^s`` (see :mod:`solvkit.gcgroup` for the group
it defines).  Properness, the abelianization, the interval subgroups, the
power-subgroup index and the banded relation matrix are read off these
coefficients alone, and Minkowski's bound off ``n`` alone, so none of them
needs the residue core, words or matrix algebra: this module loads neither
``gcgroup``, ``words`` nor ``linalg``, and the commands that print these
answers load only it.  ``gcgroup`` and ``linalg`` re-export every public
name here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import solvkit

from ._value import _int_only, _Value

# ``band_matrix`` reads ``linalg`` as ``solvkit.linalg``, so the package's
# ``__getattr__`` loads it on first use and the other answers skip it.
if TYPE_CHECKING:
    from .linalg import Matrix

DEFAULT_INDEX_WINDOW_CAP = 20
BAND_ROWS_BUDGET = 1000
MINKOWSKI_N_BUDGET = 1331


class GcSignature(_Value):
    """Validated coefficient vector; ``s`` is the top conjugation depth,
    stored beside the field ``coeffs``."""

    _stored = ("coeffs", "s")

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        for x in coeffs:
            _int_only(x, "signature coefficient")
        if len(coeffs) < 2:
            raise ValueError("signature needs at least two coefficients (s >= 1)")
        if coeffs[0] == 0 or coeffs[-1] == 0:
            raise ValueError("first and last coefficients must be nonzero")
        if math.gcd(*coeffs) != 1:
            raise ValueError("coefficients must have gcd 1")
        self._set(coeffs, len(coeffs) - 1)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.coeffs)


def parse_signature(text: str) -> GcSignature:
    """Parse the comma-separated form, e.g. ``"2,-1"``."""
    try:
        coeffs = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"signature must be comma-separated integers: {text!r}") from exc
    return GcSignature(coeffs)


def band_matrix(c: GcSignature, m: int) -> Matrix:
    """The m x (m+s) banded matrix whose row k holds the coefficients of
    the relation ``sum_i c_i b_{k+i}``: entry (i, j) is ``c_{j-i}`` when
    ``0 <= j-i <= s`` and zero otherwise.  It has ``m (m + s)`` entries,
    so ``m`` above ``BAND_ROWS_BUDGET`` is refused with ``ValueError``."""
    if _int_only(m, "m") < 1:
        raise ValueError("band matrix needs at least one row")
    if m > BAND_ROWS_BUDGET:
        raise ValueError(f"band matrix with {m} rows is over the budget of {BAND_ROWS_BUDGET}")
    s = c.s
    return solvkit.linalg.Matrix(
        [
            [c.coeffs[j - i] if 0 <= j - i <= s else 0 for j in range(m + s)]
            for i in range(m)
        ]
    )


def _convolve(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The coefficients of the product of the polynomials ``p`` and ``q``."""
    prod = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                prod[i + j] += x * y
    return prod


def gc_is_proper(c: GcSignature) -> bool:
    """True when the group is not virtually abelian.

    The group is virtually abelian exactly when ``x^n = 1 mod c`` for some
    ``n > 0``, that is (Kronecker, 1857) when ``c`` is ``+-`` a product of
    *distinct* cyclotomic polynomials ``Phi_m``.  Such a product has
    ``c_0, c_s = +-1`` and is its own reversal up to sign, which settles
    most signatures at once.  The rest are root-squared (Graeffe):
    ``f(x) = E(x^2) + x O(x^2)`` steps to ``g(y) = E(y)^2 - y O(y)^2``,
    whose roots are the squares of those of ``f``; the ``i``-th iterate
    has Mahler measure ``M(c)^(2^i)``.  The iterates of a product of
    ``Phi_m`` have roots of modulus 1, so ``|g_k| = |e_(s-k)| <= C(s, k)``,
    and ``C(s, 1) = C(s, s - 1) = s``: an iterate with ``|g_1|`` or
    ``|g_(s-1)|`` above ``s``, or a ``|g_k|`` above ``C(s, s // 2)``, proves
    ``c`` proper, and one comes unless ``M(c) = 1``, as
    ``M(f) <= sqrt(s + 1) max |f_k|``.  An iterate equal to the previous
    one up to sign has roots closed under squaring, so each root ``r != 0``
    has ``r^(2^a) = r^(2^b)`` for some ``a < b``: every root of ``c`` is a
    root of unity, and ``c`` is ``+-`` a product of ``Phi_m`` (whose
    iterates stop changing once every root has odd order).  Its factors are
    distinct iff ``gcd(c, c') = 1``, tested modulo ``p = 2^61 - 1``: each
    ``Phi_m | c`` has ``sqrt(m / 2) <= phi(m) <= s``, so ``m <= 2 s^2 < p``
    (``s < 2^30``), and all such ``Phi_m`` divide ``x^L - 1`` for their lcm
    ``L``, which is squarefree modulo ``p``: they stay squarefree and coprime.
    """
    coeffs, s = c.coeffs, c.s
    if abs(coeffs[0]) != 1 or abs(coeffs[-1]) != 1:
        return True
    if coeffs[::-1] not in (coeffs, tuple(-x for x in coeffs)):
        return True
    f, bound = list(coeffs), math.comb(s, s // 2)
    while True:
        g = _convolve(f[::2], f[::2]) + [0] * (s % 2)
        for k, x in enumerate(_convolve(f[1::2], f[1::2]), 1):
            g[k] -= x
        if abs(g[1]) > s or abs(g[-2]) > s or max(map(abs, g)) > bound:
            return True
        if g == f or [-x for x in g] == f:
            break
        f = g
    # Euclid modulo p on c and c', ascending: a, b = b, a mod b until b = 0.
    p = 2**61 - 1
    a, b = [x % p for x in coeffs], [k * x % p for k, x in enumerate(coeffs)][1:]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a.pop() * inv % p
            k = len(a) - len(b) + 1
            a[k:] = [(x - q * y) % p for x, y in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) > 1


def gc_abelianization(c: GcSignature) -> tuple[int, tuple[int, ...]]:
    """Abelianized invariants ``(free_rank, torsion_factors)``.

    Abelianizing identifies all the ``b_i``, so the relation collapses to
    ``(sum_i c_i) b = 0`` over the generators ``(b, a)``: with
    ``sigma = sum_i c_i`` the answer is ``Z^2`` when ``sigma = 0``, else
    ``Z`` times ``Z/|sigma|``.
    """
    total = abs(sum(c.coeffs))
    if total == 0:
        return 2, ()
    return 1, ((total,) if total > 1 else ())


class IntervalSubgroupReport(_Value):
    """Isomorphism data for the subgroup generated by ``b_k .. b_k'``."""

    def __init__(self, generators: int, relators: int, free_rank: int,
                 torsion_factors: tuple[int, ...]):
        self._set(generators, relators, free_rank, torsion_factors)


def interval_subgroup(c: GcSignature, low: int, high: int) -> IntervalSubgroupReport:
    """Presentation invariants of ``< b_i : low <= i <= high >``.

    The subgroup is abelian with one banded relation for every full
    coefficient window inside the interval, so its presentation matrix is
    ``band_matrix(c, n - s)`` for ``n = high - low + 1`` generators.  As
    ``c`` is primitive that matrix has Smith normal form ``(I | 0)``, so
    the report is ``relators = max(0, n - s)``, ``free_rank = min(n, s)``
    and no torsion.
    """
    if _int_only(low, "low") > _int_only(high, "high"):
        raise ValueError("interval is empty: low > high")
    generators = high - low + 1
    return IntervalSubgroupReport(
        generators, max(0, generators - c.s), min(generators, c.s), ()
    )


class PowerIndexResult(_Value):
    """Index of ``<a, b^t>``.  The index is a closed form, so it is always
    known and ``stabilized`` is always true."""

    def __init__(self, index: int):
        self._set(index)

    @property
    def stabilized(self) -> bool:
        return True


def _part_over(t: int, g: int) -> int:
    """The largest divisor of ``t`` whose primes all divide ``g``, found
    without factoring ``t``."""
    rest = t
    while (common := math.gcd(rest, g)) > 1:
        rest //= common
    return t // rest


def power_subgroup_index(
    c: GcSignature,
    t: int,
    j_cap: int = DEFAULT_INDEX_WINDOW_CAP,
) -> PowerIndexResult:
    """Index of the subgroup generated by ``a`` and ``b^t``.

    Replacing ``b`` by ``b^t`` scales the base group ``B = Z[x^+-1]/(c)`` by
    ``t``, so the index is ``|B / tB| = prod_{p^e || t} p^(e (M_p - m_p))``,
    where ``m_p`` and ``M_p`` are the lowest and highest indices of the
    coefficients of ``c`` not divisible by ``p``.  Counting, for every
    ``k = 1 .. s``, the primes of ``t`` that divide ``G_k = gcd(c_0 ..
    c_{k-1})`` or ``H_k = gcd(c_{s-k+1} .. c_s)`` gives, with ``t_g`` the
    part of ``t`` over the primes of ``g``,
    ``index = t^s / prod_k (t_{G_k} t_{H_k})``, and ``t`` is never factored.
    ``j_cap`` must be nonnegative but does not affect the answer.
    """
    if _int_only(t, "t") < 1:
        raise ValueError("t must be a positive integer")
    if _int_only(j_cap, "j_cap") < 0:
        raise ValueError("j_cap must be nonnegative")
    coeffs, s = c.coeffs, c.s
    denominator = 1
    for k in range(1, s + 1):
        denominator *= _part_over(t, math.gcd(*coeffs[:k]))
        denominator *= _part_over(t, math.gcd(*coeffs[s - k + 1 :]))
    return PowerIndexResult(index=t**s // denominator)


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def minkowski_bound(n: int) -> int:
    """A positive integer divisible by the order of every finite subgroup
    of the n x n integer general linear group.

    Computed by the classical exponent formula: for each prime
    ``p <= n + 1`` the exponent of p is ``sum_k floor(n / (p^k (p-1)))``.
    For ``n`` above ``MINKOWSKI_N_BUDGET`` the bound has more than 4,300
    decimal digits, Python's limit for printing an int, so such ``n`` is
    refused with ``ValueError``.
    """
    if _int_only(n, "n") < 1:
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
