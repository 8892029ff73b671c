"""Known answers built without calling solvkit.

Every function here is an independent re-derivation of a fact the program
computes, so that a wrong program answer cannot also be the expected one:

* ``x_power_mod`` works with Laurent polynomials modulo ``c(x)``, where the
  program uses a rational companion matrix.  ``e_1 A^i`` is the
  coefficient vector of ``x^i mod c`` in the basis ``1 .. x^(s-1)``.
* ``lamps`` evaluates a word in ``Z wr Z`` (or ``C_n wr Z``) by one reverse
  scan of the letters.
* ``power_index`` is the closed form of ``[G(c) : <a, b^t>]``:
  ``prod over p^e || t of p^(e (M_p - m_p))``, with ``m_p``/``M_p`` the lowest
  and highest indices of coefficients of ``c`` not divisible by ``p``.
* ``cyclotomic`` builds ``Phi_d`` by exact polynomial division.
* ``unimodular`` and ``matmul`` build integer matrices with a chosen Smith
  form as ``U D V``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache


# -- signatures -------------------------------------------------------------


def random_signature(rng: random.Random, s: int, bound: int) -> tuple[int, ...]:
    """A valid signature of degree ``s`` with coefficients in ``[-bound, bound]``."""
    while True:
        c = [rng.randint(-bound, bound) for _ in range(s + 1)]
        if c[0] and c[-1] and math.gcd(*c) == 1:
            return tuple(c)


# -- Laurent polynomials modulo c ------------------------------------------


def _times_x(v: list, c: tuple[int, ...]) -> list:
    # x * (v_0 + ... + v_{s-1} x^{s-1}), with x^s = -(c_0 + ... + c_{s-1} x^{s-1}) / c_s
    top = v[-1]
    out = [Fraction(0)] + v[:-1]
    return [o - top * Fraction(ci, c[-1]) for o, ci in zip(out, c)]


def _times_x_inverse(v: list, c: tuple[int, ...]) -> list:
    # x^-1 = -(c_1 + c_2 x + ... + c_s x^{s-1}) / c_0
    low = v[0]
    out = v[1:] + [Fraction(0)]
    return [o - low * Fraction(ci, c[0]) for o, ci in zip(out, c[1:])]


@lru_cache(maxsize=None)
def x_power_mod(c: tuple[int, ...], k: int) -> tuple[Fraction, ...]:
    """Coefficients of ``x^k mod c(x)`` in the basis ``1, x, .., x^(s-1)``."""
    v = [Fraction(1)] + [Fraction(0)] * (len(c) - 2)
    step = _times_x if k > 0 else _times_x_inverse
    for _ in range(abs(k)):
        v = step(v, c)
    return tuple(v)


def orbit_combination(c: tuple[int, ...], terms) -> tuple[Fraction, ...]:
    """``sum k * (x^i mod c)`` over ``(i, k)`` pairs."""
    total = [Fraction(0)] * (len(c) - 1)
    for i, k in terms:
        total = [t + k * x for t, x in zip(total, x_power_mod(c, i))]
    return tuple(total)


# -- words ------------------------------------------------------------------


def word_text(pairs) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in pairs)


def inverse_pairs(pairs) -> list:
    return [(g, -e) for g, e in reversed(pairs)]


def random_pairs(rng: random.Random, letters: int, a_bound: int, reach: int) -> list:
    """Alternating ``a``/``b`` letters with nonzero exponents.  The running
    ``a`` exponent stays within ``[-reach, reach]``, so the cost of a word
    grows with its length, not with how far a random walk happens to go."""
    out = []
    first = rng.choice("ab")
    position = 0
    for i in range(letters):
        gen = first if i % 2 == 0 else ("b" if first == "a" else "a")
        if gen == "a":
            exp = rng.choice([e for e in range(-a_bound, a_bound + 1)
                              if e and abs(position + e) <= reach])
            position += exp
        else:
            exp = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append((gen, exp))
    return out


def relator_pairs(c: tuple[int, ...]) -> list:
    """``b^{c_0} (a^-1 b a)^{c_1} ... (a^-s b a^s)^{c_s}``, trivial in G(c)."""
    out = []
    for i, ci in enumerate(c):
        if ci:
            out += [("a", -i), ("b", ci), ("a", i)]
    return [(g, e) for g, e in out if e]


def commutator_pairs(i: int) -> list:
    """``[b, a^-i b a^i]``, trivial in G(c) and in the wreath products."""
    return [(g, e) for g, e in
            [("b", -1), ("a", -i), ("b", -1), ("a", i), ("b", 1), ("a", -i), ("b", 1), ("a", i)]
            if e]


def a_total(pairs) -> int:
    return sum(e for g, e in pairs if g == "a")


def lamps(pairs, modulus: int | None):
    """``(support, shift)`` of the word in ``Z wr Z`` or ``C_n wr Z``.

    A ``b^e`` letter lights ``e`` at the position equal to the total ``a``
    exponent that follows it.
    """
    lamp: dict[int, int] = {}
    after = 0
    for gen, exp in reversed(pairs):
        if gen == "a":
            after += exp
        else:
            lamp[after] = lamp.get(after, 0) + exp
    support = []
    for pos in sorted(lamp):
        val = lamp[pos] % modulus if modulus else lamp[pos]
        if val:
            support.append((pos, val))
    return tuple(support), after


# -- closed forms -----------------------------------------------------------


def _prime_powers(t: int):
    p = 2
    while p * p <= t:
        e = 0
        while t % p == 0:
            t //= p
            e += 1
        if e:
            yield p, e
        p += 1
    if t > 1:
        yield t, 1


def power_index(c: tuple[int, ...], t: int) -> int:
    index = 1
    for p, e in _prime_powers(t):
        kept = [i for i, ci in enumerate(c) if ci % p]
        index *= p ** (e * (kept[-1] - kept[0]))
    return index


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _poly_div_exact(f, g):
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f[k + len(g) - 1] // g[-1]
        for j, y in enumerate(g):
            f[k + j] -= q[k] * y
    if any(f):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of ``Phi_d``, constant term first."""
    f = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            f = _poly_div_exact(f, cyclotomic(e))
    return tuple(f)


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cyclotomic_product(rng: random.Random, degree: int) -> tuple[int, ...]:
    """``+-`` a product of distinct ``Phi_d`` of total degree ``degree``."""
    pool = [d for d in range(1, 4 * degree + 3) if totient(d) <= degree]
    for _ in range(200):
        rng.shuffle(pool)
        chosen, left = [], degree
        for d in pool:
            if totient(d) <= left:
                chosen.append(d)
                left -= totient(d)
            if left == 0:
                poly = [1]
                for d2 in chosen:
                    poly = _poly_mul(poly, cyclotomic(d2))
                sign = rng.choice((1, -1))
                return tuple(sign * x for x in poly)
    raise ArithmeticError(f"no product of distinct cyclotomics of degree {degree} found")


# -- integer matrices -------------------------------------------------------


def matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def matvec(x, v):
    return [sum(a * b for a, b in zip(row, v)) for row in x]


def unimodular(rng: random.Random, n: int):
    """``P L U`` with unit triangular ``L``, ``U`` of small entries: det = +-1."""
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    product = matmul(lower, upper)
    return [product[i] for i in perm]


def divisibility_chain(rng: random.Random, length: int, rank: int) -> list[int]:
    """``rank`` nonzero invariant factors, each dividing the next, then zeros."""
    out, d = [], 1
    for i in range(length):
        if i >= rank:
            out.append(0)
            continue
        if rng.random() < 0.25:
            d *= rng.choice((2, 3, 5))
        out.append(d)
    return out


def with_smith_form(rng: random.Random, rows: int, cols: int, diag: list[int]):
    """``(U D V, U)`` with ``D`` the ``rows x cols`` Smith form with diagonal ``diag``."""
    left = unimodular(rng, rows)
    right = unimodular(rng, cols)
    middle = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    return matmul(matmul(left, middle), right), left


def smith_certificate(original, smith, left, right, factors) -> bool:
    """``left * original * right == smith``; ``smith`` is diagonal with the
    nonnegative divisibility chain ``factors`` followed by zeros."""
    rows, cols = len(original), len(original[0])
    if len(smith) != rows or any(len(r) != cols for r in smith):
        return False
    if len(left) != rows or len(right) != cols:
        return False
    for i, row in enumerate(smith):
        for j, x in enumerate(row):
            if i != j and x:
                return False
    diag = [smith[i][i] for i in range(min(rows, cols))]
    rank = len(factors)
    if tuple(diag[:rank]) != tuple(factors) or any(diag[rank:]):
        return False
    if any(f <= 0 for f in factors) or any(factors[i + 1] % factors[i] for i in range(rank - 1)):
        return False
    return matmul(matmul(left, original), right) == [list(r) for r in smith]
