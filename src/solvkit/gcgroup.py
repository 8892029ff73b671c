"""Arithmetic and decision procedures for coefficient-vector groups.

A signature ``c = (c_0, ..., c_s)`` with ``c_0, c_s != 0`` and
``gcd(c) = 1`` determines a two-generator group: the stable letter ``a``
conjugates the base generator ``b`` through the family ``b_i = b^(a^i)``,
the ``b_i`` commute, and the single relation
``b_0^{c_0} b_1^{c_1} ... b_s^{c_s} = 1`` ties the family together.  With
``c`` read as the polynomial ``c_0 + c_1 x + ... + c_s x^s``, the group
embeds faithfully in ``Z[x, 1/x]/(c) x| Z``: an element is a pair
``(v, k)`` of a residue and a shift, multiplied by
``(v1, k1)(v2, k2) = (v1 x^k2 + v2, k1 + k2)``, with ``b = (1, 0)`` and
``a = (0, 1)``, so ``b_i = (x^i, 0)``.  Evaluating a word is evaluating it
in ``Z wr Z`` and reading its lamp polynomial modulo ``c``.  A residue is
kept as ``s`` integer numerators over one denominator, its coefficients on
``1, x, ..., x^(s-1)``, and all arithmetic below runs on these pairs.
The signature and the answers that are closed forms in its coefficients
live in :mod:`solvkit.forms`; this module re-exports them.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

import solvkit

from ._value import _int_only, _power, _Value
from .forms import (  # noqa: F401  (the closed forms, re-exported)
    BAND_ROWS_BUDGET,
    DEFAULT_INDEX_WINDOW_CAP,
    GcSignature,
    IntervalSubgroupReport,
    PowerIndexResult,
    _convolve,
    band_matrix,
    gc_abelianization,
    gc_is_proper,
    interval_subgroup,
    parse_signature,
    power_subgroup_index,
)
from .words import GeneratorWord, word_lamps

# The functions that use ``linalg`` read it as ``solvkit.linalg``, so the
# package's ``__getattr__`` loads it on first use and commands without it
# skip it; ``fractions`` is imported where a ``Fraction`` is built.
if TYPE_CHECKING:
    from .linalg import Matrix, Scalar

DEFAULT_MEMBERSHIP_BOUND = 10
RESIDUE_BITS_BUDGET = 2**20
STEP_LIMIT = 32
MEMBERSHIP_WINDOW_BUDGET = 50


class GcElement(_Value):
    """Group element ``(v, k)``: a residue ``v`` of ``Z[x, 1/x]/(c)`` and a shift.

    ``translation`` holds the coefficients of ``v`` on ``1, ..., x^(s-1)``.
    ``(v, k)`` stands for "k steps of the stable letter, then translate by
    v"; the product is ``(v1, k1) (v2, k2) = (v1 x^k2 + v2, k1 + k2)``,
    chosen so that evaluating ``a^-i b a^i`` yields ``(x^i, 0)``.

    An element stores only its shift and ``v`` as its canonical residue pair
    ``_pair``, which is no field, so ``hash``, ``repr`` and ``__match_args__``
    see only ``(v, k)``; ``==`` and ``is_identity`` read ``(k, _pair)``, which
    says the same, as each residue has one canonical pair.  ``translation`` is
    built from the pair on first read.  The constructor checks its arguments;
    every element the library computes skips the checks.
    """

    def __init__(self, translation: tuple[Scalar, ...], shift: int):
        pair = _residue([*map(solvkit.linalg.exact_scalar, translation)])
        object.__setattr__(self, "shift", _int_only(shift, "shift"))
        object.__setattr__(self, "_pair", pair)

    def __getattr__(self, name):
        # Only reached while the element has no translation yet.
        if name != "translation":
            raise AttributeError(name)
        object.__setattr__(self, "translation", _scalars(*self._pair))
        return self.translation

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.shift == other.shift and self._pair == other._pair

    __hash__ = _Value.__hash__

    @property
    def is_identity(self) -> bool:
        return self.shift == 0 and not any(self._pair[0])


def companion_action(c: GcSignature) -> Matrix:
    """The s x s rational matrix giving the stable letter's action on Q^s.

    Acting on row vectors (``v -> v * A``): basis vector ``e_i`` maps to
    ``e_{i+1}`` for ``i < s``, and ``e_s`` maps to
    ``(-c_0/c_s, ..., -c_{s-1}/c_s)``.  Its characteristic polynomial is
    ``(c_0 + c_1 x + ... + c_s x^s) / c_s`` up to sign: multiplication by
    ``x`` on ``Q[x]/(c)``, kept as API and as the residue core's test oracle.
    """
    from fractions import Fraction

    s = c.s
    rows = [[int(j == i + 1) for j in range(s)] for i in range(s - 1)]
    rows.append([Fraction(-c.coeffs[j], c.coeffs[s]) for j in range(s)])
    return solvkit.linalg.Matrix(rows)


def _reduce(c: GcSignature, nums: list[int], den: int, low: int = 0):
    """``(sum_j nums[j] x^(j + low)) / den mod c``, for ``low <= 0``, as
    ``s`` integer numerators over one denominator: terms of degree ``s`` and
    up are cancelled against ``c_s``, and terms below ``x^0`` against ``c_0``.
    No gcd is taken, so the pair need not be in lowest terms, and its
    denominator is negative when an odd number of steps scaled by a negative
    ``c_s`` or ``c_0``; :func:`_canonical` gives the one pair of each residue.
    It consumes ``nums``, so every caller passes a list of its own."""
    coeffs, s = c.coeffs, c.s
    lead, tail, high = coeffs[s], coeffs[0], coeffs[1:]
    for _ in range(len(nums) - s + low):
        # Cancel the top term with a multiple of c, scaling by c_s unless it divides.
        q = nums.pop()
        if not q:
            continue
        if q % lead:
            nums, den = [lead * x for x in nums], den * lead
        else:
            q //= lead
        nums[-s:] = [x - q * y for x, y in zip(nums[-s:], coeffs)]
    nums += [0] * (s - low - len(nums))
    for _ in range(-low):
        # Cancel the bottom term likewise, scaling by c_0 unless it divides.
        q = nums.pop(0)
        if not q:
            continue
        if q % tail:
            nums, den = [tail * x for x in nums], den * tail
        else:
            q //= tail
        nums[:s] = [x - q * y for x, y in zip(nums, high)]
    return tuple(nums), den


def _canonical(r):
    """The residue ``r`` in lowest terms with a positive denominator, so that
    equal residues are equal pairs; a pair whose gcd is 1 is ``r`` as it is."""
    nums, den = r
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return r if g == 1 else (tuple([x // g for x in nums]), den // g)


def _mul(c: GcSignature, a, b):
    (p, dp), (q, dq) = a, b
    return _reduce(c, _convolve(p, q), dp * dq)


def _times_x_power(c: GcSignature, r, k: int):
    """``r x^k mod c``; a zero residue or ``k`` returns ``r`` as it is.  Up to
    ``STEP_LIMIT`` steps, :func:`_reduce` cancels the Laurent polynomial
    ``p x^k`` in one pass, for either sign of ``k``.  Beyond the limit,
    ``r`` is multiplied by square-and-multiply from the one-step base
    ``x^(+-1)``, which this short branch gives.

    Unless every root of ``c`` is a root of unity, ``x^k`` has about
    ``|k|`` bits, so a huge ``k`` would never finish: ``ValueError`` is
    raised instead of squaring a base whose square would pass
    ``RESIDUE_BITS_BUDGET`` bits (twice the bits of its numerators and
    denominator); each base is canonical, so this measures the residue."""
    if not (k and any(r[0])):
        return r
    if abs(k) <= STEP_LIMIT:
        return _reduce(c, [*(0,) * k, *r[0]], r[1], min(k, 0))
    base, n = _canonical(_times_x_power(c, _reduce(c, [1], 1), 1 if k > 0 else -1)), abs(k)
    while n:
        if n & 1:
            r = _mul(c, r, base)
        n >>= 1
        if n:
            bits = base[1].bit_length() + sum(map(int.bit_length, base[0]))
            if 2 * bits > RESIDUE_BITS_BUDGET:
                raise ValueError(f"x^{k} mod c needs more than {RESIDUE_BITS_BUDGET} bits")
            base = _canonical(_mul(c, base, base))
    return r


def _shift_add(c: GcSignature, r, k: int, v):
    """``r x^k + v`` for residues ``r`` and ``v``; a zero ``r`` gives ``v``.
    The shift is :func:`_times_x_power`'s, and the sum of ``p / dp`` and
    ``q / dq`` is ``p dq + q dp`` over ``dp dq``, which needs no cancelling."""
    if not any(r[0]):
        return v
    (p, dp), (q, dq) = _times_x_power(c, r, k), v
    return tuple([x * dq + y * dp for x, y in zip(p, q)]), dp * dq


def _residue(translation: Sequence[Scalar]):
    den = math.lcm(*[x.denominator for x in translation])
    return tuple([x.numerator * (den // x.denominator) for x in translation]), den


def _scalars(nums: Sequence[int], den: int) -> tuple[Scalar, ...]:
    from fractions import Fraction

    return tuple([Fraction(x, den) if x % den else x // den for x in nums])


def _element(pair, shift: int) -> GcElement:
    """The element of residue ``pair``, in any form, stored as its
    :func:`_canonical` form, and integer ``shift``; neither needs the checks
    of the constructor.  No field goes through ``__dict__``, which would make
    every later read a dict lookup."""
    element = object.__new__(GcElement)
    object.__setattr__(element, "shift", shift)
    object.__setattr__(element, "_pair", _canonical(pair))
    return element


def basis_orbit_vector(c: GcSignature, i: int) -> tuple[Scalar, ...]:
    """The coefficients of ``x^i mod c``, the model image of the conjugate ``b_i``."""
    return _scalars(*_times_x_power(c, _reduce(c, [1], 1), i))


def gc_identity(c: GcSignature) -> GcElement:
    return _element(((0,) * c.s, 1), 0)


def _require_same_signature(c: GcSignature, element: GcElement):
    # reads the pair, as reading ``translation`` would build it
    if len(element._pair[0]) != c.s:
        raise ValueError(
            f"element has translation length {len(element._pair[0])}, "
            f"signature expects {c.s}"
        )


def gc_mul(c: GcSignature, g: GcElement, h: GcElement) -> GcElement:
    """Product: ``(v1, k1)(v2, k2) = (v1 x^k2 + v2, k1 + k2)``; one length
    test covers both operands."""
    if len(g._pair[0]) != c.s or len(h._pair[0]) != c.s:
        _require_same_signature(c, g)
        _require_same_signature(c, h)
    return _element(_shift_add(c, g._pair, h.shift, h._pair), g.shift + h.shift)


def gc_inv(c: GcSignature, g: GcElement) -> GcElement:
    """Inverse: ``(v, k)^-1 = (-v x^-k, -k)``."""
    _require_same_signature(c, g)
    nums, den = _times_x_power(c, g._pair, -g.shift)
    return _element((nums, -den), -g.shift)


def gc_pow(c: GcSignature, g: GcElement, n: int) -> GcElement:
    """``g^n`` by square-and-multiply; negative n inverts first."""
    return _power(lambda x, y: gc_mul(c, x, y), gc_identity(c), g, n, lambda x: gc_inv(c, x))


def _lamp_residue(c: GcSignature, lamps: dict[int, int]):
    """``(sum_p lamps[p] x^(p - low) mod c, low)``.  A lamp of value ``v`` is
    the residue ``((v, 0, ..., 0), 1)`` as it is.  Lit lamps at most
    ``STEP_LIMIT`` apart form a cluster, folded by Horner's rule from its
    highest lamp down; the clusters whose residue is nonzero are then folded
    the same way across the longer gaps, so ``low`` is the lowest lamp of the
    lowest such cluster (0 if there is none), ``x^low`` is never formed, and a
    cluster that cancels costs no ``x^gap`` at all."""
    zeros = (0,) * (c.s - 1)
    clusters = []  # [residue, lowest lamp], from the highest cluster down
    for pos in sorted((pos for pos, val in lamps.items() if val), reverse=True):
        lamp = ((lamps[pos], *zeros), 1)
        if clusters and clusters[-1][1] - pos <= STEP_LIMIT:
            clusters[-1] = [_shift_add(c, clusters[-1][0], clusters[-1][1] - pos, lamp), pos]
        else:
            clusters.append([lamp, pos])
    residue, low = ((0, *zeros), 1), 0
    for r, pos in clusters:
        if any(r[0]):
            residue, low = _shift_add(c, residue, low - pos, r), pos
    return residue, low


def gc_eval(c: GcSignature, word: GeneratorWord | str) -> GcElement:
    """Evaluate a word in ``a`` and ``b`` to its model element.

    ``a`` maps to the pure shift ``(0, 1)`` and ``b`` to ``(1, 0)``; the
    empty word is the identity.  The residue is the lamp polynomial modulo ``c``.
    """
    lamps, shift = word_lamps(word)
    return _element(_times_x_power(c, *_lamp_residue(c, lamps)), shift)


def gc_is_identity(c: GcSignature, word: GeneratorWord | str) -> bool:
    """Word problem: does the word represent the identity element?

    Decidable because the model representation is faithful, so a word is
    trivial exactly when its shift and its lamp residue both vanish.  The
    residue is measured from a lit lamp, not from 0: ``x`` is a unit modulo
    ``c`` (as ``c_0 != 0``), so that shift changes nothing but the cost.
    """
    lamps, shift = word_lamps(word)
    return shift == 0 and not any(_lamp_residue(c, lamps)[0][0])


def relator_check(c: GcSignature) -> bool:
    """Verify the defining relations hold in the model.

    Checks the coefficient relation ``sum_i c_i x^i = 0`` modulo ``c`` and
    that the conjugate generators ``b_i`` commute (their model images
    ``(x^i, 0)`` are pure translations).  Returns True for every valid
    signature; False would mean the model construction itself is broken.
    """
    one = _reduce(c, [1], 1)
    b0 = _element(one, 0)
    conjugates = (_element(_times_x_power(c, one, i), 0) for i in range(-2, c.s + 2))
    return not any(_lamp_residue(c, dict(enumerate(c.coeffs)))[0][0]) and all(
        gc_mul(c, b0, bi) == gc_mul(c, bi, b0) for bi in conjugates
    )


class MembershipResult(_Value):
    """Outcome of the bounded base-group membership search.

    ``witness`` maps powers ``i`` to integer coefficients when the vector
    was expressed as an integer combination of the residues ``x^i mod c``;
    ``None`` means the search bound was exhausted, which is *not* a proof
    of non-membership.
    """

    def __init__(self, witness: tuple[tuple[int, int], ...] | None):
        self._set(witness)

    @property
    def is_member(self) -> bool:
        return self.witness is not None

    def witness_dict(self) -> dict[int, int]:
        if self.witness is None:
            raise ValueError("no witness: membership was not established")
        return dict(self.witness)


def base_membership(
    c: GcSignature,
    vector: Sequence,
    j_max: int = DEFAULT_MEMBERSHIP_BOUND,
) -> MembershipResult:
    """Search for ``vector`` as an integer combination of orbit vectors.

    Windows ``j = 0 .. j_max`` take the powers ``-j .. j+s-1``; each window
    reduces to an integer linear system after clearing denominators, and is
    skipped when the lcm of its denominators is not a multiple of the
    vector's denominator, as then no integer combination can equal it.  A
    found witness is verified exactly before being returned.  Window ``j``
    solves an ``s x (2j + s)`` system, so ``j_max`` above
    ``MEMBERSHIP_WINDOW_BUDGET`` is refused with ``ValueError``.  Window ``j``
    is window ``j - 1`` with ``x^-j`` and ``x^(j+s-1)`` added, each one step
    from its neighbour, and window 0 holds ``x^0 .. x^(s-1)``, whose
    denominators are 1.
    """
    linalg = solvkit.linalg
    target = tuple(linalg.exact_scalar(x) for x in vector)
    if len(target) != c.s:
        raise linalg.DimensionError(f"vector length {len(target)} != s = {c.s}")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if j_max > MEMBERSHIP_WINDOW_BUDGET:
        raise ValueError(f"j_max {j_max} is over the budget of {MEMBERSHIP_WINDOW_BUDGET}")
    target_nums, target_den = _residue(target)
    residues, den = [_reduce(c, [1], 1)], 1
    while len(residues) < c.s:
        residues.append(_canonical(_times_x_power(c, residues[-1], 1)))
    for j in range(j_max + 1):
        if j:
            residues.insert(0, _canonical(_times_x_power(c, residues[0], -1)))
            residues.append(_canonical(_times_x_power(c, residues[-1], 1)))
            den = math.lcm(den, residues[0][1], residues[-1][1])
        if den % target_den:
            continue
        columns = linalg.Matrix(
            [[nums[row] * (den // d) for nums, d in residues] for row in range(c.s)]
        )
        rhs = [x * (den // target_den) for x in target_nums]
        solution = linalg.solve_integer_system(columns, rhs)
        if solution is not None:
            witness = tuple(
                (power, coeff) for power, coeff in zip(range(-j, j + c.s), solution) if coeff
            )
            found = _canonical(_times_x_power(c, *_lamp_residue(c, dict(witness))))
            if found != (target_nums, target_den):
                raise ArithmeticError("membership witness certificate failed")
            return MembershipResult(witness=witness)
    return MembershipResult(witness=None)


def element_to_json(element: GcElement) -> dict:
    """JSON form with decimal-string scalars (``p/q`` for true rationals).
    A coordinate ``x / den`` of the canonical pair prints as ``str`` of its
    ``Fraction`` does, from ``g = gcd(x, den)``: ``x/g`` when ``g = den``, else
    ``x/g`` over ``den/g``, so no ``Fraction`` is built.  Its numerator ``x/g``
    has at least ``bits(x) - bits(den)`` bits: if that passes Python's limit on
    printed digits (``log2 10 < 3.322``), it is refused before any is printed."""
    nums, den = element._pair
    limit = sys.get_int_max_str_digits()
    if limit and 1000 * (max(map(int.bit_length, nums)) - den.bit_length() - 1) >= 3322 * limit:
        raise ValueError(f"a number is over the limit of {limit} decimal digits")
    translation = []
    for x in nums:
        g = math.gcd(x, den)
        translation.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return {"translation": translation, "shift": str(element.shift)}


def element_from_json(obj: dict) -> GcElement:
    translation = tuple(solvkit.linalg.scalar_from_str(x) for x in obj["translation"])
    return GcElement(translation, int(obj["shift"]))
