"""Exact arithmetic in the wreath products Z wr Z and C_n wr Z.

An element is a finitely supported lamp configuration on the integer line
together with a shift of the lamplighter.  Without a modulus the lamps
take values in Z; with modulus ``n`` they live in ``C_n`` and every stored
value is reduced into ``1 .. n-1``.  With the lamps ``f`` read as the
Laurent polynomial ``sum_p f(p) x^p``, the product is ``(f1, t1)(f2, t2)
= (f1 x^t2 + f2, t1 + t2)``, so the word ``a^-i b a^i`` lights the single
lamp at ``i``: the rule of the coefficient-vector groups, which read
``f`` modulo their signature.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._value import _int_only, _power, _Value
from .words import GeneratorWord, word_lamps


class WreathElement(_Value):
    """Lamp configuration (sorted, zero-free) plus lamplighter shift."""

    def __init__(self, support: tuple[tuple[int, int], ...], shift: int,
                 modulus: int | None = None):
        _require_modulus(modulus)
        _int_only(shift, "shift")
        support = tuple(support)
        lamps = dict(support)
        if len(lamps) != len(support):
            raise ValueError("lamp positions must be distinct")
        for pos in lamps:
            _int_only(pos, "lamp position")
        # every value is checked, from the lowest position up, before a zero is dropped
        _store(self, [item for item in sorted(lamps.items()) if _int_only(item[1], "lamp value")],
               shift, modulus)

    @classmethod
    def from_support(
        cls,
        values: Mapping[int, int],
        shift: int = 0,
        modulus: int | None = None,
    ) -> "WreathElement":
        return cls(tuple(values.items()), shift, modulus)

    @classmethod
    def identity(cls, modulus: int | None = None) -> "WreathElement":
        return cls((), 0, modulus)

    def support_dict(self) -> dict[int, int]:
        return dict(self.support)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.support)

    @property
    def is_identity(self) -> bool:
        return not self.support and self.shift == 0


def _require_modulus(modulus: int | None):
    if modulus is not None and _int_only(modulus, "modulus") < 2:
        raise ValueError("modulus must be at least 2 (or None for Z lamps)")


def _store(element: WreathElement, lamps: list[tuple[int, int]], shift: int,
           modulus: int | None) -> WreathElement:
    """Store ``lamps``, nonzero ``(position, value)`` pairs sorted by
    position, reduced modulo ``modulus`` (dropping new zeros), and ``shift``
    on ``element``, unchecked.  The fields are set one by one, as ``__dict__``
    would turn every later read into a dict lookup."""
    if modulus is not None:
        lamps = [(pos, rest) for pos, val in lamps if (rest := val % modulus)]
    object.__setattr__(element, "support", tuple(lamps))
    object.__setattr__(element, "shift", shift)
    object.__setattr__(element, "modulus", modulus)
    return element


def _element(lamps: dict[int, int], shift: int, modulus: int | None) -> WreathElement:
    """The element of ``lamps`` and ``shift``, stored as the constructor
    stores it but with none of its checks, which products of checked
    elements and the lamps of a word always pass."""
    nonzero = sorted(item for item in lamps.items() if item[1])
    return _store(object.__new__(WreathElement), nonzero, shift, modulus)


def _require_same_modulus(g: WreathElement, h: WreathElement):
    if g.modulus != h.modulus:
        raise ValueError(f"modulus mismatch: {g.modulus} vs {h.modulus}")


def wr_mul(g: WreathElement, h: WreathElement) -> WreathElement:
    """Product: shift g's lamps by h's shift, then add h's lamps.

    ``(f1, t1)(f2, t2) = (f1 x^t2 + f2, t1 + t2)`` with the lamps read as
    Laurent polynomials: the coefficient-group rule before any reduction
    modulo a signature.
    """
    _require_same_modulus(g, h)
    lamps = {pos + h.shift: val for pos, val in g.support}
    for pos, val in h.support:
        lamps[pos] = lamps.get(pos, 0) + val
    return _element(lamps, g.shift + h.shift, g.modulus)


def wr_inv(g: WreathElement) -> WreathElement:
    lamps = {pos - g.shift: -val for pos, val in g.support}
    return _element(lamps, -g.shift, g.modulus)


def wr_pow(g: WreathElement, n: int) -> WreathElement:
    """``g^n`` by square-and-multiply; negative n inverts first."""
    if n < 0:
        return wr_pow(wr_inv(g), -n)
    return _power(wr_mul, WreathElement.identity(g.modulus), g, n)


def wr_eval(word: GeneratorWord | str, modulus: int | None = None) -> WreathElement:
    """Evaluate a word in ``a`` (shift) and ``b`` (lamp at the origin).  Only
    the modulus is checked, as the constructor would: the lamps of a word are
    ints at distinct positions already."""
    lamps, shift = word_lamps(word)
    _require_modulus(modulus)
    return _element(lamps, shift, modulus)


def wr_is_identity(g: WreathElement) -> bool:
    """Word problem in the wreath model: empty support and zero shift."""
    return g.is_identity


def wr_base_relation(
    cvec: Sequence[int] | Iterable[int], modulus: int | None = None
) -> WreathElement:
    """Evaluate ``b_0^{c_0} b_1^{c_1} ...`` for a finite coefficient vector.

    Over Z lamps the result is the identity only for the zero vector, which
    certifies that the conjugates ``b_i`` generate a free abelian group;
    with modulus ``n`` the result is trivial exactly when every entry is
    divisible by ``n``.
    """
    lamps = {i: _int_only(coeff, "coefficient") for i, coeff in enumerate(cvec)}
    _require_modulus(modulus)
    return _element(lamps, 0, modulus)


def element_to_json(element: WreathElement) -> dict:
    """JSON form: decimal-string integers, support keyed by position in
    ascending order, modulus as a bare number or null."""
    return {
        "shift": str(element.shift),
        "support": {str(pos): str(val) for pos, val in element.support},
        "modulus": element.modulus,
    }


def element_from_json(obj: dict) -> WreathElement:
    lamps = {int(pos): int(val) for pos, val in obj["support"].items()}
    return WreathElement.from_support(lamps, int(obj["shift"]), obj["modulus"])
