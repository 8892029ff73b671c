"""Parsing and formatting of words in the two generators ``a`` and ``b``.

Grammar: a word is a sequence of terms, a term is a generator letter with
an optional caret exponent (``a``, ``b^-3``, ``a^0``).  Whitespace
separates terms and is otherwise ignored.  :meth:`GeneratorWord.from_letters`
and :func:`parse_word` normalize: zero exponents vanish and adjacent powers
of the same generator merge, so ``a^2 a^-2 b`` and ``b`` give the same word.
"""

from __future__ import annotations

import re
from typing import Iterable

from ._value import _Value

GENERATORS = ("a", "b")
_TERM = re.compile(r"[ab](?:\^-?\d+)?")
# Only malformed text is scanned, so this pattern is compiled (and cached by
# ``re``) on its first use, not by every process that imports this module.
_SCAN = r"([ab])(?:\^-?(\d*))?|\S"


class WordParseError(ValueError):
    """Malformed word text; ``column`` is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class GeneratorWord(_Value):
    """A normalized word: tuple of (generator, nonzero exponent) pairs."""

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()):
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_letters(cls, pairs: Iterable[tuple[str, int]]) -> "GeneratorWord":
        """Build a word from raw pairs, merging and dropping as needed; every
        exponent must be an ``int`` (``bool`` is refused)."""
        pairs = list(pairs)
        for gen, exp in pairs:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            if isinstance(exp, bool) or not isinstance(exp, int):
                raise TypeError(f"exponent must be an integer, got {type(exp).__name__}")
        return cls(_merge(pairs))

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def concat(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord.from_letters(self.letters + other.letters)

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        return self.concat(other)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_word(self)


def _merge(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Drop zero exponents and merge adjacent powers of checked pairs."""
    merged: list[tuple[str, int]] = []
    for gen, exp in pairs:
        if merged and merged[-1][0] == gen:
            exp += merged.pop()[1]
        if exp:
            merged.append((gen, exp))
    return tuple(merged)


def parse_word(text: str) -> GeneratorWord:
    """Parse word text into a normalized :class:`GeneratorWord`.

    Empty input is the identity.  Raises :class:`WordParseError` with the
    column of the first offending character on malformed input.
    """
    terms = text.replace("a", " a").replace("b", " b").split()
    table = {}
    for term in dict.fromkeys(terms):
        if not _TERM.fullmatch(term):
            raise _first_error(text)
        table[term] = (term[0], int(term[2:]) if len(term) > 1 else 1)
    return GeneratorWord(_merge(map(table.__getitem__, terms)))


def _first_error(text: str) -> WordParseError:
    """The first error in malformed ``text``, read from the left; an exponent
    over Python's digit limit before it raises its ``ValueError`` here."""
    for term in re.finditer(_SCAN, text):
        gen, digits = term.groups()
        if gen is None:
            return WordParseError(f"unknown letter {term[0]!r}", term.start() + 1)
        if digits == "":
            return WordParseError("exponent must have at least one digit", term.end() + 1)
        if digits:
            int(digits)


def word_lamps(word: GeneratorWord) -> tuple[dict[int, int], int]:
    """Lamp values (zeros kept) and shift of the word's image in Z wr Z, in
    one pass: ``b^e`` after a prefix of shift ``t`` lands at ``shift - t``."""
    lamps, t = {}, 0
    for gen, exp in word.letters:
        if gen == "a":
            t += exp
        else:
            lamps[-t] = lamps.get(-t, 0) + exp
    return {pos + t: val for pos, val in lamps.items()}, t


def format_word(word: GeneratorWord) -> str:
    """Render a word so that ``parse_word(format_word(w)) == w``."""
    return " ".join(gen if exp == 1 else f"{gen}^{exp}" for gen, exp in word.letters)
