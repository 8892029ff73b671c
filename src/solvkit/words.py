"""Parsing and formatting of words in the two generators ``a`` and ``b``.

Grammar: a word is a sequence of terms, a term is a generator letter with
an optional caret exponent (``a``, ``b^-3``, ``a^0``).  Whitespace
separates terms and is otherwise ignored.  :class:`GeneratorWord` and
:func:`parse_word` normalize: zero exponents vanish and adjacent powers
of the same generator merge, so ``a^2 a^-2 b`` and ``b`` give the same word.
"""

from __future__ import annotations

import re
from typing import Iterable

from ._value import _int_only, _Value

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
    """A normalized word: tuple of (generator, nonzero exponent) pairs.  It is
    built from raw pairs, merging and dropping as needed; every exponent must
    be an ``int`` (``bool`` is refused)."""

    def __init__(self, letters: Iterable[tuple[str, int]] = ()):
        pairs = []  # fresh tuples, so that no list pair reaches ``letters``
        for gen, exp in list(letters):
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            pairs.append((gen, _int_only(exp, "exponent")))
        self._set(_merge(pairs))

    @classmethod
    def from_letters(cls, pairs: Iterable[tuple[str, int]]) -> "GeneratorWord":
        return cls(pairs)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord._unchecked(tuple((g, -e) for g, e in reversed(self.letters)))

    def concat(self, other: "GeneratorWord") -> "GeneratorWord":
        """The normalized product; the letters of a ``GeneratorWord`` are
        checked already, so only those of any other ``other`` are checked."""
        if isinstance(other, GeneratorWord):
            return GeneratorWord._unchecked(_merge(self.letters + other.letters))
        return GeneratorWord.from_letters(self.letters + other.letters)

    def __mul__(self, other: "GeneratorWord") -> "GeneratorWord":
        return self.concat(other)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_word(self)


def _merge(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Drop zero exponents and merge adjacent powers of checked pairs, in one
    stack pass.  A pair that merges with none is kept as the object it is,
    so every pair must be a tuple; only a merge builds a new one.  ``gen`` is
    the generator on top of the stack (``""`` when it is empty)."""
    merged: list[tuple[str, int]] = []
    gen = ""
    for pair in pairs:
        if pair[0] == gen:
            exp = merged[-1][1] + pair[1]
            if exp:
                merged[-1] = (gen, exp)
            else:
                merged.pop()
                gen = merged[-1][0] if merged else ""
        elif pair[1]:
            merged.append(pair)
            gen = pair[0]
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
    return GeneratorWord._unchecked(_merge(map(table.__getitem__, terms)))


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


def word_lamps(word: GeneratorWord | str) -> tuple[dict[int, int], int]:
    """Lamp values (zeros kept) and shift of the word's image in Z wr Z, in
    one pass: ``b^e`` after a prefix of shift ``t`` lands at ``shift - t``.
    Text is parsed first.  A normalized word alternates its generators, so
    after a leading ``b`` the letters are read an ``a`` and a ``b`` at a
    time; an odd one out is a trailing ``a``."""
    if isinstance(word, str):
        word = parse_word(word)
    letters = word.letters
    lamps, t = {}, 0
    if letters and letters[0][0] == "b":
        lamps[0] = letters[0][1]
        letters = letters[1:]
    pairs = iter(letters)
    for (_, a), (_, b) in zip(pairs, pairs):
        t += a
        lamps[t] = lamps.get(t, 0) + b
    if len(letters) % 2:
        t += letters[-1][1]
    return {t - pos: val for pos, val in lamps.items()}, t


def format_word(word: GeneratorWord) -> str:
    """Render a word so that ``parse_word(format_word(w)) == w``."""
    return " ".join(gen if exp == 1 else f"{gen}^{exp}" for gen, exp in word.letters)
