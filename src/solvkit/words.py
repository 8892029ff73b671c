"""Parsing and formatting of words in the two generators ``a`` and ``b``.

Grammar: a word is a sequence of terms, a term is a generator letter with
an optional caret exponent (``a``, ``b^-3``, ``a^0``).  Whitespace
separates terms and is otherwise ignored.  Words normalize on
construction: zero exponents vanish and adjacent powers of the same
generator merge, so ``a^2 a^-2 b`` and ``b`` are the same word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

GENERATORS = ("a", "b")


class WordParseError(ValueError):
    """Malformed word text; ``column`` is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


@dataclass(frozen=True)
class GeneratorWord:
    """A normalized word: tuple of (generator, nonzero exponent) pairs."""

    letters: tuple[tuple[str, int], ...] = ()

    @classmethod
    def from_letters(cls, pairs: Iterable[tuple[str, int]]) -> "GeneratorWord":
        """Build a word from raw pairs, merging and dropping as needed."""
        merged: list[tuple[str, int]] = []
        for gen, exp in pairs:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                continue
            if merged and merged[-1][0] == gen:
                combined = merged[-1][1] + exp
                if combined == 0:
                    merged.pop()
                else:
                    merged[-1] = (gen, combined)
            else:
                merged.append((gen, exp))
        return cls(tuple(merged))

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


def parse_word(text: str) -> GeneratorWord:
    """Parse word text into a normalized :class:`GeneratorWord`.

    Empty input is the identity.  Raises :class:`WordParseError` with the
    column of the first offending character on malformed input.
    """
    pairs: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch not in GENERATORS:
            raise WordParseError(f"unknown letter {ch!r}", i + 1)
        gen = ch
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            sign = 1
            if i < n and text[i] == "-":
                sign = -1
                i += 1
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            if i == start:
                raise WordParseError("exponent must have at least one digit", i + 1)
            exp = sign * int(text[start:i])
        pairs.append((gen, exp))
    return GeneratorWord.from_letters(pairs)


def format_word(word: GeneratorWord) -> str:
    """Render a word so that ``parse_word(format_word(w)) == w``."""
    parts = []
    for gen, exp in word.letters:
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(parts)
