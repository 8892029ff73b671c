"""``solvkit.words.parse_word`` as it stood before it split the text at
each generator letter: one character at a time, left to right, merging
adjacent powers as it goes.  Kept as the test oracle for the parser's
letters, errors and columns.  ``solvkit.words.word_lamps`` likewise, as it
stood before it read the letters an ``a`` and a ``b`` at a time.
"""

from __future__ import annotations

from solvkit.words import GENERATORS, WordParseError


def reference_letters(text: str) -> tuple[tuple[str, int], ...]:
    """The normalized letters of ``text``; raises what the parser raises."""
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
    merged: list[tuple[str, int]] = []
    for gen, exp in pairs:
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
    return tuple(merged)


def reference_word_lamps(word) -> tuple[dict[int, int], int]:
    """Lamp values (zeros kept) and shift of ``word`` in Z wr Z, one letter
    at a time: ``b^e`` after a prefix of shift ``t`` lands at ``shift - t``."""
    lamps, t = {}, 0
    for gen, exp in word.letters:
        if gen == "a":
            t += exp
        else:
            lamps[-t] = lamps.get(-t, 0) + exp
    return {pos + t: val for pos, val in lamps.items()}, t
