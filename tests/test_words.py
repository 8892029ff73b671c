import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from solvkit.words import GeneratorWord, WordParseError, format_word, parse_word, word_lamps
from word_reference import reference_letters, reference_word_lamps

SRC = Path(__file__).resolve().parent.parent / "src"
HUGE = "7" * 4301  # one digit over Python's default limit for int(str)


class TestParse:
    def test_basic(self):
        assert parse_word("a^2 b^-1").letters == (("a", 2), ("b", -1))

    def test_empty_is_identity(self):
        assert parse_word("").is_empty
        assert parse_word("   ").is_empty

    def test_unknown_letter_column(self):
        with pytest.raises(WordParseError) as info:
            parse_word("c")
        assert info.value.column == 1

    def test_unknown_letter_later(self):
        with pytest.raises(WordParseError) as info:
            parse_word("a q")
        assert info.value.column == 3

    def test_missing_exponent_digits(self):
        with pytest.raises(WordParseError) as info:
            parse_word("a^")
        assert info.value.column == 3
        with pytest.raises(WordParseError) as info:
            parse_word("a^-")
        assert info.value.column == 4

    def test_zero_exponent_normalizes_away(self):
        assert parse_word("a^0 b").letters == (("b", 1),)

    def test_no_whitespace_needed(self):
        assert parse_word("a^2b^-1").letters == (("a", 2), ("b", -1))

    def test_multidigit_exponents(self):
        assert parse_word("a^12 b^-34").letters == (("a", 12), ("b", -34))

    def test_exponent_digits_are_decimal_digits(self):
        # '²' is a digit to str.isdigit, but int() rejects it
        for text, column in [("b^²", 3), ("b^1²", 4)]:
            with pytest.raises(WordParseError) as info:
                parse_word(text)
            assert info.value.column == column
        assert parse_word("b^-٣").letters == (("b", -3),)

    def test_adjacent_merge_and_cascade(self):
        assert parse_word("a a").letters == (("a", 2),)
        assert parse_word("a b b^-1 a").letters == (("a", 2),)
        assert parse_word("a a^-1").is_empty


class TestWordAlgebra:
    def test_inverse(self):
        w = parse_word("a^2 b^-1")
        assert w.inverse().letters == (("b", 1), ("a", -2))
        assert w.concat(w.inverse()).is_empty

    def test_concat_normalizes(self):
        assert parse_word("a").concat(parse_word("a^-1 b")).letters == (("b", 1),)

    def test_from_letters_rejects_unknown(self):
        with pytest.raises(ValueError):
            GeneratorWord.from_letters([("x", 1)])

    def test_from_letters_takes_only_int_exponents(self):
        for exp, name in [(1.5, "float"), (2.0, "float"), ("1", "str"), (True, "bool"),
                          (False, "bool"), (None, "NoneType")]:
            with pytest.raises(TypeError, match=f"exponent must be an integer, got {name}$"):
                GeneratorWord.from_letters([("a", exp), ("b", 1)])
            with pytest.raises(TypeError, match="exponent must be an integer"):
                GeneratorWord.from_letters([("b", 1), ("a", 0), ("a", exp)])
        assert GeneratorWord.from_letters([["a", 2], ("b", 0), ("a", -1)]).letters == (("a", 1),)

    def test_constructor_checks_and_normalizes(self):
        # GeneratorWord(letters) is GeneratorWord.from_letters(letters)
        with pytest.raises(ValueError, match="unknown generator 'x'"):
            GeneratorWord((("x", 1),))
        with pytest.raises(TypeError, match="exponent must be an integer, got float$"):
            GeneratorWord((("b", 1.5),))
        assert GeneratorWord((("a", 1), ("a", 1))) == GeneratorWord((("a", 2),))
        word = GeneratorWord([["a", 2], ("b", 0), ("a", -1)])
        assert word.letters == (("a", 1),) and hash(word) == hash(parse_word("a"))
        assert GeneratorWord() == GeneratorWord([("b", 0)]) == parse_word("")

    def test_parse_and_inverse_skip_the_constructor(self, monkeypatch):
        def refuse(self, letters=()):
            raise AssertionError("constructor called")

        monkeypatch.setattr(GeneratorWord, "__init__", refuse)
        word = parse_word("a^2 b^-1 a a^-1")
        assert word.letters == (("a", 2), ("b", -1))
        assert word.inverse().letters == (("b", 1), ("a", -2))


def _outcome(parse, text):
    try:
        return "word", parse(text)
    except WordParseError as exc:
        return "WordParseError", str(exc), exc.column
    except ValueError as exc:
        return "ValueError", str(exc)


def _random_text(rng: random.Random) -> str:
    """Terms, stray characters and separators in any order, often with no
    space between them."""
    digits = "0123456789" * 3 + "٣０𝟗²"
    spaces = " \t\n\x1c\x85\xa0\u3000"
    pieces = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.5:
            exponent = "".join(rng.choice(digits) for _ in range(rng.choice([0, 1, 1, 2, 3])))
            caret = rng.choice(["", "^", "^", "^-"])
            pieces.append(rng.choice("ab") + (caret + exponent if caret else ""))
        elif kind < 0.75:
            pieces.append(rng.choice(spaces))
        elif kind < 0.97:
            pieces.append(rng.choice("ab^-x" + digits + spaces))
        else:
            pieces.append(rng.choice("ab") + "^" + rng.choice(["", "-"]) + HUGE)
    return "".join(pieces)


def test_parse_matches_the_character_loop():
    rng = random.Random(1515)
    texts = [_random_text(rng) for _ in range(20000)]
    texts += [f"a^{HUGE} x", f"x a^{HUGE}", f"a^-{HUGE}b^", f"b^ a^{HUGE}", f"a^{HUGE}x",
              f"b a^{HUGE} a^{HUGE}", f"a^2 a^{HUGE[:4300]} b^-{HUGE[:4300]}"]
    outcomes = set()
    for text in texts:
        new = _outcome(lambda t: parse_word(t).letters, text)
        assert new == _outcome(reference_letters, text), repr(text[:80])
        outcomes.add(new[0])
    assert outcomes == {"word", "WordParseError", "ValueError"}


def test_first_error_is_the_leftmost_for_every_hash_seed():
    # Distinct terms are taken in order of first appearance, so which error
    # wins does not depend on string hashing.
    script = (
        "from solvkit.words import parse_word\n"
        "for text in ['a^' + '7' * 4301 + ' x', 'x a^' + '7' * 4301, 'b^² a^' + '7' * 4301]:\n"
        "    try:\n"
        "        parse_word(text)\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__, str(exc)[:40])\n"
    )
    expected = (
        "ValueError Exceeds the limit (4300 digits) for inte\n"
        "WordParseError unknown letter 'x' (column 1)\n"
        "WordParseError exponent must have at least one digit (c\n"
    )
    for hash_seed in ("0", "1", "2", "3", "4", "5"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == expected


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(min_value=-40, max_value=40)),
        max_size=12,
    )
)
def test_format_parse_roundtrip(pairs):
    word = GeneratorWord.from_letters(pairs)
    assert parse_word(format_word(word)) == word


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.integers(min_value=-9, max_value=9)),
        max_size=10,
    )
)
def test_normalization_no_zero_or_adjacent(pairs):
    word = GeneratorWord.from_letters(pairs)
    assert all(exp != 0 for _, exp in word.letters)
    assert all(
        word.letters[i][0] != word.letters[i + 1][0]
        for i in range(len(word.letters) - 1)
    )


letter_lists = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(min_value=-3, max_value=3)), max_size=24
)


@settings(derandomize=True, max_examples=300)
@given(letter_lists, letter_lists)
@example([], [])
@example([("b", 2), ("a", 1), ("b", -1), ("a", 3)], [("a", -3), ("b", 1), ("b", 0)])
@example([("a", 1), ("b", 1), ("b", -1), ("a", -1), ("b", 4)], [("b", 1), ("b", -1)])
def test_words_alternate_and_their_lamps_match_the_letter_loop(pairs, more):
    # word_lamps reads an ``a`` and a ``b`` at a time, which is right only
    # because every word alternates its generators and has no zero exponent.
    u = GeneratorWord.from_letters(pairs)
    v = parse_word(" ".join(f"{gen}^{exp}" for gen, exp in more))
    assert GeneratorWord.from_letters([list(pair) for pair in pairs]) == u
    for word in (u, v, u.inverse(), v.inverse(), u.concat(v), v.concat(u), u * u.inverse()):
        assert all(type(pair) is tuple and pair[1] != 0 for pair in word.letters)
        gens = [gen for gen, _ in word.letters]
        assert all(x != y for x, y in zip(gens, gens[1:]))
        assert word_lamps(word) == reference_word_lamps(word)
