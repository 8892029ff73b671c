import pytest
from hypothesis import given, settings, strategies as st

from solvkit.words import GeneratorWord, WordParseError, format_word, parse_word


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
