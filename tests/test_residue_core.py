"""The residue core against its eager predecessor, and the residue pair
that group elements carry."""

import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
import residue_reference as ref

from solvkit import verify
from solvkit.gcgroup import (
    RESIDUE_BITS_BUDGET,
    STEP_LIMIT,
    GcElement,
    GcSignature,
    gc_eval,
    gc_identity,
    gc_inv,
    gc_is_identity,
    gc_mul,
    gc_pow,
)
from solvkit.gcgroup import _canonical, _element, _lamp_residue, _residue, _shift_add, _times_x_power
from solvkit.linalg import exact_scalar
from solvkit.verify import defining_relator_word, random_signature, random_word
from solvkit.words import GeneratorWord
from solvkit.wreath import word_lamps

# c_s < 0 makes the cancellation of high terms scale by a negative
# coefficient, and c_0 < 0 does the same for the terms below x^0 that
# negative shifts make.
SIGNED = [(2, -3), (-2, 3), (-2, -3), (3, 1, -2), (-3, 0, 5, -2), (-5, 2, 7), (2, 1, 0, -1, -3)]


def signatures(rng, count):
    return [GcSignature(c) for c in SIGNED] + [random_signature(rng, s_max=6) for _ in range(count)]


def random_translation(rng, s):
    return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10))) for _ in range(s))


def random_residues(rng, s):
    """A residue as its canonical pair and as a pair with a common factor and
    possibly a negative denominator, the forms the core passes around."""
    pair = _residue(random_translation(rng, s))
    factor = rng.choice((-6, -2, -1, 2, 3, 5))
    return pair, (tuple(factor * x for x in pair[0]), factor * pair[1])


def random_element(rng, c):
    return GcElement(random_translation(rng, c.s), rng.randint(-40, 40))


def words_with_conjugated_relators(rng, c, count):
    for _ in range(count):
        letters = list(random_word(rng, max_terms=12, max_exponent=5).letters)
        if rng.random() < 0.5:
            k, at = rng.randint(-60, 60), rng.randint(0, len(letters))
            letters[at:at] = [("a", -k), *defining_relator_word(c).letters, ("a", k)]
        yield GeneratorWord.from_letters(letters)


class TestAgainstEagerReference:
    def test_words(self):
        rng = random.Random(1201)
        trivial = 0
        for c in signatures(rng, 30):
            for word in words_with_conjugated_relators(rng, c, 12):
                lamps, shift = word_lamps(word)
                residue, low = _lamp_residue(c, lamps)
                expected, expected_low = ref._lamp_residue(c, lamps)
                assert (_canonical(residue), low) == (expected, expected_low), (c, word)
                moved = ref._times_x_power(c, expected, expected_low)
                assert gc_eval(c, word) == GcElement(tuple(Fraction(x, moved[1]) for x in moved[0]), shift)
                assert gc_is_identity(c, word) == (shift == 0 and not any(expected[0]))
                trivial += not any(expected[0])
        assert trivial >= 20

    def test_shifts_on_both_sides_of_step_limit(self):
        assert STEP_LIMIT < 80
        rng = random.Random(1202)
        for c in signatures(rng, 8):
            for k in range(-80, 81):
                (r0, r), (v0, v) = random_residues(rng, c.s), random_residues(rng, c.s)
                assert _canonical(_times_x_power(c, r, k)) == ref._times_x_power(c, r0, k), (c, k)
                assert _canonical(_shift_add(c, r, k, v)) == ref._shift_add(c, r0, k, v0), (c, k)

    def test_products_inverses_and_powers(self):
        rng = random.Random(1203)
        for c in signatures(rng, 20):
            for _ in range(6):
                g, h = random_element(rng, c), random_element(rng, c)
                expected = ref._shift_add(c, _residue(g.translation), h.shift, _residue(h.translation))
                product = gc_mul(c, g, h)
                assert product._pair == expected
                assert product == GcElement(tuple(Fraction(x, expected[1]) for x in expected[0]), g.shift + h.shift)
                nums, den = ref._times_x_power(c, _residue(g.translation), -g.shift)
                assert gc_inv(c, g)._pair == (tuple(-x for x in nums), den)
                n = rng.randint(-6, 6)
                folded = GcElement((0,) * c.s, 0)
                for _ in range(abs(n)):
                    step = g if n > 0 else gc_inv(c, g)
                    pair = ref._shift_add(c, _residue(folded.translation), step.shift, _residue(step.translation))
                    folded = GcElement(tuple(Fraction(x, pair[1]) for x in pair[0]), folded.shift + step.shift)
                assert gc_pow(c, g, n) == folded, (c, g, n)

    def test_product_edges(self):
        # shift 0 skips the shift, +-STEP_LIMIT is the last one-pass shift and
        # +-(STEP_LIMIT + 1) the first by square-and-multiply; a zero left
        # residue gives the right one's pair
        rng = random.Random(1210)
        edges = [0, STEP_LIMIT, -STEP_LIMIT, STEP_LIMIT + 1, -(STEP_LIMIT + 1)]
        for c in signatures(rng, 10):
            zero = GcElement((0,) * c.s, rng.randint(-5, 5))
            for k in edges:
                h = GcElement(random_translation(rng, c.s), k)
                for g in (random_element(rng, c), zero):
                    expected = ref._shift_add(c, _residue(g.translation), k, _residue(h.translation))
                    product = gc_mul(c, g, h)
                    assert product._pair == expected and product.shift == g.shift + k, (c, g, h)
                    assert product == GcElement(tuple(Fraction(x, expected[1]) for x in expected[0]), g.shift + k)
                assert gc_mul(c, zero, h)._pair == h._pair


class TestResidueBudget:
    # (c, the shifts that answer, the shifts that are refused): the last
    # squared base of x^k has about |k| log2|root| bits, so each edge sits
    # where the next squaring would pass RESIDUE_BITS_BUDGET bits.
    EDGES = [
        ((2, -1), [2**20 - 1], [2**20]),
        ((-2, 3), [2**19 - 1, -(2**19 - 1)], [2**19, -(2**19)]),
        ((1, 3, -2), [2**18 - 1, -(2**19 - 1)], [2**18, -(2**19)]),
    ]

    @pytest.mark.parametrize("coeffs, answered, refused", EDGES, ids=["2,-1", "-2,3", "1,3,-2"])
    def test_edges(self, coeffs, answered, refused):
        assert RESIDUE_BITS_BUDGET == 2**20
        c = GcSignature(coeffs)
        one = ((1,) + (0,) * (c.s - 1), 1)
        for k in answered:
            assert _canonical(_times_x_power(c, one, k)) == ref._times_x_power(c, one, k), k
        for k in refused:
            with pytest.raises(ValueError) as caught:
                _times_x_power(c, one, k)
            assert str(caught.value) == f"x^{k} mod c needs more than 1048576 bits"


class TestElementResidue:
    def test_fields_equality_hash_and_repr(self):
        assert GcElement.__match_args__ == ("translation", "shift")
        rng = random.Random(1204)
        for c in signatures(rng, 10):
            g, h = random_element(rng, c), random_element(rng, c)
            for computed in (gc_mul(c, g, h), gc_inv(c, g), gc_pow(c, g, 3)):
                built = GcElement(computed.translation, computed.shift)
                assert computed == built and hash(computed) == hash(built)
                assert repr(computed) == repr(built)
                assert [type(x) for x in computed.translation] == [type(x) for x in built.translation]
                assert computed._pair == built._pair == _residue(built.translation)

    def test_element_stores_the_canonical_pair_of_any_form(self):
        rng = random.Random(1209)
        for c in signatures(rng, 10):
            for _ in range(5):
                pair, scaled = random_residues(rng, c.s)
                shift = rng.randint(-5, 5)
                element = _element(scaled, shift)
                assert element._pair == pair and element.shift == shift
                assert element == GcElement(tuple(Fraction(x, pair[1]) for x in pair[0]), shift)
        assert _element(((0, 0), -7), 0)._pair == ((0, 0), 1)

    def test_constructor_checks_are_unchanged(self):
        for bad in [(True, 0), (0.5, 1), ("1", 0)]:
            with pytest.raises(TypeError):
                GcElement(bad, 0)
        for shift in (True, 1.0):
            with pytest.raises(TypeError):
                GcElement((1, 2), shift)
        element = GcElement((Fraction(4, 2), Fraction(-3, 6)), 5)
        assert element.translation == (2, Fraction(-1, 2)) and type(element.translation[0]) is int
        assert element._pair == ((4, -1), 2)

    def test_product_does_not_depend_on_a_stored_residue(self):
        rng = random.Random(1205)
        for c in signatures(rng, 10):
            g = gc_mul(c, random_element(rng, c), random_element(rng, c))
            h = gc_inv(c, random_element(rng, c))
            g2, h2 = GcElement(g.translation, g.shift), GcElement(h.translation, h.shift)
            for x, y in [(g, h), (h, g), (g, g)]:
                fresh = gc_mul(c, GcElement(x.translation, x.shift), GcElement(y.translation, y.shift))
                assert gc_mul(c, x, y) == fresh
                assert gc_mul(c, x, y)._pair == fresh._pair
            assert gc_mul(c, g, h2) == gc_mul(c, g2, h) == gc_mul(c, g2, h2)

    def test_translation_is_built_on_first_read(self):
        rng = random.Random(1206)
        for c in signatures(rng, 10):
            g, h = random_element(rng, c), random_element(rng, c)
            products = [gc_mul(c, g, h), gc_inv(c, g), gc_pow(c, g, 3), gc_identity(c)]
            products.append(gc_mul(c, products[0], products[1]))
            products += [gc_eval(c, word) for word in words_with_conjugated_relators(rng, c, 3)]
            for computed in products:
                assert "translation" not in vars(computed)
                assert computed.is_identity == (computed.shift == 0 and not any(computed._pair[0]))
                assert "translation" not in vars(computed)
                built = GcElement(computed.translation, computed.shift)
                assert "translation" in vars(computed) and "translation" not in vars(built)
                assert computed.translation == built.translation
                assert [type(x) for x in computed.translation] == [type(x) for x in built.translation]
        # A built element stores no translation either; read, it is the cleaned scalars.
        for translation in [(Fraction(4, 2), Fraction(-3, 6)), (1, Fraction(1, 3), -2), (Fraction(0, 5),), ()]:
            built = GcElement(translation, 3)
            assert vars(built).keys() == {"shift", "_pair"}
            cleaned = tuple(map(exact_scalar, translation))
            assert built.translation == cleaned and "translation" in vars(built)
            assert [type(x) for x in built.translation] == [type(x) for x in cleaned]

    def test_shift_refusal_names_the_type(self):
        for shift, name in [(1.0, "float"), (True, "bool"), ("1", "str")]:
            with pytest.raises(TypeError, match=f"^shift must be an integer, got {name}$"):
                GcElement((1,), shift)

    def test_equality_and_hash_across_builds(self):
        rng = random.Random(1207)
        for c in signatures(rng, 10):
            g, h = random_element(rng, c), random_element(rng, c)
            computed = gc_mul(c, g, h)
            built = GcElement(computed.translation, computed.shift)
            fresh = gc_mul(c, g, h)  # translation not read yet
            assert fresh == built and built == fresh and hash(fresh) == hash(built)
            moved = GcElement(computed.translation, computed.shift + 1)
            assert fresh != moved and moved != fresh
            nudged = GcElement((computed.translation[0] + Fraction(1, 3),) + computed.translation[1:], computed.shift)
            assert gc_mul(c, g, h) != nudged and nudged != gc_mul(c, g, h)
            for other in (computed.translation, (computed.translation, computed.shift), 0, None):
                assert computed.__eq__(other) is NotImplemented and built.__eq__(other) is NotImplemented
                assert computed != other and built != other

    def test_pickle_and_copy_round_trip(self):
        rng = random.Random(1208)
        for c in signatures(rng, 4):
            g, h = random_element(rng, c), random_element(rng, c)
            read = gc_mul(c, g, h)
            read.translation
            for element in (gc_mul(c, g, h), read, g):
                copies = [copy.copy(element), copy.deepcopy(element)]
                copies += [pickle.loads(pickle.dumps(element, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
                for twin in copies:
                    assert type(twin) is GcElement
                    assert twin == element and hash(twin) == hash(element) and repr(twin) == repr(element)
                    assert twin._pair == element._pair and twin.shift == element.shift

    def test_wrong_length_message_is_unchanged(self):
        c, wide = GcSignature((2, -1)), GcSignature((1, 0, 1))
        message = "element has translation length 2, signature expects 1"
        for element in (GcElement((0, 0), 0), gc_mul(wide, gc_eval(wide, "b a"), gc_eval(wide, "a b"))):
            for operands in [(gc_identity(c), element), (element, gc_identity(c)), (element, element)]:
                with pytest.raises(ValueError) as caught:
                    gc_mul(c, *operands)
                assert str(caught.value) == message
            with pytest.raises(ValueError) as caught:
                gc_inv(c, element)
            assert str(caught.value) == message
        # both operands wrong: the first one's length is reported
        with pytest.raises(ValueError) as caught:
            gc_mul(c, GcElement((0, 0, 0), 0), GcElement((0, 0), 0))
        assert str(caught.value) == "element has translation length 3, signature expects 1"

    def test_harness_checks_only_the_signatures_it_builds(self, monkeypatch):
        # every signature checked during a harness run is one the harness built
        checked = GcSignature.__init__
        callers = []

        def recording(self, coeffs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            checked(self, coeffs)

        monkeypatch.setattr(GcSignature, "__init__", recording)
        verify.run_all(3)
        assert callers and set(callers) == {"solvkit.verify"}
