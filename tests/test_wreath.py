import random

import pytest
from hypothesis import given, settings, strategies as st

from solvkit.words import GeneratorWord, word_lamps
from solvkit.wreath import (
    WreathElement,
    element_from_json,
    element_to_json,
    wr_base_relation,
    wr_eval,
    wr_inv,
    wr_is_identity,
    wr_mul,
    wr_pow,
)

lamp_maps = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
)
shifts = st.integers(min_value=-5, max_value=5)


def elements(modulus=None):
    return st.builds(
        lambda lamps, shift: WreathElement.from_support(lamps, shift, modulus),
        lamp_maps,
        shifts,
    )


class TestConstruction:
    def test_zero_values_dropped(self):
        g = WreathElement.from_support({0: 0, 1: 3}, 0)
        assert g.support == ((1, 3),)

    def test_modulus_reduction(self):
        g = WreathElement.from_support({0: 5, 1: -1, 2: 4}, 0, modulus=2)
        assert g.support == ((0, 1), (1, 1))

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            WreathElement.from_support({}, 0, modulus=1)

    def test_support_sorted(self):
        g = WreathElement.from_support({3: 1, -2: 1, 0: 4}, 1)
        assert g.positions == (-2, 0, 3)

    def test_modulus_must_be_an_integer(self):
        for modulus in (2.5, 3.0, True, "3"):
            with pytest.raises(TypeError, match="modulus must be an integer"):
                WreathElement.from_support({0: 3}, 0, modulus)
        assert WreathElement.from_support({0: 3}, 0, 2).support == ((0, 1),)

    def test_every_position_is_checked_before_the_sort(self):
        # zero-valued lamps are dropped, but their positions are still checked
        for lamps in ({0: 1, "a": 1}, {"a": 1, 0: 1}, {1.5: 0}, {0: 1, None: 0}, {(0,): 2}):
            with pytest.raises(TypeError, match="lamp position must be an integer"):
                WreathElement.from_support(lamps, 0)
        with pytest.raises(TypeError, match="lamp position must be an integer"):
            WreathElement(((0, 1), ("a", 0)), 0, 3)

    def test_repeated_position_is_refused(self):
        for support in (((0, 1), (0, 2)), ((3, 1), (-1, 4), (3, 1)), ((2, 0), (2, 0))):
            with pytest.raises(ValueError, match="lamp positions must be distinct"):
                WreathElement(support, 0)
        assert WreathElement(((0, 1), (1, 2)), 0).support == ((0, 1), (1, 2))


class TestMultiplication:
    def test_identity_neutral(self):
        g = WreathElement.from_support({0: 1, 2: -3}, 4)
        e = WreathElement.identity()
        assert wr_mul(e, g) == g
        assert wr_mul(g, e) == g

    def test_lamp_addition(self):
        b = wr_eval("b")
        assert wr_mul(b, b).support == ((0, 2),)

    def test_mod_two_involution(self):
        b = wr_eval("b", modulus=2)
        assert wr_mul(b, b).is_identity

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            wr_mul(wr_eval("b"), wr_eval("b", modulus=2))

    def test_products_equal_the_checked_construction(self):
        # wr_mul and wr_inv skip __post_init__; their results must equal, hash
        # and print as the element from_support builds from the same lamps
        rng = random.Random(23)
        for _ in range(300):
            modulus = rng.choice([None, 2, 3, 7])
            g, h = (
                WreathElement.from_support(
                    {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))},
                    rng.randint(-4, 4),
                    modulus,
                )
                for _ in range(2)
            )
            lamps = {pos + h.shift: val for pos, val in g.support}
            for pos, val in h.support:
                lamps[pos] = lamps.get(pos, 0) + val
            for built, expected in [
                (wr_mul(g, h), WreathElement.from_support(lamps, g.shift + h.shift, modulus)),
                (wr_inv(g), WreathElement.from_support(
                    {pos - g.shift: -val for pos, val in g.support}, -g.shift, modulus)),
            ]:
                assert built == expected and hash(built) == hash(expected)
                assert repr(built) == repr(expected)
                assert built.positions == tuple(sorted(built.positions))
                assert all(val != 0 for _, val in built.support)
                if modulus is not None:
                    assert all(0 < val < modulus for _, val in built.support)

    def test_products_cancel_and_reduce(self):
        g = WreathElement.from_support({0: 3, 1: 1}, 2, modulus=5)
        h = WreathElement.from_support({2: 2, 3: 4, -1: 1, 5: 8}, 2, modulus=5)
        product = wr_mul(g, h)
        assert product.support == ((-1, 1), (5, 3)) and product.shift == 4
        assert wr_mul(g, wr_inv(g)) == WreathElement.identity(5)
        assert wr_inv(WreathElement.from_support({1: -2}, 3)).support == ((-2, 2),)

    def test_wr_pow_matches_iteration(self):
        for modulus in (None, 5):
            g = WreathElement.from_support({-1: 2, 3: -1}, 2, modulus)
            for n in range(-6, 7):
                step, expected = g if n >= 0 else wr_inv(g), WreathElement.identity(modulus)
                for _ in range(abs(n)):
                    expected = wr_mul(expected, step)
                assert wr_pow(g, n) == expected, (modulus, n)

    def test_modulus_mismatch_is_refused_before_the_product(self):
        for left, right in [(None, 2), (2, None), (3, 5)]:
            with pytest.raises(ValueError, match=f"modulus mismatch: {left} vs {right}"):
                wr_mul(WreathElement.identity(left), WreathElement.identity(right))


class TestEvaluation:
    def test_pure_shift(self):
        g = wr_eval("a^3")
        assert g.support == () and g.shift == 3

    def test_conjugate_lands_on_position(self):
        g = wr_eval("a^-2 b a^2")
        assert g.support == ((2, 1),) and g.shift == 0

    def test_conjugate_general(self):
        for i in range(-5, 6):
            word = GeneratorWord.from_letters([("a", -i), ("b", 1), ("a", i)])
            assert wr_eval(word).support == ((i, 1),)

    def test_mixed_word(self):
        g = wr_eval("b a b a^-1")
        assert g.support == ((-1, 1), (0, 1)) and g.shift == 0
        assert g == wr_mul(wr_eval("b"), wr_eval("a b a^-1"))

    def test_homomorphism_random(self):
        rng = random.Random(5)
        for _ in range(100):
            pairs1 = [(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(5)]
            pairs2 = [(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(5)]
            u = GeneratorWord.from_letters(pairs1)
            v = GeneratorWord.from_letters(pairs2)
            modulus = rng.choice([None, 2, 3, 5])
            assert wr_eval(u.concat(v), modulus) == wr_mul(
                wr_eval(u, modulus), wr_eval(v, modulus)
            )


    @pytest.mark.parametrize(
        "modulus, error, message",
        [(0, ValueError, "modulus must be at least 2 (or None for Z lamps)"),
         (1, ValueError, "modulus must be at least 2 (or None for Z lamps)"),
         (-2, ValueError, "modulus must be at least 2 (or None for Z lamps)"),
         (True, TypeError, "modulus must be an integer, got bool"),
         (2.5, TypeError, "modulus must be an integer, got float"),
         ("3", TypeError, "modulus must be an integer, got str")],
    )
    def test_bad_modulus_raises_as_the_constructor_does(self, modulus, error, message):
        # wr_eval builds its element unchecked, after checking the modulus alone
        with pytest.raises(error) as built:
            WreathElement.from_support({0: 1}, 0, modulus)
        assert type(built.value) is error and str(built.value) == message
        word = GeneratorWord.from_letters([("a", -1), ("b", 2), ("a", 1)])
        for given_word in ("a^-1 b^2 a", word, "", GeneratorWord()):
            with pytest.raises(error) as evaluated:
                wr_eval(given_word, modulus)
            assert type(evaluated.value) is error and str(evaluated.value) == message


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from("ab"), st.integers(min_value=-20, max_value=20)),
             max_size=16),
    st.sampled_from([None, 2, 3, 7, 10**20]),
)
def test_eval_is_the_checked_build_of_the_word_lamps(pairs, modulus):
    word = GeneratorWord.from_letters(pairs)
    element = WreathElement.from_support(*word_lamps(word), modulus)
    assert wr_eval(word, modulus) == element
    assert wr_eval(str(word), modulus) == element


class TestWordProblem:
    def test_identity(self):
        assert wr_is_identity(WreathElement.identity())
        assert wr_is_identity(wr_eval(""))

    def test_commutators_trivial(self):
        for i in range(-5, 6):
            word = GeneratorWord.from_letters(
                [
                    ("b", -1),
                    ("a", -i),
                    ("b", -1),
                    ("a", i),
                    ("b", 1),
                    ("a", -i),
                    ("b", 1),
                    ("a", i),
                ]
            )
            assert wr_is_identity(wr_eval(word))
            assert wr_is_identity(wr_eval(word, modulus=3))

    def test_mod_three_powers_of_b(self):
        assert wr_is_identity(wr_eval("b b b", modulus=3))
        assert not wr_is_identity(wr_eval("b b", modulus=3))


class TestBaseRelation:
    def test_zero_vector(self):
        assert wr_base_relation((0, 0, 0)).is_identity

    def test_nonzero_over_z(self):
        g = wr_base_relation((2, -1))
        assert g.support == ((0, 2), (1, -1))
        assert not g.is_identity

    def test_mod_two_collapse(self):
        assert wr_base_relation((2, 0), modulus=2).is_identity

    def test_freeness_over_z(self):
        rng = random.Random(9)
        for _ in range(200):
            cvec = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            assert wr_base_relation(cvec).is_identity == all(x == 0 for x in cvec)


class TestTorsion:
    def test_infinite_order_over_z(self):
        rng = random.Random(13)
        for _ in range(60):
            lamps = {
                rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))
            }
            g = WreathElement.from_support(lamps, rng.randint(-3, 3))
            if g.is_identity:
                continue
            power = g
            for _ in range(20):
                assert not power.is_identity
                power = wr_mul(power, g)

    def test_exponent_law_mod_n(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 7)
            lamps = {
                rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))
            }
            g = WreathElement.from_support(lamps, 0, modulus=n)
            assert wr_pow(g, n).is_identity

    def test_long_power_by_squaring(self):
        # n = 20000 folded one factor at a time rebuilds the support n times
        expected = WreathElement.from_support({j: 1 for j in range(20000)}, 20000)
        assert wr_pow(wr_eval("a b"), 20000) == expected

    def test_power_matches_iteration(self):
        rng = random.Random(19)
        for _ in range(40):
            lamps = {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(3)}
            g = WreathElement.from_support(lamps, rng.randint(-3, 3), rng.choice((None, 5)))
            n = rng.randint(-9, 9)
            step = g if n >= 0 else wr_inv(g)
            folded = WreathElement.identity(g.modulus)
            for _ in range(abs(n)):
                folded = wr_mul(folded, step)
            assert wr_pow(g, n) == folded


class TestConjugationShift:
    def test_support_shifts_by_k(self):
        rng = random.Random(19)
        for _ in range(60):
            lamps = {
                rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))
            }
            g = WreathElement.from_support(lamps, 0)
            k = rng.randint(-5, 5)
            conjugated = wr_mul(
                wr_mul(wr_eval(GeneratorWord.from_letters([("a", -k)])), g),
                wr_eval(GeneratorWord.from_letters([("a", k)])),
            )
            assert conjugated.positions == tuple(p + k for p in g.positions)
            assert conjugated.support_dict() == {
                p + k: v for p, v in g.support_dict().items()
            }


@given(elements(), elements(), elements())
def test_associativity(x, y, z):
    assert wr_mul(wr_mul(x, y), z) == wr_mul(x, wr_mul(y, z))


@given(elements(modulus=4), elements(modulus=4), elements(modulus=4))
def test_associativity_mod(x, y, z):
    assert wr_mul(wr_mul(x, y), z) == wr_mul(x, wr_mul(y, z))


@given(elements())
def test_inverse_law(x):
    assert wr_mul(x, wr_inv(x)).is_identity
    assert wr_mul(wr_inv(x), x).is_identity


class TestElementJson:
    def test_roundtrip_plain(self):
        g = WreathElement.from_support({-1: 2, 3: -4}, 5)
        obj = element_to_json(g)
        assert obj == {
            "shift": "5",
            "support": {"-1": "2", "3": "-4"},
            "modulus": None,
        }
        assert element_from_json(obj) == g

    def test_roundtrip_modular(self):
        g = WreathElement.from_support({0: 7}, -2, modulus=3)
        obj = element_to_json(g)
        assert obj == {"shift": "-2", "support": {"0": "1"}, "modulus": 3}
        assert element_from_json(obj) == g
