"""The contract of the ten immutable value classes: construction, fields,
equality, hash, repr, immutability, pickling and copying.  The reprs are
pinned to the bytes their earlier ``dataclass`` forms printed."""

import copy
import pickle
from fractions import Fraction

import pytest

from solvkit.gcgroup import (
    GcElement,
    GcSignature,
    IntervalSubgroupReport,
    MembershipResult,
    PowerIndexResult,
    base_membership,
    gc_eval,
    gc_pow,
    interval_subgroup,
    power_subgroup_index,
)
from solvkit.linalg import Matrix, SNFResult, mat_pow, snf
from solvkit.verify import LemmaReport, run_all
from solvkit.words import GeneratorWord, parse_word
from solvkit.wreath import WreathElement, wr_eval, wr_mul, wr_pow

FIELDS = {
    GcSignature: ("coeffs",),
    GcElement: ("translation", "shift"),
    IntervalSubgroupReport: ("generators", "relators", "free_rank", "torsion_factors"),
    MembershipResult: ("witness",),
    PowerIndexResult: ("index",),
    SNFResult: ("smith", "left", "right", "invariant_factors"),
    GeneratorWord: ("letters",),
    WreathElement: ("support", "shift", "modulus"),
    LemmaReport: ("lemma_id", "cases_run", "cases_passed", "first_failure"),
    Matrix: ("entries",),
}

# (value, its repr); each class at least once, computed values among them.
REPRS = [
    (GcSignature((2, -1)), "GcSignature(coeffs=(2, -1))"),
    (GcSignature([3, 0, -7, 5]), "GcSignature(coeffs=(3, 0, -7, 5))"),
    (GcElement((Fraction(1, 2), 3), -1), "GcElement(translation=(Fraction(1, 2), 3), shift=-1)"),
    (gc_eval(GcSignature((3, 1, 2)), "a^-1 b a^2"),
     "GcElement(translation=(Fraction(-3, 2), Fraction(-1, 2)), shift=1)"),
    (IntervalSubgroupReport(5, 3, 2, ()),
     "IntervalSubgroupReport(generators=5, relators=3, free_rank=2, torsion_factors=())"),
    (MembershipResult(((-1, 2), (0, 1))), "MembershipResult(witness=((-1, 2), (0, 1)))"),
    (MembershipResult(None), "MembershipResult(witness=None)"),
    (PowerIndexResult(4), "PowerIndexResult(index=4)"),
    (SNFResult(Matrix([[2, 0]]), Matrix([[1]]), Matrix([[1, 0], [0, 1]]), (2,)),
     "SNFResult(smith=Matrix([[2, 0]]), left=Matrix([[1]]), right=Matrix([[1, 0], [0, 1]]), "
     "invariant_factors=(2,))"),
    (GeneratorWord((("a", -1), ("b", 2))), "GeneratorWord(letters=(('a', -1), ('b', 2)))"),
    (parse_word(""), "GeneratorWord(letters=())"),
    (WreathElement(((2, 4), (0, 1)), 3, 5),
     "WreathElement(support=((0, 1), (2, 4)), shift=3, modulus=5)"),
    (WreathElement(((1, -1),), 0), "WreathElement(support=((1, -1),), shift=0, modulus=None)"),
    (LemmaReport("x", 3, 2, "case 1 failed"),
     "LemmaReport(lemma_id='x', cases_run=3, cases_passed=2, first_failure='case 1 failed')"),
    (LemmaReport("y", 1, 1),
     "LemmaReport(lemma_id='y', cases_run=1, cases_passed=1, first_failure=None)"),
    # one value from each library path that builds one
    (interval_subgroup(GcSignature((2, -1)), 0, 2),
     "IntervalSubgroupReport(generators=3, relators=2, free_rank=1, torsion_factors=())"),
    (base_membership(GcSignature((2, -1)), (3,), 2), "MembershipResult(witness=((0, 3),))"),
    (power_subgroup_index(GcSignature((2, -1)), 3), "PowerIndexResult(index=3)"),
    (snf(Matrix([[2, 4], [6, 8]])),
     "SNFResult(smith=Matrix([[2, 0], [0, 4]]), left=Matrix([[1, 0], [3, -1]]), "
     "right=Matrix([[1, -2], [0, 1]]), invariant_factors=(2, 4))"),
    (parse_word("a b^2"), "GeneratorWord(letters=(('a', 1), ('b', 2)))"),
    (parse_word("a").inverse(), "GeneratorWord(letters=(('a', -1),))"),
    (parse_word("a b").concat(parse_word("b^-1 a")), "GeneratorWord(letters=(('a', 2),))"),
    (wr_eval("a b^-3 a^-1", 5), "WreathElement(support=((-1, 2),), shift=0, modulus=5)"),
    (wr_mul(WreathElement(((0, 2),), 1), WreathElement(((1, -1), (3, 4)), -2)),
     "WreathElement(support=((-2, 2), (1, -1), (3, 4)), shift=-1, modulus=None)"),
    (run_all(0)[0], "LemmaReport(lemma_id='band-matrix-snf-identity-block', cases_run=101, "
     "cases_passed=101, first_failure=None)"),
    (Matrix([[1, 2], [3, 4]]), "Matrix([[1, 2], [3, 4]])"),
    (Matrix([[Fraction(1, 2), 3], [0, -4]]), "Matrix([[Fraction(1, 2), 3], [0, -4]])"),
    (snf(Matrix([[2, 4], [6, 8]])).left, "Matrix([[1, 0], [3, -1]])"),
]
VALUES = [value for value, _ in REPRS]
IDS = [f"{type(value).__name__}-{i}" for i, value in enumerate(VALUES)]


def fields_of(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def test_every_class_is_covered():
    assert {type(value) for value in VALUES} == set(FIELDS)


@pytest.mark.parametrize("cls, names", FIELDS.items(), ids=[c.__name__ for c in FIELDS])
def test_match_args_are_the_fields(cls, names):
    assert cls.__match_args__ == names


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_constructors_by_position_and_keyword(value):
    cls, fields = type(value), fields_of(value)
    assert cls(*fields) == value
    assert cls(**dict(zip(FIELDS[cls], fields))) == value
    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, no_such_field=1)


@pytest.mark.parametrize("cls", FIELDS, ids=[c.__name__ for c in FIELDS])
def test_builders_take_exactly_the_stored_values(cls):
    # _set and _unchecked are generated per class with one parameter per
    # _stored name, so a value is never built or stored with one missing or
    # one dropped.
    value = next(v for v in VALUES if type(v) is cls)
    stored = tuple(getattr(value, name) for name in cls._stored)
    built = cls._unchecked(*stored)
    assert type(built) is cls and built == value and repr(built) == repr(value)
    assert tuple(vars(built)) == cls._stored
    for wrong in (stored[:-1], (*stored, None)):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\._unchecked\(\) "):
            cls._unchecked(*wrong)
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\._set\(\) "):
            built._set(*wrong)
    assert built == value and tuple(vars(built)) == cls._stored


def test_defaults():
    assert GeneratorWord() == GeneratorWord(()) == GeneratorWord(letters=())
    assert WreathElement(((0, 1),), 2) == WreathElement(support=((0, 1),), shift=2, modulus=None)
    assert LemmaReport("a", 1, 1) == LemmaReport(lemma_id="a", cases_run=1, cases_passed=1,
                                                 first_failure=None)
    for cls in (GcSignature, GcElement, IntervalSubgroupReport, MembershipResult,
                PowerIndexResult, SNFResult, WreathElement, LemmaReport):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_and_hash(value):
    fields = fields_of(value)
    twin = type(value)(*fields)
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    for other in (fields, object(), None):
        assert value.__eq__(other) is NotImplemented
        assert value != other
    assert all(value != other for other in VALUES if other is not value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_immutable(value):
    before = fields_of(value)
    for name in (*FIELDS[type(value)], "new_name"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields_of(value) == before and not hasattr(value, "new_name")


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_pickle_and_copy(value, text):
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(twin) is type(value) and twin == value and repr(twin) == text
        assert hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[type(value)][0], None)


def test_matrix_shape_and_entries_cannot_change():
    m = Matrix([[1, 2], [3, 4]])
    found, result = {m}, snf(m)
    for matrix in (m, result.smith):
        for name in ("rows", "cols", "entries"):
            with pytest.raises(AttributeError):
                setattr(matrix, name, 0)
            with pytest.raises(AttributeError):
                delattr(matrix, name)
    assert (m.rows, m.cols, m.entries) == (2, 2, ((1, 2), (3, 4)))
    assert result.smith == Matrix([[1, 0], [0, 2]]) and result.smith.rows == 2
    assert m in found and Matrix([[1, 2], [3, 4]]) in found


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="gcd 1"):
        GcSignature((2, 4))
    with pytest.raises(TypeError):
        GcElement((0.5,), 0)
    with pytest.raises(ValueError, match="distinct"):
        WreathElement(((0, 1), (0, 2)), 0)
    with pytest.raises(ValueError, match="cannot exceed"):
        LemmaReport("x", 1, 2)


def test_structural_pattern_matching():
    match gc_eval(GcSignature((2, -1)), "a^-1 b a^2"):
        case GcElement(translation, shift):
            pass
    assert (translation, shift) == ((4,), 1)


def test_powers_check_their_arguments_before_they_loop():
    c, g = GcSignature((2, -1)), GcElement((1,), 1)
    powers = [lambda n: gc_pow(c, g, n), lambda n: wr_pow(WreathElement(((0, 1),), 1), n),
              lambda n: mat_pow(Matrix([[1, 1], [0, 1]]), n)]
    for n, name in [(1.5, "float"), (2.0, "float"), (Fraction(2), "Fraction"), (True, "bool")]:
        for power in powers:
            with pytest.raises(TypeError, match=f"^exponent must be an integer, got {name}$"):
                power(n)
    # an element of another signature is refused for every exponent, 0 included
    for n in (0, 1, 2, -1):
        with pytest.raises(ValueError, match="^element has translation length 2, signature expects 1$"):
            gc_pow(c, GcElement((1, 2), 0), n)
