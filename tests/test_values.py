"""The contract of the nine immutable value classes: construction, fields,
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
    gc_eval,
)
from solvkit.linalg import Matrix, SNFResult
from solvkit.verify import LemmaReport
from solvkit.words import GeneratorWord, parse_word
from solvkit.wreath import WreathElement

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
    # a Matrix has __slots__, which pickle protocols 0 and 1 cannot save
    lowest = 2 if isinstance(value, SNFResult) else 0
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(lowest, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.copy(value), copy.deepcopy(value)]:
        assert type(twin) is type(value) and twin == value and repr(twin) == text
        assert hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[type(value)][0], None)


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
