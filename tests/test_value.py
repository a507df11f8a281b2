"""Tests for the value classes: equality, hashing, immutability, repr, pickling and validation."""

import copy
import pickle
from fractions import Fraction

import pytest

from zsr.groups import AbelianGroup, Dicyclic, Dihedral, OrderSpectrum, Product
from zsr.lemmas import GridResult, LemmaInstance
from zsr.reciprocity import ReciprocityReport, ScanSummary
from zsr.value import Value, set_field

# A factory for one value of each class, and its repr in the dataclass style.
SAMPLES = [
    (lambda: AbelianGroup((2, 4)), "AbelianGroup(invariant_factors=(2, 4))"),
    (lambda: Dihedral(5), "Dihedral(half_order=5)"),
    (lambda: Dicyclic(3), "Dicyclic(index=3)"),
    (lambda: Product((AbelianGroup((3,)), Dihedral(5))),
     "Product(factors=(AbelianGroup(invariant_factors=(3,)), Dihedral(half_order=5)))"),
    (lambda: OrderSpectrum({2: 1, 1: 1}, 2), "OrderSpectrum(entries={1: 1, 2: 1}, group_order=2)"),
    (lambda: LemmaInstance("L21i", {"m": 2}, False, Fraction(3, 2), 2),
     "LemmaInstance(lemma_id='L21i', parameters={'m': 2}, holds=False, lhs=Fraction(3, 2), rhs=2)"),
    (lambda: GridResult("struct", 3, []), "GridResult(lemma='struct', checked=3, failures=[])"),
    (lambda: ReciprocityReport(Dihedral(5), AbelianGroup((10,)), False, 2, 126, 126, True, False),
     "ReciprocityReport(g=Dihedral(half_order=5), h=AbelianGroup(invariant_factors=(10,)), "
     "spectra_agree=False, witness_divisor=2, count_g_at_h=126, count_h_at_g=126, "
     "counts_agree=True, iff_consistent=False)"),
    (lambda: ScanSummary(1, [], 1, ("abelian",)),
     "ScanSummary(pairs_checked=1, violations=[], max_order=1, families=('abelian',))"),
]
# Classes with a dict or list field, whose values cannot be hashed.
UNHASHABLE = (OrderSpectrum, LemmaInstance, GridResult, ScanSummary)


@pytest.mark.parametrize("make, text", SAMPLES, ids=[text.partition("(")[0] for _, text in SAMPLES])
def test_value_semantics(make, text):
    value, same = make(), make()
    assert value is not same and value == same and not value != same
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    assert repr(value) == text
    # A value of another type with equal fields is not equal.
    twin = object.__new__(type("Twin", (Value,), {"__slots__": type(value).__slots__}))
    for name in type(value).__slots__:
        set_field(twin, name, getattr(value, name))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value != twin and twin != value
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_equality_is_by_exact_type_and_fields():
    assert Dihedral(4) != Dicyclic(4)
    assert AbelianGroup([2, 4]) == AbelianGroup((2, 4)) != AbelianGroup((8,))
    assert Product([Dihedral(3), Dicyclic(2)]) == Product((Dihedral(3), Dicyclic(2)))
    assert Product((Dihedral(3), Dicyclic(2))) != Product((Dicyclic(2), Dihedral(3)))
    assert len({Dihedral(4), Dihedral(4), Dicyclic(4)}) == 2


@pytest.mark.parametrize("build, message", [
    (lambda: AbelianGroup((1,)), "invariant factors must be >= 2, got 1"),
    (lambda: AbelianGroup((6, 2)), "invariant factors must form a divisibility chain, got (6, 2)"),
    (lambda: Dihedral(2), "dihedral descriptor requires k >= 3, got k = 2"),
    (lambda: Dicyclic(1), "dicyclic descriptor requires k >= 2, got k = 1"),
    (lambda: Product((Dihedral(3),)), "a product needs at least two factors"),
    (lambda: Product((AbelianGroup((2,)), AbelianGroup((3,)))),
     "all-abelian products must be normalized via make_product"),
    (lambda: OrderSpectrum({1: 1}, 0), "group order must be positive, got 0"),
    (lambda: OrderSpectrum({1: 1, 2: 1}, 4),
     "spectrum must have an entry for every divisor of the group order"),
    (lambda: OrderSpectrum({1: 0, 2: 2}, 2), "a group has exactly one identity element, got 0"),
    (lambda: OrderSpectrum({1: 1, 2: -1, 4: 4}, 4), "element counts cannot be negative"),
    (lambda: OrderSpectrum({1: 1, 2: 2}, 2), "element counts must sum to the group order"),
    (lambda: GridResult("struct", 3), "GridResult takes 3 fields (lemma, checked, failures), got 2"),
    (lambda: ScanSummary(1, [], 1, ("abelian",), 5),
     "ScanSummary takes 4 fields (pairs_checked, violations, max_order, families), got 5"),
])
def test_constructor_validation_messages(build, message):
    with pytest.raises((TypeError, ValueError)) as exc:
        build()
    assert str(exc.value) == message
    # A wrong number of fields is a TypeError, as for a call; a bad field value a ValueError.
    assert exc.type is (TypeError if " takes " in message else ValueError)
