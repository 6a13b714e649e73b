"""The contracts of the result and data records that callers rely on.

`OrbitCategory.validate` puts orbit morphisms in a set and
`coinvariants_system` keys a dict by them, so they compare and hash by
value; orbit morphisms and Smith forms are immutable; defaults are shared
by no two records.
"""

import pytest

import relhom as R
from relhom import FgAbGroup, GCWCell, IntMatrix, OrbitMorphism
from relhom.pairhom import ComparisonData, DegreeComparison, LESSlot


def test_equal_orbit_morphisms_hash_equal_and_share_a_key(c4, c4_c2):
    full = c4.full_subgroup()
    first = OrbitMorphism(c4_c2, full, 0)
    second = OrbitMorphism(c4.subgroup_generated([2]), c4.full_subgroup(), 0)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert {first: "value"}[second] == "value"
    assert first != OrbitMorphism(c4_c2, full, 1)
    assert first != OrbitMorphism(c4_c2, c4_c2, 0)
    assert len({first, second, OrbitMorphism(c4_c2, full, 1)}) == 2
    assert repr(OrbitMorphism(c4_c2, full, 3)) == "R_3"


def test_orbit_morphism_and_smith_form_are_immutable(c4, c4_c2):
    morphism = OrbitMorphism(c4_c2, c4.full_subgroup(), 0)
    with pytest.raises(AttributeError):
        morphism.rep = 1
    assert morphism.rep == 0
    sf = R.smith_form(IntMatrix([[2, 4], [6, 8]]))
    with pytest.raises(AttributeError):
        sf.u = IntMatrix.identity(2)
    assert sf.invariants == [2, 4]


def test_record_defaults(c2):
    assert GCWCell(c2.full_subgroup()).boundary == ()
    slot = LESSlot("H_1(pair)", True)
    assert slot.detail == ""
    assert (slot.label, slot.exact) == ("H_1(pair)", True)


def test_comparisons_built_without_degrees_do_not_share_a_dict(c2):
    h = c2.trivial_subgroup()
    m = R.GModule.trivial(c2)
    first = ComparisonData(h, m, None, None, [])
    second = ComparisonData(h, m, None, None, [])
    first.degrees[2] = "phi_2"
    assert second.degrees == {}


def test_degree_comparisons_compare_by_value():
    def row(kernel):
        z2 = FgAbGroup.from_invariants([2], 1)
        return DegreeComparison(2, z2, z2, IntMatrix([[1]]), kernel, FgAbGroup.trivial(), True, False)

    assert row(FgAbGroup.trivial()) == row(FgAbGroup.trivial())
    assert row(FgAbGroup.trivial()) != row(FgAbGroup(1))
