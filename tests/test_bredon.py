import pytest

import relhom as R
from relhom import GCWCell, GCWData, GModule, IntMatrix
from relhom.errors import BudgetError, ValidationError

from oracles import cellular_chain_modules


@pytest.fixture(scope="module")
def cat_c2(c2):
    fam = R.SubgroupFamily(c2, R.all_subgroups(c2))
    return R.build_orbit_category(c2, fam)


@pytest.fixture(scope="module")
def reflection_circle(c2):
    full = c2.full_subgroup()
    triv = c2.trivial_subgroup()
    return GCWData(
        c2,
        [
            [GCWCell(full), GCWCell(full)],
            [GCWCell(triv, ((1, 0, 1), (0, 0, -1)))],
        ],
    )


def test_orbit_category_c2_counts(c2, cat_c2):
    triv = c2.trivial_subgroup()
    full = c2.full_subgroup()
    assert len(cat_c2.hom(triv, triv)) == 2
    assert len(cat_c2.hom(triv, full)) == 1
    assert len(cat_c2.hom(full, triv)) == 0
    assert len(cat_c2.hom(full, full)) == 1


def test_orbit_category_trivial_family(s3):
    fam = R.SubgroupFamily(s3, [s3.trivial_subgroup()])
    cat = R.build_orbit_category(s3, fam)
    triv = s3.trivial_subgroup()
    assert len(cat.objects) == 1
    # the endomorphisms of the free orbit form the group itself
    assert len(cat.hom(triv, triv)) == s3.order


def test_orbit_category_composition_closure(s3, s3_transposition):
    fam = R.family_generated(s3_transposition)
    cat = R.build_orbit_category(s3, fam)
    cat.validate()  # exhaustive composition check


def test_coinvariants_system_constant(c4, cat_c2, c2):
    triv = GModule.trivial(c2)
    sys_triv = R.coinvariants_system(triv, cat_c2)
    for obj in cat_c2.objects:
        assert str(sys_triv.value_group(obj)) == "Z"
        for tgt in cat_c2.objects:
            for mor in cat_c2.hom(obj, tgt):
                assert sys_triv.matrix(mor) == IntMatrix.identity(1)


def test_coinvariants_system_regular(c2, cat_c2):
    reg = GModule.regular(c2)
    system = R.coinvariants_system(reg, cat_c2)
    assert str(system.value_group(c2.full_subgroup())) == "Z"
    assert str(system.value_group(c2.trivial_subgroup())) == "Z^2"


def test_coinvariants_system_functoriality_c4(c4, c4_c2):
    fam = R.family_generated(c4_c2)
    cat = R.build_orbit_category(c4, fam)
    perm = GModule.permutation(c4_c2)
    R.coinvariants_system(perm, cat)  # validates functoriality exhaustively


def test_gcw_validation_rejects_bad_boundary(c2):
    full = c2.full_subgroup()
    triv = c2.trivial_subgroup()
    with pytest.raises(ValidationError):
        # boundary that does not square to zero formally
        GCWData(
            c2,
            [
                [GCWCell(full)],
                [GCWCell(triv, ((0, 0, 1),))],
                [GCWCell(triv, ((0, 0, 1),))],
            ],
        )


def test_gcw_rejects_stabilizer_outside_family(c4, c4_c2, reflection_circle, c2):
    fam = R.SubgroupFamily(c2, [c2.trivial_subgroup()])
    cat = R.build_orbit_category(c2, fam)
    system = R.constant_system(cat)
    with pytest.raises(ValidationError):
        R.bredon_homology(reflection_circle, system, 0)


def test_reflection_circle_constant(reflection_circle, cat_c2):
    const = R.constant_system(cat_c2)
    assert str(R.bredon_homology(reflection_circle, const, 0)) == "Z"
    assert str(R.bredon_homology(reflection_circle, const, 1)) == "0"


def test_reflection_circle_coinvariants_vs_tensor(reflection_circle, cat_c2, c2):
    for m in (
        GModule.regular(c2),
        GModule.from_action_matrices(
            c2, [IntMatrix([[1]]), IntMatrix([[-1]])], label="sign"
        ),
    ):
        system = R.coinvariants_system(m, cat_c2)
        terms, bounds = cellular_chain_modules(reflection_circle)
        tensored = R.tensor_gmodule_complex(terms, bounds, m)
        for n in range(2):
            assert R.bredon_homology(reflection_circle, system, n) == tensored.homology(n)


def test_takasu_pair_complex_c4c2(c4, c4_c2):
    T = R.takasu_pair_complex(c4_c2, 5)
    fam = R.family_generated(c4_c2)
    cat = R.build_orbit_category(c4, fam)
    const = R.constant_system(cat)
    triv = GModule.trivial(c4)
    for n in (2, 3, 4):
        assert R.bredon_homology(T, const, n) == R.takasu_homology(c4_c2, triv, n)


def test_takasu_pair_complex_full_subgroup(c4):
    T = R.takasu_pair_complex(c4.full_subgroup(), 3)
    fam = R.family_generated(c4.full_subgroup())
    cat = R.build_orbit_category(c4, fam)
    const = R.constant_system(cat)
    # the whole complex collapses to the single fixed orbit
    assert all(len(T.cells[d]) == 0 for d in range(1, 4))
    for n in (1, 2):
        assert R.bredon_homology(T, const, n).is_trivial()


def test_takasu_pair_complex_trivial_subgroup(c2):
    T = R.takasu_pair_complex(c2.trivial_subgroup(), 4)
    fam = R.family_generated(c2.trivial_subgroup())
    cat = R.build_orbit_category(c2, fam)
    const = R.constant_system(cat)
    assert str(R.bredon_homology(T, const, 2)) == "0"
    assert str(R.bredon_homology(T, const, 3)) == "Z/2"


def test_takasu_pair_complex_budget(s3, s3_transposition):
    with pytest.raises(BudgetError):
        R.takasu_pair_complex(s3_transposition, 5)


def test_gcw_json_roundtrip(reflection_circle, c2):
    doc = reflection_circle.to_json()
    back = GCWData.from_json(c2, doc)
    assert back.to_json() == doc
    with pytest.raises(ValidationError):
        GCWData.from_json(c2, {"format_version": 99, "dimensions": []})


def _cells_doc(*dims):
    """A cell-data document; each cell is (stabilizer generators, boundary
    entries as (cell, a, coeff))."""
    return {
        "format_version": 1,
        "dimensions": [
            [
                {
                    "stabilizer": list(stab),
                    "boundary": [{"cell": t, "a": a, "coeff": c} for t, a, c in bdry],
                }
                for stab, bdry in dim
            ]
            for dim in dims
        ],
    }


# On C2: two fixed points, the 0-cells of the reflection circle.
_POINTS = [((1,), ()), ((1,), ())]


@pytest.mark.parametrize(
    "doc,message",
    [
        (_cells_doc([((True,), ())]), "stabilizer generator must be an integer"),
        (_cells_doc([((1.0,), ())]), "stabilizer generator must be an integer"),
        # a generator tuple equal to an earlier one as a key is still checked
        (_cells_doc([((1,), ()), ((True,), ())]), "stabilizer generator must be an integer"),
        (_cells_doc(_POINTS, [((), ((1, 0, 1.0),))]), "boundary coeff must be an integer"),
        (_cells_doc(_POINTS, [((), ((True, 0, 1),))]), "boundary cell must be an integer"),
        (_cells_doc(_POINTS, [((), ((1, False, 1),))]), "boundary a must be an integer"),
        (_cells_doc([((5,), ())]), "generator 5 is not an element of the group"),
        (_cells_doc([((1,), ((0, 0, 1),))]), "0-cells cannot have a boundary"),
        (_cells_doc(_POINTS, [((), ((2, 0, 1),))]), "cell 0 in dimension 1 hits a missing cell"),
        (_cells_doc(_POINTS, [((), ((1, 2, 1),))]), "has a = 2, not an element of the group"),
        (_cells_doc(_POINTS, [((), ((1, -1, 1),))]), "has a = -1, not an element of the group"),
        (
            _cells_doc([((), ())], [((1,), ((0, 0, 1),))]),
            "boundary entry of cell 0 in dimension 1 is not an orbit map",
        ),
        # R_0 - R_1 into a free orbit: the two maps differ, so d^2 != 0
        (
            _cells_doc([((), ())], [((), ((0, 0, 1), (0, 1, -1)))], [((), ((0, 0, 1),))]),
            "formal boundary squared is nonzero on cell 0 in dimension 2",
        ),
    ],
)
def test_gcw_from_json_refusals(c2, doc, message):
    with pytest.raises(ValidationError, match=message):
        GCWData.from_json(c2, doc)


def test_formal_boundary_squared_reads_canonical_representatives(c2):
    # R_0 - R_1 into the fixed orbit G/G: one map, so d^2 = 0
    doc = _cells_doc([((1,), ())], [((), ((0, 0, 1), (0, 1, -1)))], [((), ((0, 0, 1),))])
    assert GCWData.from_json(c2, doc).to_json() == doc


def test_gcw_validate_refuses_a_stabilizer_of_another_group(c2, c4):
    with pytest.raises(ValidationError, match="stabilizer over a different group"):
        GCWData(c2, [[GCWCell(c4.full_subgroup())]])


def test_left_coset_keys_group_as_the_right_coset_minimum(s3, c6):
    """`orbit_form_fault` keys an orbit entry (tgt, a^-1, c) by the left
    coset a^-1 K; the orbit morphism R_a is the right coset K a, named by its
    least element.  Inversion matches the two, so both group alike."""
    from relhom.bredon import _canonical_rep
    from relhom.groups import coset_space

    for group in (s3, c6):
        for k in R.all_subgroups(group):
            left = coset_space(k).coset_of
            for a in group.elements():
                for b in group.elements():
                    same_left = left[group.inverse[a]] == left[group.inverse[b]]
                    assert same_left == (_canonical_rep(k, a) == _canonical_rep(k, b))
