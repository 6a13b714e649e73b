import re

import pytest

import relhom as R
from relhom.errors import ValidationError


def test_cyclic_table(c4):
    assert c4.order == 4
    assert c4.mult(1, 1) == 2
    assert c4.identity == 0
    assert c4.inv(1) == 3


def test_symmetric_order(s3):
    assert s3.order == 6
    assert not s3.is_abelian


def test_klein_four(v4):
    assert v4.order == 4
    assert all(v4.inv(g) == g for g in v4.elements())


def test_dihedral():
    d4 = R.dihedral_group(4)
    assert d4.order == 8
    assert not d4.is_abelian
    # r has order 4, s has order 2, s r s = r^-1
    assert d4.element_order(1) == 4
    s = 4  # index n*1 + 0
    assert d4.element_order(s) == 2
    assert d4.mult(s, d4.mult(1, s)) == d4.inv(1)


def test_bad_table_rejected():
    with pytest.raises(ValidationError):
        R.FiniteGroup([[0, 1], [1, 1]])  # not a group
    with pytest.raises(ValidationError):
        R.FiniteGroup([[1, 0], [0, 1]])  # identity not at 0


def test_from_permutations_errors():
    with pytest.raises(ValidationError):
        R.group_from_permutations([[0, 0, 1]])
    with pytest.raises(ValidationError):
        R.group_from_permutations([[0, 1, 3]], degree=3)


def test_from_permutations_a4():
    a4 = R.group_from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]])
    assert a4.order == 12


def test_subgroup_generated(c4, s3):
    assert c4.subgroup_generated([2]).elements == (0, 2)
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    assert s3.subgroup_generated([t]).order == 2
    assert c4.subgroup_generated([]).elements == (0,)


def test_conjugate_subgroup_s3(s3):
    # brute-force oracle: conjugate each element
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    h = s3.subgroup_generated([t])
    r = next(g for g in s3.elements() if s3.element_order(g) == 3)
    conj = h.conjugate(r)
    expected = {s3.conjugate(r, x) for x in h.elements}
    assert set(conj.elements) == expected
    assert conj != h  # transposition subgroups are not normal


def test_conjugate_abelian(c4, c4_c2):
    for g in c4.elements():
        assert c4_c2.conjugate(g) == c4_c2


def test_intersect_transpositions(s3):
    trans = [g for g in s3.elements() if s3.element_order(g) == 2]
    h1 = s3.subgroup_generated([trans[0]])
    h2 = s3.subgroup_generated([trans[1]])
    assert h1.intersect(h2).elements == (0,)


def test_intersect_parent_mismatch(c4, s3):
    with pytest.raises(ValidationError):
        c4.subgroup_generated([2]).intersect(s3.trivial_subgroup())


def test_malnormal(s3, c4, c4_c2, s3_transposition):
    assert R.is_malnormal(s3_transposition)
    assert not R.is_malnormal(c4_c2)
    assert R.is_malnormal(s3.full_subgroup())  # vacuous
    assert R.is_malnormal(c4.full_subgroup())


def test_all_subgroups_s3(s3):
    orders = sorted(h.order for h in R.all_subgroups(s3))
    assert orders == [1, 2, 2, 2, 3, 6]


def test_family_generated(c4, c4_c2, s3, s3_transposition):
    fam = R.family_generated(c4_c2)
    assert {h.elements for h in fam.members} == {(0,), (0, 2)}
    triv_fam = R.family_generated(c4.trivial_subgroup())
    assert len(triv_fam) == 1
    fam_s3 = R.family_generated(s3_transposition)
    assert sorted(h.order for h in fam_s3.members) == [1, 2, 2, 2]


def test_family_validation(c4):
    # a non-closed family is rejected
    h = c4.subgroup_generated([2])
    with pytest.raises(ValidationError):
        R.SubgroupFamily(c4, [h])  # missing trivial subgroup


def test_family_gh(c4_c2, s3_transposition):
    gh = R.family_gh(s3_transposition)
    assert gh.is_trivial()
    gh2 = R.family_gh(c4_c2)
    assert {h.elements for h in gh2.members} == {(0,), (0, 2)}


def test_malnormal_implies_trivial_gh_corpus(s3, c4, v4):
    for G in (s3, c4, v4):
        for h in R.all_subgroups(G):
            if R.is_malnormal(h):
                assert R.family_gh(h).is_trivial()


def test_fixed_cosets(c4, c4_c2):
    # the normal subgroup fixes every coset
    assert R.fixed_cosets(c4_c2, c4_c2) == [0, 1]
    assert R.fixed_cosets(c4_c2, c4.trivial_subgroup()) == [0, 1]


def test_fixed_cosets_conjugation_invariance(s3, s3_transposition):
    for k in R.all_subgroups(s3):
        base = len(R.fixed_cosets(s3_transposition, k))
        for g in s3.elements():
            assert len(R.fixed_cosets(s3_transposition, k.conjugate(g))) == base


def test_good_triples(s3, c4, c4_c2, s3_transposition):
    ok, witness = R.is_good_triple(s3_transposition, s3.trivial_subgroup())
    assert ok and witness is None
    ok, _ = R.is_good_triple(c4_c2, c4_c2)
    assert ok
    ok, witness = R.is_good_triple(c4_c2, c4.trivial_subgroup())
    assert not ok and witness is not None
    with pytest.raises(ValidationError):
        R.is_good_triple(c4.trivial_subgroup(), c4_c2)


def test_direct_product_encoding():
    a = R.cyclic_group(3)
    b = R.cyclic_group(2)
    g = R.direct_product(a, b)
    # (x1, y1) * (x2, y2) with index x*|B| + y
    assert g.mult(1 * 2 + 1, 1 * 2 + 1) == 2 * 2 + 0
    assert g.order == 6


def test_subgroup_as_group(s3, s3_transposition):
    h_grp, embed = R.subgroup_as_group(s3_transposition)
    assert h_grp.order == 2
    assert embed[0] == 0
    assert s3.mult(embed[1], embed[1]) == 0


def test_quotient_group(c4, c4_c2):
    q, proj = R.quotient_group(c4_c2)
    assert q.order == 2
    assert proj[0] == 0 and proj[2] == 0 and proj[1] == proj[3] == 1


def test_make_group_interns_by_table_and_label():
    c4 = R.make_group("cyclic", 4)
    assert R.make_group("cyclic", 4) is c4
    v4 = R.make_group("direct_product", R.cyclic_group(2), R.cyclic_group(2))
    assert R.make_group("direct_product", R.cyclic_group(2), R.cyclic_group(2)) is v4
    a4 = [[1, 2, 0, 3], [1, 0, 3, 2]]
    assert R.make_group("from_permutations", a4) is R.make_group("from_permutations", a4[::-1])
    # the rotations of a square: the table of C4 under another label
    rotations = R.make_group("from_permutations", [[1, 2, 3, 0]])
    assert rotations.table == c4.table and rotations is not c4
    assert R.cyclic_group(4) is not R.cyclic_group(4)
    assert R.cyclic_group(4) is not c4
    # subgroups of equal groups are equal, so per-subgroup caches hit
    assert c4.subgroup_generated([2]) == R.make_group("cyclic", 4).subgroup_generated([2])
    assert R.coset_space(c4.subgroup_generated([2])) is R.coset_space(
        R.make_group("cyclic", 4).subgroup_generated([2])
    )


@pytest.mark.parametrize("gen", [-1, 4, 7])
def test_subgroup_generated_refuses_non_elements(gen):
    with pytest.raises(ValidationError, match="not an element of the group"):
        R.cyclic_group(4).subgroup_generated([2, gen])


@pytest.mark.parametrize(
    "build,value",
    [
        (lambda: R.FiniteGroup([[0, 1.7], [1, 0]]), "1.7"),
        (lambda: R.FiniteGroup([["0", "1"], ["1", "0"]]), "'0'"),
        (lambda: R.FiniteGroup([[0, True], [True, 0]]), "True"),
        (lambda: R.cyclic_group(4).subgroup([0, 2.0]), "2.0"),
        (lambda: R.cyclic_group(4).subgroup(["0", "2"]), "'0'"),
        (lambda: R.cyclic_group(4).subgroup_generated([2.0]), "2.0"),
        (lambda: R.cyclic_group(4).subgroup_generated([True]), "True"),
        (lambda: R.cyclic_group(True), "True"),
        (lambda: R.symmetric_group(True), "True"),
        (lambda: R.dihedral_group(True), "True"),
        (lambda: R.cyclic_group(4.0), "4.0"),
        (lambda: R.dihedral_group(3.0), "3.0"),
        (lambda: R.symmetric_group(3.0), "3.0"),
        (lambda: R.group_from_permutations([[1.5, 0]]), "1.5"),
        (lambda: R.group_from_permutations([[1, 0]], 2.0), "2.0"),
    ],
    ids=[
        "table-float", "table-str", "table-bool", "subgroup-float", "subgroup-str",
        "generated-float", "generated-bool", "cyclic-bool", "symmetric-bool", "dihedral-bool",
        "cyclic-float", "dihedral-float", "symmetric-float", "permutation-float", "degree-float",
    ],
)
def test_group_constructors_refuse_values_that_are_not_integers(build, value):
    with pytest.raises(ValidationError, match=re.escape(value)):
        build()
