import re

import pytest

import relhom as R
from relhom import GModule, IntMatrix, modres
from relhom.errors import BudgetError, ValidationError

from conftest import cyclic_homology_list
from oracles import bar_resolution


def test_standard_modules_c4_c2(c4, c4_c2):
    std = R.standard_modules(c4_c2)
    assert std.perm.rank == 2
    assert std.i_module.rank == 1
    # the generator tH - H is negated by t
    assert std.i_module.action_matrix(1) == IntMatrix([[-1]])
    # embedding followed by augmentation is zero
    assert (std.augmentation.matrix @ std.embedding.matrix).is_zero()


def test_standard_modules_full_and_trivial(c4, c2):
    std_full = R.standard_modules(c4.full_subgroup())
    assert std_full.i_module.rank == 0
    std_triv = R.standard_modules(c2.trivial_subgroup())
    assert std_triv.perm.rank == 2
    assert std_triv.i_module.rank == 1
    assert std_triv.i_module.action_matrix(1) == IntMatrix([[-1]])


def test_gmodule_validation(c4):
    with pytest.raises(ValidationError):
        GModule.from_action_matrices(
            c4, [IntMatrix([[1]]), IntMatrix([[2]]), IntMatrix([[1]]), IntMatrix([[2]])]
        )
    with pytest.raises(ValidationError):
        GModule.from_action_matrices(
            c4, [IntMatrix([[-1]])] + [IntMatrix([[1]])] * 3
        )


def test_gmodule_from_generator_action(c4):
    sgn = GModule.from_generator_action(c4, {1: IntMatrix([[-1]])})
    assert sgn.action_matrix(2) == IntMatrix([[1]])
    assert sgn.action_matrix(3) == IntMatrix([[-1]])
    assert not sgn.is_constant()
    assert GModule.trivial(c4).is_constant()
    assert GModule.trivial_mod(c4, 3).is_constant()


def test_bar_resolution_ranks_and_homology(c2):
    bar = bar_resolution(c2, 2)
    assert bar.free_ranks == [1, 2, 4]
    bar.validate()
    cx = bar.tensor(GModule.trivial(c2))
    assert str(cx.homology(1)) == "Z/2"
    assert str(cx.homology(0)) == "Z"


def test_bar_budget_error(c6):
    with pytest.raises(BudgetError):
        bar_resolution(c6, 4)


def test_cyclic_resolution(c4, c2):
    res = R.cyclic_resolution(c4, 5)
    res.validate()
    assert res.free_ranks == [1] * 6
    cx = res.tensor(GModule.trivial(c4))
    # boundary values alternate 0 and 4 after tensoring
    assert cx.boundary(1) == IntMatrix([[0]])
    assert cx.boundary(2) == IntMatrix([[4]])
    assert str(cx.homology(1)) == "Z/4"
    res2 = R.cyclic_resolution(c2, 5)
    cx2 = res2.tensor(GModule.trivial(c2))
    vals = [str(cx2.homology(n)) for n in range(4)]
    assert vals == ["Z", "Z/2", "0", "Z/2"]


def test_cyclic_resolution_rejects_noncyclic(v4):
    with pytest.raises(ValidationError):
        R.cyclic_resolution(v4, 3)


def test_resolve_matches_cyclic(c2):
    triv = GModule.trivial(c2)
    gen = R.resolve(triv, 4)
    gen.validate()
    cx = gen.tensor(triv)
    oracle = R.cyclic_resolution(c2, 5).tensor(triv)
    for n in range(4):
        assert cx.homology(n) == oracle.homology(n)


def test_resolve_free_module_is_acyclic(c4):
    reg = GModule.regular(c4)
    res = R.resolve(reg, 2)
    # a free module resolves itself: one generator, zero kernels
    assert res.free_ranks == [1, 0, 0]
    triv = GModule.trivial(c4)
    assert str(R.tor(reg, triv, 0, resolution=res)) == "Z"
    assert str(R.tor(reg, triv, 1, resolution=res)) == "0"


def test_resolve_rejects_presented(c4):
    with pytest.raises(ValidationError):
        R.resolve(GModule.trivial_mod(c4, 2), 2)


def test_takasu_resolution_c4c2(c4, c4_c2):
    res = R.takasu_resolution(c4_c2, 3)
    res.validate(exactness_cap=600)
    triv = GModule.trivial(c4)
    via_takasu = res.tensor(triv)
    via_resolve = R.resolve(R.standard_modules(c4_c2).i_module, 4).tensor(triv)
    for n in range(3):
        assert via_takasu.homology(n) == via_resolve.homology(n)


def test_takasu_resolution_full_subgroup(c4):
    res = R.takasu_resolution(c4.full_subgroup(), 3)
    triv = GModule.trivial(c4)
    cx = res.tensor(triv)
    for n in range(3):
        assert cx.homology(n).is_trivial()


def test_takasu_resolution_trivial_subgroup(c2):
    # Tor_{n-1}(I, Z) is the reduced homology of the group
    res = R.takasu_resolution(c2.trivial_subgroup(), 4)
    res.validate()
    cx = res.tensor(GModule.trivial(c2))
    assert [str(cx.homology(n)) for n in range(4)] == ["Z/2", "0", "Z/2", "0"]


def test_tensor_unit(c4):
    # a free map given by the identity generator column tensors to the identity
    reg_res = R.FreeResolution(
        c4, GModule.regular(c4), [1, 1],
        [[[1, 0, 0, 0]], [[(0, 0, 1)]]],
    )
    m = GModule.from_generator_action(c4, {1: IntMatrix([[-1]])})
    cx = reg_res.tensor(m)
    assert cx.boundary(1) == IntMatrix.identity(1)


def test_tensor_group_mismatch(c2, c4):
    res = R.cyclic_resolution(c4, 2)
    with pytest.raises(ValidationError):
        res.tensor(GModule.trivial(c2))


def test_tor_group_homology(c2, c6):
    triv2 = GModule.trivial(c2)
    vals = [str(R.group_homology(c2, triv2, n)) for n in range(4)]
    assert vals == ["Z", "Z/2", "0", "Z/2"]
    triv6 = GModule.trivial(c6)
    assert str(R.group_homology(c6, triv6, 1)) == "Z/6"
    assert str(R.group_homology(c6, triv6, 3)) == "Z/6"


def test_tor_independence_of_engine(c4):
    triv = GModule.trivial(c4)
    bar = bar_resolution(c4, 4)
    cyc = R.cyclic_resolution(c4, 4)
    gen = R.resolve(triv, 4)
    for n in range(3):
        values = {
            str(R.tor(triv, triv, n, resolution=res)) for res in (bar, cyc, gen)
        }
        assert len(values) == 1


def test_coinvariants_trivial(c4, c4_c2):
    triv = GModule.trivial(c4)
    coin = R.coinvariants(triv, c4_c2)
    assert coin.quotient.order == 2
    assert str(coin.group) == "Z"
    assert coin.module.is_constant()


def test_coinvariants_with_torsion(c4):
    sgn = GModule.from_generator_action(c4, {1: IntMatrix([[-1]])})
    coin = R.coinvariants(sgn, c4.full_subgroup())
    assert str(coin.group) == "Z/2"


def test_coinvariants_regular(c2):
    reg = GModule.regular(c2)
    coin = R.coinvariants(reg, c2.full_subgroup())
    assert str(coin.group) == "Z"


def test_restriction(s3, s3_transposition):
    reg = GModule.regular(s3)
    res = R.restriction(reg, s3_transposition)
    assert res.group.order == 2
    assert res.rank == 6
    # restricted regular module is free over the subgroup
    hgrp, _ = R.subgroup_as_group(s3_transposition)
    for n in range(1, 3):
        assert R.group_homology(hgrp, res, n).is_trivial()


def _equivariant(group, gen_images, rows):
    """The Z-matrix of the equivariant map out of Z[G]^s whose generator j
    goes to gen_images[j], orbit entries (i, h, c) of Z[G]^r, in the basis
    (i, h) -> i*|G| + h."""
    n = group.order
    cols = []
    for entries in gen_images:
        for g in range(n):
            col = [0] * rows
            for i, h, c in entries:
                col[i * n + group.table[g][h]] = c
            cols.append(col)
    return IntMatrix.from_columns(cols, rows=rows)


def _horseshoe_pairs(c4_c2, s3_transposition):
    d4 = R.dihedral_group(4)
    refl = next(g for g in d4.elements() if d4.element_order(g) == 2 and g >= 4)
    return [c4_c2, s3_transposition, d4.subgroup_generated([refl])]


def test_horseshoe_and_lift(c4_c2, s3_transposition):
    for h in _horseshoe_pairs(c4_c2, s3_transposition):
        G = h.parent
        std = R.standard_modules(h)
        res_i = R.resolve(std.i_module, 3)
        res_z = R.resolve(GModule.trivial(G), 3)
        horse = R.horseshoe(res_i, res_z, std)
        horse.middle.validate()
        hgrp, _ = R.subgroup_as_group(h)
        res_h = R.resolve(GModule.trivial(hgrp), 3)
        ind = R.induce_resolution(res_h, h)
        ind.validate()
        v = R.lift_over_resolution(ind, horse.middle, IntMatrix.identity(std.perm.rank))
        assert len(v) == 4
        # v is a chain map over the identity of Z[G/H]
        mid = horse.middle
        vk = [_equivariant(G, level, mid.z_rank(k)) for k, level in enumerate(v)]
        assert mid.augmentation_matrix() @ vk[0] == ind.augmentation_matrix(), G.label
        for k in range(1, 4):
            assert mid.boundary_matrix(k) @ vk[k] == vk[k - 1] @ ind.boundary_matrix(k), k
        # the connecting components: iota alpha h_1 = -sigma d, d h_k = -h_{k-1} d
        hk = [None] + [
            _equivariant(G, level, res_i.z_rank(k))
            for k, level in enumerate(horse.h_gen_images)
        ]
        iota_alpha = std.embedding.matrix @ res_i.augmentation_matrix()
        sigma = IntMatrix.from_columns(
            [
                std.perm.act(g, [gens[0]] + [0] * (std.perm.rank - 1))
                for gens in res_z.gen_images[0]
                for g in G.elements()
            ],
            rows=std.perm.rank,
        )
        assert iota_alpha @ hk[1] == -(sigma @ res_z.boundary_matrix(1)), G.label
        for k in range(2, 4):
            assert res_i.boundary_matrix(k - 1) @ hk[k] == -(hk[k - 1] @ res_z.boundary_matrix(k)), k


def test_tor_side_non_cycle_generator_image_names_its_stage(c4, c4_c2):
    std = R.standard_modules(c4_c2)
    good = R.resolve(GModule.trivial(c4), 3)
    images = [list(level) for level in good.gen_images]
    # d_1 of this image is d_1 of the first degree-1 generator, not zero
    coeffs = {(i, h): c for i, h, c in images[2][0]}
    coeffs[0, 0] = coeffs.get((0, 0), 0) + 1
    images[2][0] = [(i, h, c) for (i, h), c in coeffs.items() if c]
    bad = R.FreeResolution(c4, good.module, good.free_ranks, images, label="broken")
    with pytest.raises(ValidationError, match="no integral lift at stage 2"):
        R.lift_over_resolution(bad, good, IntMatrix.identity(1))
    # the horseshoe lifts bad shifted down one degree: h_2 is stage 1 of phi
    with pytest.raises(
        ValidationError,
        match=re.escape("horseshoe connecting map (h_k = (-1)^k phi_(k-1)): no integral lift at stage 1"),
    ):
        R.horseshoe(R.resolve(std.i_module, 3), bad, std)


def test_resolution_budget(s3, s3_transposition):
    with pytest.raises(BudgetError):
        R.takasu_resolution(s3_transposition, 3)
    with pytest.raises(BudgetError):
        R.resolve(GModule.trivial(s3), 2, rank_cap=5)


def _dense_resolution_matrices(res):
    """The augmentation and boundaries built densely, column by column: the
    reference for the sparse build."""
    G = res.group
    n = G.order
    aug = IntMatrix.from_columns(
        [res.module.act(g, base) for base in res.gen_images[0] for g in range(n)],
        rows=res.module.rank,
    )
    bounds = []
    for k in range(1, res.length + 1):
        rows = res.z_rank(k - 1)
        cols = []
        for entries in res.gen_images[k]:
            for g in range(n):
                col = [0] * rows
                for i, hh, c in entries:
                    col[i * n + G.table[g][hh]] = c
                cols.append(col)
        bounds.append(IntMatrix.from_columns(cols, rows=rows))
    return aug, bounds


def test_resolution_matrices_match_the_dense_build(c4, c4_c2, s3, s3_transposition):
    resolutions = [
        R.resolve(GModule.regular(c4), 2),
        R.resolve(R.standard_modules(c4_c2).i_module, 3),
        R.resolve(R.standard_modules(s3_transposition).i_module, 3),
        bar_resolution(s3, 2),
        R.takasu_resolution(c4_c2, 2),
        R.induce_resolution(R.resolve(GModule.trivial(R.subgroup_as_group(c4_c2)[0]), 3), c4_c2),
    ]
    for res in resolutions:
        aug, bounds = _dense_resolution_matrices(res)
        got = [res.augmentation_matrix()] + [res.boundary_matrix(k) for k in range(1, res.length + 1)]
        for mine, want in zip(got, [aug] + bounds):
            assert mine == want and hash(mine) == hash(want), res
            assert mine.shape == want.shape
            # the stored columns hold no zero and no row outside the matrix
            assert all(x and 0 <= i < mine.rows for col in mine._cols for i, x in col.items())


@pytest.mark.parametrize("rank", [1.8, True, "1", -1])
def test_gmodule_refuses_ranks_that_are_not_non_negative_integers(c2, rank):
    with pytest.raises(ValidationError, match=f"^module rank is not a non-negative integer: {rank!r}$"):
        GModule(c2, rank, perms=[(0,), (0,)])


@pytest.mark.parametrize("rank", [1.5, True, -2])
def test_free_resolution_refuses_ranks_that_are_not_non_negative_integers(c2, rank):
    images = [[[1]], [[(0, 1, 1)]]]
    with pytest.raises(ValidationError, match=f"^rank at degree 1 is not a non-negative integer: {rank!r}$"):
        R.FreeResolution(c2, GModule.trivial(c2), [1, rank], images)
    with pytest.raises(ValidationError, match="^rank at degree 0 is not"):
        R.FreeResolution(c2, GModule.trivial(c2), [-2], [[]])


# Each refusal of the FreeResolution constructor, on a degree-2 image over
# C2 whose degree-1 term has rank 1 (generator 0 of degree 2 is t - 1).
@pytest.mark.parametrize(
    "image,message",
    [
        ([(1, 0, 1)], "generator 1 outside F_1 of rank 1"),
        ([(-1, 0, 1)], "generator -1 outside F_1 of rank 1"),
        ([(True, 0, 1)], "generator True outside F_1 of rank 1"),
        ([(0, 2, 1)], "element 2 outside a group of order 2"),
        ([(0, -1, 1)], "element -1 outside a group of order 2"),
        ([(0, 1.0, 1)], "element 1.0 outside a group of order 2"),
        ([(0, 0, 0)], "coefficient 0 is not a nonzero integer"),
        ([(0, 0, 1.5)], "coefficient 1.5 is not a nonzero integer"),
        ([(0, 0, 2.0)], "coefficient 2.0 is not a nonzero integer"),
        ([(0, 0, True)], "coefficient True is not a nonzero integer"),
        ([(0, 0, "2")], "coefficient '2' is not a nonzero integer"),
        ([(0, 1, 1), (0, 1, -1)], r"entry \(0, 1\) given twice"),
        ([(0, 1)], r"not a list of \(generator, element, coeff\) entries"),
        ([1, -1], r"not a list of \(generator, element, coeff\) entries"),
    ],
)
def test_free_resolution_refuses_each_bad_entry(c2, image, message):
    good = [(0, 0, -1), (0, 1, 1)]
    images = [[[1]], [good], [good, image]]
    with pytest.raises(ValidationError, match=f"^degree 2 generator 1: {message}$"):
        R.FreeResolution(c2, GModule.trivial(c2), [1, 1, 2], images)


def test_free_resolution_refuses_images_that_do_not_match_the_ranks(c2):
    images = [[[1]], [[(0, 1, 1)]]]
    with pytest.raises(ValidationError, match=r"^generator images do not match the free ranks \[1, 2\]$"):
        R.FreeResolution(c2, GModule.trivial(c2), [1, 2], images)
    with pytest.raises(ValidationError, match=r"^generator images do not match the free ranks \[1\]$"):
        R.FreeResolution(c2, GModule.trivial(c2), [1], images)


def test_free_resolution_sorts_and_freezes_its_images(c2):
    image = [(0, 1, 1), (0, 0, -1)]
    res = R.FreeResolution(c2, GModule.trivial(c2), [1, 1], [[[1]], [image]])
    image.append((0, 0, 5))
    assert res.gen_images[1] == [((0, 0, -1), (0, 1, 1))]


def _assert_entries(images, rank, order):
    """Every image is a tuple of orbit entries (i, h, c) of Z[G]^rank:
    i and h in range, c a nonzero int, (i, h) strictly increasing."""
    for image in images:
        assert isinstance(image, tuple)
        keys = [(i, h) for i, h, _c in image]
        assert keys == sorted(set(keys))
        for i, h, c in image:
            assert type(i) is int and 0 <= i < rank
            assert type(h) is int and 0 <= h < order
            assert type(c) is int and c


def test_every_builder_stores_sorted_orbit_entries(c4, c4_c2, s3, s3_transposition):
    memo_module = R.standard_modules(s3_transposition).i_module
    s3.memo.clear()
    short = modres.cached_resolution(memo_module, 2)
    extended = modres.cached_resolution(memo_module, 4)
    assert extended.gen_images[:3] == short.gen_images
    std = R.standard_modules(c4_c2)
    hgrp, _ = R.subgroup_as_group(c4_c2)
    ind = R.induce_resolution(R.resolve(GModule.trivial(hgrp), 3), c4_c2)
    horse = R.horseshoe(R.resolve(std.i_module, 3), R.resolve(GModule.trivial(c4), 3), std)
    resolutions = [
        R.resolve(GModule.regular(c4), 2),
        short,
        extended,
        R.takasu_resolution(c4_c2, 2),
        R.takasu_resolution(s3_transposition, 2),
        ind,
        R.cyclic_resolution(c4, 3),
        R.cyclic_resolution(R.cyclic_group(2), 3),
        horse.middle,
        bar_resolution(s3, 2),
    ]
    for res in resolutions:
        n = res.group.order
        for k in range(1, res.length + 1):
            _assert_entries(res.gen_images[k], res.free_ranks[k - 1], n)
        aug, bounds = _dense_resolution_matrices(res)
        got = [res.augmentation_matrix()] + [res.boundary_matrix(k) for k in range(1, res.length + 1)]
        assert got == [aug] + bounds, res
    for k, level in enumerate(horse.h_gen_images, start=1):
        _assert_entries(level, horse.res_i.free_ranks[k - 1], 4)
    v = R.lift_over_resolution(ind, horse.middle, IntMatrix.identity(std.perm.rank))
    for k, level in enumerate(v):
        _assert_entries(level, horse.middle.free_ranks[k], 4)
