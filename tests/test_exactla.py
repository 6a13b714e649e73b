import random

import pytest

import relhom as R
from relhom import (
    ChainComplex,
    ChainMap,
    FgAbGroup,
    HomologyData,
    IntMatrix,
    PresentedChainMap,
    PresentedComplex,
)
from relhom.errors import ValidationError


def test_smith_zero_and_identity():
    z = IntMatrix.zeros(3, 2)
    sf = R.smith_form(z)
    assert sf.s.is_zero()
    assert sf.u == IntMatrix.identity(3)
    assert sf.v == IntMatrix.identity(2)
    ident = IntMatrix.identity(4)
    assert R.smith_invariants(ident) == [1, 1, 1, 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix.identity(-3),
        lambda: IntMatrix.zeros(-1, 2),
        lambda: IntMatrix.zeros(2, -1),
        lambda: IntMatrix([], cols=-1),
        lambda: IntMatrix.from_columns([], rows=-1),
        lambda: R.hstack([]),
    ],
    ids=["identity", "zeros-rows", "zeros-cols", "rows", "from-columns", "hstack"],
)
def test_constructors_refuse_bad_shapes(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda: IntMatrix([[1.5, 2]]), r"\(0, 0\)"),
        (lambda: IntMatrix([[1, 2], [3, 4.0]]), r"\(1, 1\)"),
        (lambda: IntMatrix([[0, True]]), r"\(0, 1\)"),
        (lambda: IntMatrix([[1, "2"]]), r"\(0, 1\)"),
        (lambda: IntMatrix.from_columns([[1, 2], [0.5, 0]]), r"\(0, 1\)"),
        (lambda: IntMatrix.from_columns([[1, 0], [2, 3.0]], rows=2), r"\(1, 1\)"),
    ],
    ids=["init-fraction", "init-integral-float", "init-bool", "init-str",
         "columns-fraction", "columns-integral-float"],
)
def test_constructors_refuse_entries_that_are_not_integers(build, where):
    with pytest.raises(ValidationError, match=f"^matrix entry {where} is not an integer"):
        build()


@pytest.mark.parametrize("j", [-1, -2, 2, 5])
def test_column_indices_outside_the_matrix_raise(j):
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match=f"^column {j} outside a matrix of 2 columns$"):
        a.entry(0, j)
    with pytest.raises(IndexError, match=f"^column {j} outside a matrix of 2 columns$"):
        a.column(j)
    with pytest.raises(IndexError, match="^row -1 outside a matrix of 2 rows$"):
        a.entry(-1, 0)
    assert (a.entry(1, 0), a.column(1)) == (3, (2, 4))


@pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
def test_scale_refuses_scalars_that_are_not_integers(k):
    with pytest.raises(ValidationError, match=f"^scalar is not an integer: {k!r}$"):
        IntMatrix([[1, 2], [3, 4]]).scale(k)


@pytest.mark.parametrize("x", [1.5, 2.0, True, "2"])
def test_apply_refuses_vector_entries_that_are_not_integers(x):
    with pytest.raises(ValidationError, match=f"^vector entry 0 is not an integer: {x!r}$"):
        IntMatrix([[1, 2], [3, 4]]).apply([x, 0])


@pytest.mark.parametrize("x", [1.5, 2.0, True, "2"])
def test_solve_refuses_right_hand_sides_that_are_not_integers(x):
    solver = R.IntSolver(IntMatrix([[1, 2], [3, 4]]))
    with pytest.raises(ValidationError, match=f"^right-hand side entry 1 is not an integer: {x!r}$"):
        solver.solve([1, x])


@pytest.mark.parametrize("ranks", [[1.7, 2.2], [1, True], [1, "2"], [1, -1]])
@pytest.mark.parametrize("cls", [ChainComplex, PresentedComplex])
def test_complexes_refuse_ranks_that_are_not_non_negative_integers(cls, ranks):
    with pytest.raises(
        ValidationError, match=rf"^rank at degree {3 if ranks[0] == 1 else 2} is not a non-negative"
    ):
        cls(2, ranks, {})


def test_constructors_keep_large_integers_exact():
    big = 3 ** 80 + 1
    assert IntMatrix([[big, -big]]).entry(0, 1) == -big
    assert IntMatrix.from_columns([[big], [0]]).column(0) == (big,)
    assert R.smith_invariants(IntMatrix([[big, 0], [0, 2 * big]])) == [big, 2 * big]


def test_smith_2468():
    a = IntMatrix([[2, 4], [6, 8]])
    sf = R.smith_form(a)
    assert sf.invariants == [2, 4]
    assert sf.u @ sf.s @ sf.v == a
    assert abs(sf.u.det()) == 1
    assert abs(sf.v.det()) == 1


def test_solve_integer():
    assert R.solve_integer(IntMatrix([[2]]), [4]) == [2]
    assert R.solve_integer(IntMatrix([[2]]), [3]) is None
    a = IntMatrix([[2, 3]])
    x = R.solve_integer(a, [1])
    assert x is not None and a.apply(x) == [1]


def test_kernel_basis_examples():
    k = R.kernel_basis(IntMatrix([[1, 1]]))
    assert k.cols == 1
    assert sorted(k.column(0)) == [-1, 1]
    assert R.kernel_basis(IntMatrix.identity(3)).cols == 0
    k2 = R.kernel_basis(IntMatrix([[2, 4]]))
    assert k2.cols == 1
    col = k2.column(0)
    assert 2 * col[0] + 4 * col[1] == 0
    g, _, _ = R.xgcd(col[0], col[1])
    assert g == 1  # saturated


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert R.rank_z(a) + R.kernel_basis(a).cols == n


def test_homology_simple_complexes():
    # 0 -> Z -0-> Z -> 0
    c = ChainComplex(0, [1, 1], {1: IntMatrix([[0]])})
    assert str(c.homology(0)) == "Z"
    assert str(c.homology(1)) == "Z"
    # 0 -> Z -2-> Z -> 0
    c = ChainComplex(0, [1, 1], {1: IntMatrix([[2]])})
    assert str(c.homology(0)) == "Z/2"
    assert str(c.homology(1)) == "0"
    # circle: one 0-cell, one 1-cell, zero boundary
    c = ChainComplex(0, [1, 1], {1: IntMatrix([[0]])})
    assert c.homology(0) == FgAbGroup(1)
    assert c.homology(1) == FgAbGroup(1)


def test_complex_validates_dd_zero():
    with pytest.raises(ValidationError):
        ChainComplex(
            0,
            [1, 1, 1],
            {1: IntMatrix([[1]]), 2: IntMatrix([[1]])},
        )


def _random_unimodular(rng, n, ops=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for r in range(n):
            m[r][i] += q * m[r][j]
        for c in range(n):
            inv[j][c] -= q * inv[i][c]
    return IntMatrix(m), IntMatrix(inv)


def test_homology_basis_change_invariance():
    rng = random.Random(23)
    for _ in range(40):
        m, n, p = rng.randint(1, 6), rng.randint(2, 6), rng.randint(1, 5)
        d1 = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        ker = R.kernel_basis(d1)
        coeff = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(p)] for _ in range(ker.cols)]
        )
        d2 = ker @ coeff if ker.cols else IntMatrix.zeros(n, p)
        c = ChainComplex(0, [m, n, p], {1: d1, 2: d2})
        pmat, pinv = _random_unimodular(rng, m)
        qmat, qinv = _random_unimodular(rng, n)
        smat, _ = _random_unimodular(rng, p)
        c2 = ChainComplex(
            0, [m, n, p], {1: pmat @ d1 @ qmat, 2: qinv @ d2 @ smat}
        )
        for deg in range(3):
            assert c.homology(deg) == c2.homology(deg)


def test_induced_map_identity_and_mod2():
    c = ChainComplex(0, [1, 1], {1: IntMatrix([[2]])})
    ident = ChainMap(c, c, {0: IntMatrix([[1]]), 1: IntMatrix([[1]])})
    assert R.induced_map(ident, 0) == IntMatrix([[1]])
    double = ChainMap(c, c, {0: IntMatrix([[2]]), 1: IntMatrix([[2]])})
    # multiplication by 2 vanishes on Z/2
    assert R.induced_map(double, 0) == IntMatrix([[0]])


def test_induced_map_composition():
    # H_0 = Z/2 + Z/3 = Z/6; f and g each induce multiplication by 5
    c = ChainComplex(0, [2, 2], {1: IntMatrix([[2, 0], [0, 3]])})
    f = ChainMap(
        c, c, {0: IntMatrix([[1, 2], [0, 2]]), 1: IntMatrix([[1, 3], [0, 2]])}
    )
    g = ChainMap(
        c, c, {0: IntMatrix([[1, 0], [3, 5]]), 1: IntMatrix([[1, 0], [2, 5]])}
    )
    comp = ChainMap(c, c, {n: g.component(n) @ f.component(n) for n in (0, 1)})
    m1 = R.induced_map(comp, 0)
    m2 = R.induced_map(g, 0) @ R.induced_map(f, 0)
    tgt = c.homology(0)
    assert R.is_zero_map(m1 - m2, tgt)


def test_induced_map_refuses_non_chain_maps():
    # neither map commutes with d: f0 sends the boundary (0, 3) to (3, 3)
    c = ChainComplex(0, [2, 2], {1: IntMatrix([[2, 0], [0, 3]])})
    for f0 in (IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])):
        comps = {0: f0, 1: IntMatrix.identity(2)}
        with pytest.raises(ValidationError, match="degree 1"):
            ChainMap(c, c, comps)
        # a map built without the check is refused where homology reads it
        with pytest.raises(ValidationError, match="degree 1"):
            R.induced_map(PresentedChainMap(c, c, comps), 0)
    # a map built without the check that does commute is accepted
    ident = PresentedChainMap(c, c, {0: IntMatrix.identity(2), 1: IntMatrix.identity(2)})
    assert R.induced_map(ident, 0) == IntMatrix([[1]])


def test_chain_homotopic_maps_agree_on_homology():
    # two-term complex with boundary d; f = id, g = id + d h + h d
    d = IntMatrix([[0, 2], [0, 0]])
    c = ChainComplex(0, [2, 2], {1: d})
    h0 = IntMatrix([[0, 0], [1, 0]])  # degree-raising homotopy C_0 -> C_1
    f0 = IntMatrix.identity(2)
    g0 = f0 + d @ h0
    g1 = IntMatrix.identity(2) + h0 @ d
    f = ChainMap(c, c, {0: f0, 1: IntMatrix.identity(2)})
    g = ChainMap(c, c, {0: g0, 1: g1})
    for deg in [0, 1]:
        assert R.induced_map(f, deg) == R.induced_map(g, deg)


def test_fgabgroup_formatting_and_arithmetic():
    assert str(FgAbGroup(0)) == "0"
    assert str(FgAbGroup(1)) == "Z"
    assert str(FgAbGroup(2)) == "Z^2"
    assert str(FgAbGroup(1, [2, 4])) == "Z + Z/2 + Z/4"
    assert FgAbGroup(0, [2, 3]) == FgAbGroup(0, [6])
    assert FgAbGroup(0, [12, 60]) == FgAbGroup(0, [12, 60])
    assert FgAbGroup(0, [4, 6]).torsion == (2, 12)
    a = FgAbGroup(1, [4])
    assert str(a.tensor(a)) == "Z + Z/4 + Z/4 + Z/4"
    assert str(a.tor(a)) == "Z/4"
    assert str(a.direct_sum(FgAbGroup(0, [2]))) == "Z + Z/2 + Z/4"


@pytest.mark.parametrize("torsion", [[-2], [0], [3, -4], [2, 0]])
def test_fgabgroup_refuses_torsion_orders_that_are_not_positive(torsion):
    with pytest.raises(ValidationError, match="^torsion order -?[0-9]+ is not positive$"):
        FgAbGroup(0, torsion)


def test_fgabgroup_refuses_a_fractional_torsion_order():
    with pytest.raises(ValidationError, match=r"^torsion order 2\.5 is not an integer$"):
        FgAbGroup(0, [2.5])


def test_fgabgroup_refuses_a_fractional_free_rank():
    with pytest.raises(ValidationError, match=r"^free rank 1\.7 is not an integer$"):
        FgAbGroup(1.7, [3])


def test_fgabgroup_refuses_a_boolean_free_rank():
    with pytest.raises(ValidationError, match="^free rank True is not an integer$"):
        FgAbGroup(True, [2])


def test_fgabgroup_refuses_a_boolean_torsion_order():
    with pytest.raises(ValidationError, match="^torsion order True is not an integer$"):
        FgAbGroup(2, [True])


def test_fgabgroup_refuses_a_string_free_rank():
    with pytest.raises(ValidationError, match="^free rank '1' is not an integer$"):
        FgAbGroup("1", [3])


def test_fgabgroup_from_invariants_takes_absolute_values():
    assert FgAbGroup.from_invariants([-2, 3], 3) == FgAbGroup(1, [6])
    assert str(FgAbGroup.from_invariants([-2, 3], 3)) == "Z + Z/6"
    assert FgAbGroup.from_invariants([-1, 0, -5], 4) == FgAbGroup(2, [5])


def test_hom_kernel_cokernel():
    # multiplication by 2: Z -> Z
    two = IntMatrix([[2]])
    z = FgAbGroup(1)
    assert str(R.hom_kernel(two, z, z)) == "0"
    assert str(R.hom_cokernel(two, z)) == "Z/2"
    # zero map Z/2 -> Z/2
    z2 = FgAbGroup(0, [2])
    zero = IntMatrix([[0]])
    assert str(R.hom_kernel(zero, z2, z2)) == "Z/2"
    assert str(R.hom_cokernel(zero, z2)) == "Z/2"
    assert R.is_isomorphism(IntMatrix([[1]]), z2, z2)
    assert not R.is_isomorphism(zero, z2, z2)


def test_sequence_exact_at():
    z = FgAbGroup(1)
    z2 = FgAbGroup(0, [2])
    # Z -2-> Z -> Z/2 is exact at the middle Z
    ok, _ = R.sequence_exact_at(IntMatrix([[2]]), z, z, IntMatrix([[1]]), z2)
    assert ok
    # Z -4-> Z -> Z/2 is not
    ok, why = R.sequence_exact_at(IntMatrix([[4]]), z, z, IntMatrix([[1]]), z2)
    assert not ok and why == "kernel not contained in image"
    # Z -1-> Z -> Z/2: the composite is 1, not 0 modulo 2
    ok, why = R.sequence_exact_at(IntMatrix([[1]]), z, z, IntMatrix([[1]]), z2)
    assert (ok, why) == (False, "composite is nonzero")
    # Z -1-> Z -> Z: a free target has no relations to reduce by
    ok, why = R.sequence_exact_at(IntMatrix([[1]]), z, z, IntMatrix([[2]]), z)
    assert (ok, why) == (False, "composite is nonzero")
    # Z -2-> Z/4 -> Z/2: the composite 2 is 0 modulo 2, and the sequence
    # is exact at Z/4
    ok, why = R.sequence_exact_at(IntMatrix([[2]]), z, FgAbGroup(0, [4]), IntMatrix([[1]]), z2)
    assert (ok, why) == (True, "")


def test_presented_complex_mod_k():
    # chain complex of a circle with Z/4 coefficients via relations
    d1 = IntMatrix([[0]])
    pc = PresentedComplex(
        0, [1, 1], {1: d1},
        {0: [(0, IntMatrix([[4]]))], 1: [(0, IntMatrix([[4]]))]},
    )
    assert str(pc.homology(0)) == "Z/4"
    assert str(pc.homology(1)) == "Z/4"


def test_presented_complex_top_degree_relations():
    # single degree with a relation: the group is Z/3, not Z
    pc = PresentedComplex(0, [1], {}, {0: [(0, IntMatrix([[3]]))]})
    assert str(pc.homology(0)) == "Z/3"


def test_presented_chain_map_induced():
    # multiplication by 2 on the Z/4 circle kills nothing in degree 0
    d1 = IntMatrix([[0]])
    rel = {0: [(0, IntMatrix([[4]]))], 1: [(0, IntMatrix([[4]]))]}
    pc = PresentedComplex(0, [1, 1], {1: d1}, rel)
    pm = PresentedChainMap(pc, pc, {0: IntMatrix([[2]]), 1: IntMatrix([[2]])})
    mat = R.induced_map(pm, 0)
    assert mat == IntMatrix([[2]])


def test_homology_data_coordinates_roundtrip():
    d1 = IntMatrix([[0, 0]])
    d2 = IntMatrix([[2], [0]])
    hd = HomologyData(d1, d2)
    assert str(hd.group) == "Z + Z/2"
    for i, cyc in enumerate(hd.generator_cycles()):
        coords = hd.coords_of_cycle(cyc)
        assert coords == [1 if j == i else 0 for j in range(len(coords))]
    with pytest.raises(ValidationError):
        HomologyData(IntMatrix([[1, 0]]), d2).coords_of_cycle([1, 0])


def test_commutation_check_matches_dense_products():
    # the check compares d f and f d column by column on sparse columns;
    # it must refuse exactly where the dense products differ, at the same
    # first degree, and accept commuting maps.  Each boundary above d_1 is
    # a random combination of the kernel basis of the one below, so d d = 0
    rng = random.Random(8)
    for trial in range(60):
        ranks = [rng.randint(0, 3) for _ in range(4)]
        bounds = {1: IntMatrix([[rng.randint(-1, 1) for _ in range(ranks[1])]
                                for _ in range(ranks[0])], cols=ranks[1])}
        for n in (2, 3):
            ker = R.kernel_basis(bounds[n - 1])
            mix = [[rng.randint(-1, 1) for _ in range(ranks[n])] for _ in range(ker.cols)]
            bounds[n] = ker @ IntMatrix(mix, cols=ranks[n])
        c = ChainComplex(0, ranks, bounds)
        if trial % 3 == 0:
            comps = {n: IntMatrix.identity(r).scale(rng.randint(-2, 2)) for n, r in enumerate(ranks)}
        else:
            comps = {
                n: IntMatrix([[rng.choice((0, 0, 1, -1)) for _ in range(r)] for _ in range(r)], cols=r)
                for n, r in enumerate(ranks)
            }
        bad = [
            n for n in range(1, 4)
            if c.boundary(n) @ comps[n] != comps[n - 1] @ c.boundary(n)
        ]
        if bad:
            with pytest.raises(ValidationError, match=f"^chain map does not commute at degree {bad[0]}$"):
                ChainMap(c, c, comps)
        else:
            ChainMap(c, c, comps)


def test_homology_group_refuses_shapes_that_do_not_compose():
    with pytest.raises(ValidationError, match="^boundary shapes are not composable$"):
        R.homology_group(IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1))


def test_homology_group_refuses_boundaries_that_do_not_compose_to_zero():
    # rank(dn) + rank(dnp1) = 2 exceeds the chain rank 1, so dn dnp1 != 0
    dn = IntMatrix([[1]])
    dnp1 = IntMatrix([[1]])
    with pytest.raises(ValidationError, match="^boundaries do not compose to zero$"):
        R.homology_group(dn, dnp1)
    # the ranks fit the chain rank 2, so only the product shows it
    with pytest.raises(ValidationError, match="^boundaries do not compose to zero$"):
        R.homology_group(IntMatrix([[1, 0]]), IntMatrix([[1], [0]]))
