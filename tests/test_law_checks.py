"""`exactla.product_gaps`, the one check of d d = 0, d f = f d, the module
action law and functoriality, and the refusals of every law it checks."""

import pytest
from hypothesis import given, settings, strategies as st

import relhom as R
from relhom import ChainComplex, FreeResolution, GModule, GModuleHom, IntMatrix, hstack
from relhom.bredon import CoefficientSystem
from relhom.errors import ValidationError
from relhom.exactla import LatticeAccumulator, product_gaps


def _dense_columns(mat):
    """The columns of `mat` as dicts row -> nonzero entry, from its rows."""
    return [{i: x for i, x in enumerate(col) if x} for col in mat.columns()]


def _rows_product(a, b):
    """a @ b by the schoolbook sum on dense rows."""
    rb = b.to_rows()
    return IntMatrix(
        [[sum(x * rb[k][j] for k, x in enumerate(r)) for j in range(b.cols)] for r in a.to_rows()],
        cols=b.cols,
    )


def _rows_sum(a, b, k=1):
    """a + k b entry by entry on dense rows."""
    return IntMatrix(
        [[x + k * y for x, y in zip(r, s)] for r, s in zip(a.to_rows(), b.to_rows())],
        cols=a.cols,
    )


def _assert_well_formed(mat):
    """One stored column per column, each without a 0 entry or a row
    outside the matrix."""
    assert len(mat._cols) == mat.cols
    assert all(x and 0 <= i < mat.rows for col in mat._cols for i, x in col.items())


def _matrix(draw, rows, cols):
    entries = st.integers(-3, 3) if draw(st.booleans()) else st.just(0)
    return IntMatrix(
        [[draw(entries) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


@st.composite
def _law(draw):
    """a (m x k), b (k x n), c (m x n), and a lattice of Z^m; any of the
    dimensions may be 0 and any matrix all zero."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    lat = _matrix(draw, m, draw(st.integers(0, 3)))
    return _matrix(draw, m, k), _matrix(draw, k, n), _matrix(draw, m, n), lat


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_law(), st.integers(-2, 2))
def test_product_gaps_match_the_dense_products(law, k):
    a, b, c, lat = law
    ab = _rows_product(a, b)
    assert list(product_gaps((a, b))) == _dense_columns(ab)
    assert list(product_gaps((a, b), (c,))) == _dense_columns(_rows_sum(ab, c, -1))
    assert list(product_gaps((a, b, IntMatrix.identity(b.cols)))) == _dense_columns(ab)
    # modulo a lattice: a gap is empty exactly when the column lies in it
    acc = LatticeAccumulator.spanned_by(lat)
    gaps = product_gaps((a, b), (c,), acc)
    assert [not gap for gap in gaps] == [acc.contains(col) for col in _rows_sum(ab, c, -1).columns()]
    # a matrix built on the same columns gives the same answer, and no
    # check mutates a factor's columns
    kept = IntMatrix._from_sparse_columns(_dense_columns(a), a.rows)
    assert list(product_gaps((kept, b), (c,))) == list(product_gaps((a, b), (c,)))
    assert [m._cols for m in (a, b, c)] == [_dense_columns(m) for m in (a, b, c)]
    # each operation equals, and hashes as, the matrix built from the dense
    # rows it gives, and its stored columns are well formed
    shuffled = [dict(reversed(list(col.items()))) for col in c._cols]
    cases = [
        (a @ b, ab),
        (c + a @ b, _rows_sum(c, ab)),
        (c - lat @ IntMatrix.zeros(lat.cols, c.cols), c),
        (c.scale(k), IntMatrix([[k * x for x in r] for r in c.to_rows()], cols=c.cols)),
        (
            hstack([c, lat]),
            IntMatrix([r + s for r, s in zip(c.to_rows(), lat.to_rows())], cols=c.cols + lat.cols),
        ),
        (IntMatrix.from_columns(c.columns(), rows=c.rows), c),
        (IntMatrix._from_sparse_columns(_dense_columns(c), c.rows), c),
        (IntMatrix._from_sparse_columns(shuffled, c.rows), c),
        (IntMatrix.identity(c.rows) @ c, c),
    ]
    for got, want in cases:
        _assert_well_formed(got)
        _assert_well_formed(want)
        assert got == want and hash(got) == hash(want)
        assert got.shape == want.shape and got.to_rows() == want.to_rows()
    assert c.is_zero() == (c == IntMatrix.zeros(*c.shape))


def test_product_gaps_refuse_shapes_as_the_dense_products_do():
    a, b = IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 1)
    with pytest.raises(ValidationError, match=r"^shape mismatch in product: \(2, 3\) @ \(2, 1\)$"):
        product_gaps((a, b))
    with pytest.raises(ValidationError, match="^shape mismatch in sum$"):
        product_gaps((a,), (b,))


def test_chain_complex_refuses_boundary_squared_nonzero():
    one = IntMatrix([[1]])
    with pytest.raises(ValidationError, match="^boundary squared is nonzero at degree 2$"):
        ChainComplex(0, [1, 1, 1], {1: one, 2: one})


def test_free_resolution_validate_refuses_both_laws(c2):
    # over C2 = {1, t}: t - 1 in degree 1, and the norm 1 + t in degree 2
    triv = GModule.trivial(c2)
    t_minus_1, norm = [(0, 0, -1), (0, 1, 1)], [(0, 0, 1), (0, 1, 1)]
    FreeResolution(c2, triv, [1, 1, 1], [[[1]], [t_minus_1], [norm]]).validate()
    bad_d1 = FreeResolution(c2, triv, [1, 1], [[[1]], [[(0, 0, 1)]]])
    with pytest.raises(ValidationError, match="^augmentation does not kill the first boundary$"):
        bad_d1.validate()
    bad_d2 = FreeResolution(c2, triv, [1, 1, 1], [[[1]], [t_minus_1], [t_minus_1]])
    with pytest.raises(ValidationError, match="^boundary squared nonzero at degree 2$"):
        bad_d2.validate()


def test_free_resolution_validate_refuses_an_inexact_stage(c2):
    # d2 = 2 (1 + t) composes to zero with d1 = t - 1, but misses the
    # cycle 1 + t of d1
    triv = GModule.trivial(c2)
    res = FreeResolution(
        c2, triv, [1, 1, 1], [[[1]], [[(0, 0, -1), (0, 1, 1)]], [[(0, 0, 2), (0, 1, 2)]]]
    )
    with pytest.raises(ValidationError, match="^resolution not exact at stage 1$"):
        res.validate()


def test_gmodule_identity_is_checked_modulo_relations(c2):
    # a(e) = 3 is the identity on Z/2, not on Z/3
    mats = [IntMatrix([[3]]), IntMatrix([[1]])]
    assert GModule(c2, 1, mats=mats, relations=IntMatrix([[2]])).is_constant()
    with pytest.raises(ValidationError, match="^identity must act trivially$"):
        GModule(c2, 1, mats=mats, relations=IntMatrix([[3]]))
    with pytest.raises(ValidationError, match="^identity must act trivially$"):
        GModule.from_action_matrices(c2, [IntMatrix([[-1]]), IntMatrix([[1]])])


def test_gmodule_action_law_is_checked_modulo_relations(c2):
    # t acting by 2: t t = 4 is 1 modulo 3, not modulo 5
    mats = [IntMatrix([[1]]), IntMatrix([[2]])]
    m = GModule(c2, 1, mats=mats, relations=IntMatrix([[3]]))
    assert not m.is_constant()
    with pytest.raises(ValidationError, match=r"^action law fails at \(1, 1\)$"):
        GModule(c2, 1, mats=mats, relations=IntMatrix([[5]]))


@pytest.mark.parametrize(
    "action",
    [
        [[2]],  # not invertible over Z
        [[1, 1], [0, 1]],  # invertible, but of infinite order
    ],
)
def test_gmodule_action_that_is_not_a_c2_action_is_refused(c2, action):
    # the action law needs a(t) a(t) = a(e) = 1, so a(t) is invertible over
    # Z; a determinant check would add nothing
    mats = [IntMatrix.identity(len(action)), IntMatrix(action)]
    with pytest.raises(ValidationError, match=r"^action law fails at \(1, 1\)$"):
        GModule.from_action_matrices(c2, mats)


def test_gmodule_permutation_action_law_is_checked():
    # on C3, t acting by a swap gives t t = identity, not t^2 = the swap
    c3 = R.cyclic_group(3)
    swap = (1, 0)
    with pytest.raises(ValidationError, match=r"^action law fails at \(1, 1\)$"):
        GModule(c3, 2, perms=[(0, 1), swap, swap])
    with pytest.raises(ValidationError, match="^identity must act trivially$"):
        GModule(c3, 2, perms=[swap, swap, swap])
    GModule(c3, 3, perms=[(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def test_gmodule_relations_must_be_g_stable(c2):
    swap = [(0, 1), (1, 0)]
    with pytest.raises(ValidationError, match="^relation lattice is not G-stable$"):
        GModule(c2, 2, perms=swap, relations=IntMatrix([[1], [0]]))
    GModule(c2, 2, perms=swap, relations=IntMatrix([[1], [1]]))


def test_gmodule_hom_equivariance_is_checked_modulo_relations(c2):
    # the sign module onto trivial coefficients: 1 * (-1) - 1 * 1 = -2
    sign = GModule.from_action_matrices(c2, [IntMatrix([[1]]), IntMatrix([[-1]])])
    GModuleHom(sign, GModule.trivial_mod(c2, 2), IntMatrix([[1]]))
    with pytest.raises(ValidationError, match="^hom is not equivariant at 1$"):
        GModuleHom(sign, GModule.trivial_mod(c2, 3), IntMatrix([[1]]))


@pytest.fixture(scope="module")
def cat_c2(c2):
    return R.build_orbit_category(c2, R.SubgroupFamily(c2, R.all_subgroups(c2)))


def _system(cat, values=None, **maps):
    """The constant system Z on `cat` with some values and maps replaced;
    `maps` is keyed by a name of a morphism of the C2 orbit category."""
    base = R.constant_system(cat)
    triv, full = cat.group.trivial_subgroup(), cat.group.full_subgroup()
    names = {
        "id_triv": cat.identity(triv),
        "flip": cat.morphism(triv, triv, 1),
        "collapse": cat.morphism(triv, full, 0),
    }
    new_maps = dict(base.maps)
    new_maps.update((names[k], IntMatrix(v)) for k, v in maps.items())
    new_values = dict(base.values)
    new_values.update(
        (triv if k == "triv" else full, (1, IntMatrix(v))) for k, v in (values or {}).items()
    )
    return CoefficientSystem(cat, new_values, new_maps)


def test_coefficient_system_refuses_each_law(cat_c2):
    _system(cat_c2)
    with pytest.raises(ValidationError, match="^identity morphism does not act as identity$"):
        _system(cat_c2, id_triv=[[2]])
    # Z/2 at G/1 does not go to Z/3 at G/C2 under the identity matrix
    _system(cat_c2, values={"triv": [[2]], "full": [[2]]})
    with pytest.raises(ValidationError, match="^morphism does not preserve relations$"):
        _system(cat_c2, values={"triv": [[2]], "full": [[3]]})
    # collapse o flip = collapse, but -1 != 1; modulo 2 it holds
    with pytest.raises(ValidationError, match=r"^functoriality fails at R_0 o R_1$"):
        _system(cat_c2, flip=[[-1]])
    _system(cat_c2, values={"triv": [[2]], "full": [[2]]}, flip=[[-1]])
