"""Presented complexes reduce and solve their relations block by block.

The reference is the joint route: every relation block expanded to dense
columns of the full free-cover rank and reduced at once, and one solver
over the assembled relation matrix.  The per-block route must give the same
relation matrices, cone boundaries, relation solves and generator cycles
on every builder that tensors down to coinvariants.
"""

import pytest

import relhom as R
from relhom import GModule, IntMatrix, exactla
from relhom.errors import ValidationError
from relhom.exactla import (
    ChainComplex,
    IntSolver,
    PresentedComplex,
    _sparse_apply,
    column_image_basis,
)
from relhom.groups import SubgroupFamily, all_subgroups, is_subconjugate

from conftest import alternating4


def _pair(name):
    if name == "C4>C2":
        return R.cyclic_group(4).subgroup_generated([2])
    if name == "S3>C2":
        s3 = R.symmetric_group(3)
        return s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)])
    if name == "D4>refl":
        return R.dihedral_group(4).subgroup_generated([4])
    return alternating4().subgroup_generated([1])


def _by_matrices(m):
    """The same module with its action given by matrices: it answers with
    M_K presented on its lattice, where the permutation module answers with
    free orbit classes, so its complexes keep their relation blocks."""
    return GModule.from_action_matrices(m.group, [m.action_matrix(x) for x in m.group.elements()])


def _coefficients(h, name):
    g = h.parent
    return {
        "Z": lambda: GModule.trivial(g),
        "Z/2": lambda: GModule.trivial_mod(g, 2),
        "Z[G/H]": lambda: GModule.permutation(h),
        "Z[G/H] by matrices": lambda: _by_matrices(GModule.permutation(h)),
        "regular": lambda: GModule.regular(g),
        "regular by matrices": lambda: _by_matrices(GModule.regular(g)),
    }[name]()


def _bredon(h, m):
    g = h.parent
    cells = R.takasu_pair_complex(h, 2)
    stabs = {c.stabilizer for level in cells.cells for c in level}
    fam = SubgroupFamily(
        g,
        {k for k in all_subgroups(g) if any(is_subconjugate(k, s) for s in stabs)},
    )
    return R.bredon_complex(cells, R.coinvariants_system(m, R.build_orbit_category(g, fam)))


BUILDERS = {
    "adamson": lambda h, m: R.AdamsonComplex(h, 3).tensor(m),
    "adamson-shifted": lambda h, m: R.AdamsonComplex(h, 3).shifted_tensor(m),
    "resolve": lambda h, m: R.resolve(R.standard_modules(h).i_module, 3).tensor(m),
    "bredon": _bredon,
    "bredon-module": lambda h, m: R.bredon_complex(R.takasu_pair_complex(h, 2), m),
}

CASES = [
    (p, c, b)
    for p in ("C4>C2", "S3>C2", "D4>refl", "A4>C3")
    for c in ("Z", "Z/2", "Z[G/H]", "Z[G/H] by matrices", "regular", "regular by matrices")
    for b in BUILDERS
    if not (c.startswith("regular") and p == "A4>C3")
]


def _joint_relations(rank, blocks):
    cols = []
    for offset, mat in blocks:
        for j in range(mat.cols):
            col = [0] * rank
            for i in range(mat.rows):
                col[offset + i] = mat.entry(i, j)
            cols.append(col)
    if not cols:
        return IntMatrix.zeros(rank, 0)
    return column_image_basis(IntMatrix.from_columns(cols, rows=rank))


def _joint_solve(solver, rank, vec):
    dense = [0] * rank
    for i, x in vec.items():
        dense[i] = x
    sol = solver.solve(dense)
    assert sol is not None
    return {j: y for j, y in enumerate(sol) if y}


def _reference_cone(cx, rels):
    """The cone of `cx` on the joint relations, with one dense solver per
    degree; checks each of the per-block solves against it on the way.
    Without relations the cone is the complex itself."""
    if not any(r.cols for r in rels.values()):
        bounds = {n: cx.boundary(n) for n in range(cx.lo + 1, cx.hi + 1)}
        return ChainComplex(cx.lo, cx.ranks, bounds)
    solvers = {n: IntSolver(r) for n, r in rels.items()}
    ranks = [cx.rank(n) + (rels[n - 1].cols if n > cx.lo else 0)
             for n in range(cx.lo, cx.hi + 2)]
    bounds = {}
    for n in range(cx.lo + 1, cx.hi + 2):
        rows_f, rows_r = cx.rank(n - 1), rels[n - 2].cols if n - 2 >= cx.lo else 0
        heads = cx.boundary(n)._cols + rels[n - 1]._cols
        cols = []
        for head in heads:
            col = [0] * (rows_f + rows_r)
            for i, v in head.items():
                col[i] = v
            img = _sparse_apply(cx.boundary(n - 1)._cols, head) if rows_r else {}
            if img:
                want = _joint_solve(solvers[n - 2], cx.rank(n - 2), img)
                assert cx.solve_relations(n - 2, img) == want
                for i, v in want.items():
                    col[rows_f + i] = -v
            cols.append(col)
        bounds[n] = IntMatrix.from_columns(cols, rows=rows_f + rows_r)
    return ChainComplex(cx.lo, ranks, bounds)


@pytest.mark.parametrize("pair,coeff,builder", CASES)
def test_per_block_route_matches_joint_route(pair, coeff, builder, monkeypatch):
    passed = {}
    init = PresentedComplex.__init__

    def recording(self, lo, ranks, boundaries, relation_blocks=None):
        passed["blocks"] = relation_blocks or {}
        init(self, lo, ranks, boundaries, relation_blocks)

    monkeypatch.setattr(PresentedComplex, "__init__", recording)
    h = _pair(pair)
    cx = BUILDERS[builder](h, _coefficients(h, coeff))
    rels = {
        n: _joint_relations(cx.rank(n), passed["blocks"].get(n, []))
        for n in range(cx.lo, cx.hi + 1)
    }
    for n, want in rels.items():
        assert cx.relations(n) == want, n
    ref = _reference_cone(cx, rels)
    cone = cx.cone()
    assert cone.ranks == ref.ranks
    for n in range(cone.lo + 1, cone.hi + 1):
        assert cone.boundary(n) == ref.boundary(n), n
    for n in range(cx.lo, cx.hi + 1):
        got, want = cx.homology_data(n), ref.homology_data(n)
        assert got.group == want.group
        assert got.generator_cycles() == want.generator_cycles(), n


def _one_block_complex():
    # degree 1: rank 4, blocks 2Z on row 0 and the span of (2, 2) on rows 1-2
    rel = {1: [(1, IntMatrix([[2], [2]])), (0, IntMatrix([[2]]))]}
    return PresentedComplex(0, [1, 4], {1: IntMatrix([[0, 0, 0, 0]])}, rel)


def test_relations_are_sorted_by_offset():
    cx = _one_block_complex()
    assert cx.relations(1) == IntMatrix([[2, 0], [0, 2], [0, 2], [0, 0]])
    assert cx.solve_relations(1, {0: 4, 1: -2, 2: -2}) == {0: 2, 1: -1}


@pytest.mark.parametrize(
    "vec",
    [
        {3: 1},  # nonzero outside every block
        {1: 2, 2: 3},  # inside the second block, not in its span
        {0: 3},  # inside the first block, not divisible
    ],
)
def test_solve_outside_the_lattice_names_the_degree(vec):
    with pytest.raises(ValidationError, match="relation lattice at degree 1"):
        _one_block_complex().solve_relations(1, vec)


def test_overlapping_blocks_name_the_degree():
    rel = {2: [(0, IntMatrix([[2], [0]])), (1, IntMatrix([[3]]))]}
    with pytest.raises(ValidationError, match="overlap at degree 2"):
        PresentedComplex(0, [1, 1, 3], {}, rel)


def test_each_distinct_block_is_reduced_once(monkeypatch):
    calls = []
    reduce = exactla.column_image_basis
    monkeypatch.setattr(exactla, "column_image_basis", lambda m: calls.append(m) or reduce(m))
    block = IntMatrix([[1, -1], [-1, 1]])
    cx = PresentedComplex(0, [6], {}, {0: [(0, block), (2, block), (4, IntMatrix([[2, 0], [0, 2]]))]})
    assert len(calls) == 2
    assert cx.relations(0).cols == 4


def test_sparse_constructor_equals_dense():
    cols = [{0: 1, 2: -3}, {}, {1: 5}]
    sparse = IntMatrix._from_sparse_columns(cols, 3)
    dense = IntMatrix([[1, 0, 0], [0, 0, 5], [-3, 0, 0]])
    assert sparse == dense and dense == sparse
    assert hash(sparse) == hash(dense)
    assert sparse.shape == dense.shape == (3, 3)
    assert sparse._cols == dense._cols == cols
    assert IntMatrix._from_sparse_columns([], 2) == IntMatrix.zeros(2, 0)
    # every constructor stores the columns of the dense rows, without a 0
    # entry or a row outside the matrix, and agrees on == and hash
    pairs = [
        (IntMatrix.zeros(2, 3), IntMatrix([[0, 0, 0], [0, 0, 0]])),
        (IntMatrix.zeros(2, 0), IntMatrix([[], []])),
        (IntMatrix.zeros(0, 2), IntMatrix([], cols=2)),
        (IntMatrix.identity(3), IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
        (IntMatrix.identity(0), IntMatrix([])),
        (IntMatrix.from_columns([[1, 0, -3], [0, 0, 0], [0, 5, 0]]), dense),
        (IntMatrix.from_columns([], rows=2), IntMatrix.zeros(2, 0)),
    ]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want) and got.shape == want.shape
        for mat in (got, want):
            assert len(mat._cols) == mat.cols
            assert all(x and 0 <= i < mat.rows for col in mat._cols for i, x in col.items())
    # the shape is part of the value, also where there are no entries
    assert IntMatrix.zeros(2, 0) != IntMatrix.zeros(3, 0)
    assert IntMatrix.zeros(0, 2) != IntMatrix.zeros(0, 3)
