"""The exact sparse kernels against the versions they replaced
(`tests/oracles.py`): the unit-pivot front with its tightened pivot search
must give bit-identical pivots and residuals, dict orders included, and the
in-place lattice reduction must give identical bases and remainders without
touching its arguments.  The Smith invariants memoized on an `IntMatrix`
must read the same through `smith_invariants` and `rank_z`, and a caller
that mutates the list it gets must not change the next answer."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import relhom as R  # noqa: E402
from relhom import IntMatrix  # noqa: E402
from relhom.exactla import LatticeAccumulator, _unit_pivot_reduce  # noqa: E402

from oracles import CopyingLatticeAccumulator, listing_unit_pivot_reduce  # noqa: E402
from test_smith_properties import EMPTY, NO_UNITS, UNIT_HEAVY  # noqa: E402


@st.composite
def wide_matrices(draw):
    """0..4 rows and at least twice as many columns, mostly 0 and +-1."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(2 * rows, 2 * rows + 12))
    row = st.lists(st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2]), min_size=cols, max_size=cols)
    return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


MATRICES = st.one_of(UNIT_HEAVY, NO_UNITS, EMPTY, wide_matrices())


def _signature(mat):
    return mat.shape, [list(col.items()) for col in mat._cols]


def _pivot_signature(pivots):
    return [(r, c, u, list(row), list(col.items())) for r, c, u, row, col in pivots]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(MATRICES)
def test_unit_pivot_front_is_bit_identical_to_the_listing_kernel(a):
    before = _signature(a)
    old_pivots, new_pivots = [], []
    k0, rest0, rows0, cols0 = listing_unit_pivot_reduce(a, old_pivots)
    k1, rest1, rows1, cols1 = _unit_pivot_reduce(a, new_pivots)
    assert k1 == k0
    assert _signature(rest1) == _signature(rest0)
    assert (rows1, cols1) == (rows0, cols0)
    assert _pivot_signature(new_pivots) == _pivot_signature(old_pivots)
    k2, rest2 = _unit_pivot_reduce(a)
    assert (k2, _signature(rest2)) == (k0, _signature(rest0))
    assert _signature(a) == before


@settings(derandomize=True, deadline=None, max_examples=200)
@given(MATRICES, st.booleans())
def test_memoized_invariants_read_the_same_either_way(a, rank_first):
    fresh = IntMatrix(a.to_rows(), cols=a.cols)
    want = R.smith_invariants(fresh)
    if rank_first:
        assert R.rank_z(a) == len(want)
        assert R.smith_invariants(a) == want
    else:
        assert R.smith_invariants(a) == want
        assert R.rank_z(a) == len(want)
    assert a == fresh and hash(a) == hash(fresh)
    got = R.smith_invariants(a)
    got.append(7)
    got[:1] = [5]
    assert R.smith_invariants(a) == want
    assert R.rank_z(a) == len(want)


def test_memo_is_filled_once_and_copied_out():
    a = IntMatrix([[2, 4], [6, 8], [1, 1]])
    assert a._smith is None
    inv = R.smith_invariants(a)
    assert inv == [1, 2]
    memo = a._smith
    assert memo == (1, [2])
    inv.clear()
    assert R.rank_z(a) == 2
    assert a._smith is memo
    assert R.smith_invariants(a) == [1, 2]
    # derived matrices start without a memo
    assert (a @ IntMatrix.identity(2))._smith is None
    assert a.scale(3)._smith is None


VECTORS = st.dictionaries(
    st.integers(0, 5),
    st.integers(-9, 9).filter(bool),
    max_size=6,
)


def _basis(acc):
    return [(r, list(p.items())) for r, p in acc.pivots.items()]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(VECTORS, max_size=10), st.lists(VECTORS, max_size=6))
def test_in_place_lattice_matches_the_copying_kernel(inserted, probes):
    new, old = LatticeAccumulator(6), CopyingLatticeAccumulator(6)
    for vec in inserted:
        arg = dict(vec)
        assert new.insert(arg) == old.insert(dict(vec))
        assert list(arg.items()) == list(vec.items())
        assert _basis(new) == _basis(old)
    for vec in probes + new.basis_columns():
        before = list(vec.items())
        basis = _basis(new)
        got, want = new.remainder(vec), old.remainder(vec)
        assert list(got.items()) == list(want.items())
        assert list(vec.items()) == before
        assert _basis(new) == basis
        assert (not got) == new.contains([vec.get(i, 0) for i in range(6)])


def test_remainder_of_a_basis_column_leaves_it_alone():
    acc = LatticeAccumulator.spanned_by(IntMatrix([[2, 1], [0, 3], [1, 1]]))
    cols = acc.basis_columns()
    saved = [dict(c) for c in cols]
    for col in cols:
        assert acc.remainder(col) == {}
    assert cols == saved
    twice = {r: 2 * x for r, x in cols[0].items()}
    assert acc.remainder(twice) == {}
    assert twice == {r: 2 * x for r, x in saved[0].items()}
