"""The exact sparse kernels.  The unit-pivot front must leave its matrix
alone, give the same result with and without a pivot list, and record
pivots that replay its elimination step by step under its pivot rule.  The
in-place lattice reduction must give the same bases and remainders as the
copying version it replaced (`tests/oracles.py`) without touching its
arguments.  The Smith invariants memoized on an `IntMatrix` must read the
same through `smith_invariants` and `rank_z`, and a caller that mutates the
list it gets must not change the next answer."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import relhom as R  # noqa: E402
from relhom import IntMatrix  # noqa: E402
from relhom.exactla import LatticeAccumulator, _unit_pivot_reduce  # noqa: E402

from oracles import CopyingLatticeAccumulator  # noqa: E402
from test_smith_properties import EMPTY, NO_UNITS, TALL, UNIT_HEAVY, WIDE  # noqa: E402

MATRICES = st.one_of(UNIT_HEAVY, NO_UNITS, EMPTY, WIDE, TALL)


def _signature(mat):
    return mat.shape, [list(col.items()) for col in mat._cols]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(MATRICES)
def test_unit_pivot_front_is_the_same_with_and_without_a_pivot_list(a):
    before = _signature(a)
    pivots = []
    q1, rest1, rows1, cols1 = _unit_pivot_reduce(a, pivots)
    assert _signature(a) == before
    q2, rest2, rows2, cols2 = _unit_pivot_reduce(a)
    assert q1 == [p[1] for p in pivots]
    assert (q2, _signature(rest2), rows2, cols2) == (q1, _signature(rest1), rows1, cols1)
    assert _signature(a) == before


def _replay(a, pivots):
    """`a` densely eliminated along `pivots`, each record checked against
    the working matrix, and each pivot against the rule: the shortest live
    column with a unit entry, the shortest row among its units, the least
    row on a tie.  Returns the working matrix and the live rows and
    columns."""
    work = a.to_rows()
    live_rows, live_cols = set(range(a.rows)), set(range(a.cols))

    def col_len(j):
        return sum(1 for i in live_rows if work[i][j])

    def row_len(i):
        return sum(1 for j in live_cols if work[i][j])

    for r, c, u, row, col in pivots:
        assert r in live_rows and c in live_cols
        assert u in (1, -1) and work[r][c] == u
        assert sorted(row.items()) == [(j, work[r][j]) for j in sorted(live_cols) if j != c and work[r][j]]
        assert col == {i: work[i][c] for i in live_rows if i != r and work[i][c]}
        unit_cols = [j for j in live_cols if any(work[i][j] in (1, -1) for i in live_rows)]
        assert col_len(c) == min(map(col_len, unit_cols))
        units = [i for i in live_rows if work[i][c] in (1, -1)]
        assert (row_len(r), r) == min((row_len(i), i) for i in units)
        for i in col:
            q = work[i][c] * u
            work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        live_rows.discard(r)
        live_cols.discard(c)
    return work, live_rows, live_cols


@settings(derandomize=True, deadline=None, max_examples=400)
@given(MATRICES)
def test_pivot_record_replays_the_elimination(a):
    pivots = []
    _q, rest, rows, cols = _unit_pivot_reduce(a, pivots)
    work, live_rows, live_cols = _replay(a, pivots)
    assert rows == sorted(i for i in live_rows if any(work[i][j] for j in live_cols))
    assert cols == sorted(j for j in live_cols if any(work[i][j] for i in live_rows))
    assert rest.to_rows() == [[work[i][j] for j in cols] for i in rows]
    assert not any(work[i][j] in (1, -1) for i in live_rows for j in live_cols)


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
    # one unit pivot, on column 0 or 1, whose column the memo keeps
    assert memo[:2] == (1, [2]) and memo[2] in ((0,), (1,))
    inv.clear()
    assert R.rank_z(a) == 2
    assert a._smith is memo
    assert R.smith_invariants(a) == [1, 2]
    # derived matrices start without a memo
    assert (a @ IntMatrix.identity(2))._smith is None
    assert a.scale(3)._smith is None


def test_every_front_keeps_its_pivot_columns_as_a_tuple():
    # Z^2 <-d1- Z^3 <-d2- Z: column 2 of d1 has no unit, so d1's front
    # pivots on columns 0 and 1, and d2 is fronted on its row 2 alone
    d1 = IntMatrix([[1, 0, 2], [0, 1, 2]])
    d2 = IntMatrix([[-4], [-4], [2]])
    assert R.homology_group(d1, d2) == R.FgAbGroup(0, [2])
    k, rest, pivots = d1._smith
    assert (k, rest) == (2, []) and type(pivots) is tuple and sorted(pivots) == [0, 1]
    assert d2._smith == (0, [2], ())
    # a memo made outside `homology_group` keeps them too, and is read as it is
    e1, e2 = IntMatrix(d1.to_rows()), IntMatrix(d2.to_rows())
    assert R.rank_z(e1) == 2 and e1._smith == d1._smith
    assert R.homology_group(e1, e2) == R.FgAbGroup(0, [2])
    assert e1._smith == d1._smith and e2._smith == (0, [2], ())


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
