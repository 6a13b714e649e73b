"""Property tests of the Smith engine against sympy as an independent
oracle, on small integer matrices and on matrices up to 10 x 10 with
entries up to 2^200 in size, and of the sparse unit-pivot front of
`smith_invariants` and `rank_z` against sympy and the dense engine run
directly, on unit-heavy, unit-free, empty, wide and tall matrices."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

import relhom as R  # noqa: E402
from relhom import IntMatrix, IntSolver  # noqa: E402
from relhom.exactla import _Eliminator, _unit_pivot_reduce  # noqa: E402


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_matrices())
def test_smith_invariants_match_sympy(a):
    snf = smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
    want = [abs(int(snf[i, i])) for i in range(min(a.rows, a.cols)) if snf[i, i]]
    assert [abs(d) for d in R.smith_invariants(a)] == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_matrices())
def test_kernel_basis_spans_the_kernel_rank(a):
    ker = R.kernel_basis(a)
    assert ker.rows == a.cols
    assert ker.cols == a.cols - R.rank_z(a)
    for j in range(ker.cols):
        assert not any(a.apply(ker.column(j)))


def _sparse(entries, max_rows=12, max_cols=16):
    """Matrices up to max_rows x max_cols (either side may be 0) whose
    entries are drawn from `entries`."""

    @st.composite
    def draw_matrix(draw):
        rows = draw(st.integers(0, max_rows))
        cols = draw(st.integers(0, max_cols))
        row = st.lists(st.sampled_from(entries), min_size=cols, max_size=cols)
        return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    return draw_matrix()


# mostly zeros and +-1, so that unit pivots chain and fill in
UNIT_HEAVY_ENTRIES = [0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -3]
UNIT_HEAVY = _sparse(UNIT_HEAVY_ENTRIES)


def _narrow(tall):
    """1..6 rows and at least twice as many columns, up to 30, with the
    UNIT_HEAVY entries; transposed when `tall`."""

    @st.composite
    def draw_matrix(draw):
        short = draw(st.integers(1, 6))
        long = draw(st.integers(2 * short, 30))
        rows, cols = (long, short) if tall else (short, long)
        row = st.lists(st.sampled_from(UNIT_HEAVY_ENTRIES), min_size=cols, max_size=cols)
        return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    return draw_matrix()


WIDE = _narrow(tall=False)
TALL = _narrow(tall=True)
# no unit entry at all: the front splits nothing off by itself
NO_UNITS = _sparse([0, 0, 0, 2, -2, 3, 4, -6], max_rows=6, max_cols=7)
EMPTY = st.one_of(
    st.integers(0, 5).map(lambda n: IntMatrix.zeros(0, n)),
    st.integers(0, 5).map(lambda n: IntMatrix.zeros(n, 0)),
)


def _sympy_invariants(a):
    if not a.rows or not a.cols:
        return []
    snf = smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(min(a.rows, a.cols)) if snf[i, i])


def _dense(a):
    eng = _Eliminator(a)
    eng.diagonalize()
    eng.make_divisible()
    return eng.diag(), eng.rank


def _check_front(a):
    inv = R.smith_invariants(a)
    dense_inv, dense_rank = _dense(a)
    assert inv == dense_inv
    assert R.rank_z(a) == dense_rank == len(inv)
    assert inv == _sympy_invariants(a)
    q, rest, rows, cols = _unit_pivot_reduce(a)
    k = len(q)
    assert len(set(q)) == len(q) and not set(q) & set(cols) and all(0 <= j < a.cols for j in q)
    assert k <= min(a.rows, a.cols)
    assert not any(x in (1, -1) for row in rest.data for x in row)
    assert all(any(row) for row in rest.data)
    assert all(any(rest.column(j)) for j in range(rest.cols))
    assert [1] * k + _dense(rest)[0] == inv
    # R in `a`'s orientation, on rows and columns of `a` the pivots left
    assert rest.shape == (len(rows), len(cols))
    assert rows == sorted(set(rows)) and cols == sorted(set(cols))
    assert all(0 <= i < a.rows for i in rows) and all(0 <= j < a.cols for j in cols)
    assert k + len(rows) <= a.rows and k + len(cols) <= a.cols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(UNIT_HEAVY)
def test_unit_pivot_front_on_unit_heavy_matrices(a):
    _check_front(a)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(NO_UNITS)
def test_unit_pivot_front_on_matrices_without_units(a):
    _check_front(a)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(EMPTY)
def test_unit_pivot_front_on_empty_shapes(a):
    _check_front(a)
    assert R.smith_invariants(a) == [] and R.rank_z(a) == 0


def _transpose(a):
    return IntMatrix.from_columns(a.to_rows(), rows=a.cols)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(WIDE, TALL))
def test_unit_pivot_front_on_wide_and_tall_matrices(a):
    _check_front(a)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(WIDE, TALL, UNIT_HEAVY))
def test_a_matrix_and_its_transpose_have_the_same_invariants(a):
    assert R.smith_invariants(a) == R.smith_invariants(_transpose(a))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.one_of(WIDE, TALL))
def test_rank_reads_the_same_before_and_after_the_invariants(a):
    fresh = IntMatrix(a.to_rows(), cols=a.cols)
    rank = R.rank_z(a)
    inv = R.smith_invariants(a)
    assert R.rank_z(a) == rank == len(inv) == len(R.smith_invariants(fresh))
    assert R.rank_z(fresh) == rank


@st.composite
def large_matrices(draw):
    """1..10 rows and columns with entries up to 2^64 in size, or up to
    2^200 or up to 2^6 in a quarter of the draws each.  In half of the
    draws, the rows past a drawn rank are small combinations of the rows
    before them, and up to two rows and two columns are zero."""
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 10))
    bound = 2 ** draw(st.sampled_from([64, 64, 200, 6]))
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        rank = draw(st.integers(0, rows))
        for i in range(rank, rows):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
            data[i] = [sum(c * data[k][j] for k, c in enumerate(coeffs)) for j in range(cols)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            data[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for r in data:
                r[j] = 0
    return IntMatrix(data, cols=cols)


LARGE = large_matrices()
# shrinking 64- and 200-bit entries takes minutes; a failure is reported
# with the example hypothesis generated
NO_SHRINK = [Phase.explicit, Phase.generate]
# the dense engine needs three rounds of echelon passes here; invariants
# 1, 1, 4, 960
THREE_ROUNDS = IntMatrix(
    [[47, 7, 23, 29], [47, 47, -31, -33], [18, -2, 33, 21], [21, -19, -15, 39]]
)


def _off_diagonal(s):
    return [(i, j) for i in range(s.rows) for j in range(s.cols) if i != j and s.entry(i, j)]


@settings(derandomize=True, deadline=None, max_examples=100, phases=NO_SHRINK)
@given(LARGE)
@example(THREE_ROUNDS)
def test_smith_form_on_large_entries(a):
    f = R.smith_form(a)
    assert f.u @ f.s @ f.v == a
    assert abs(f.u.det()) == 1 and abs(f.v.det()) == 1
    assert not _off_diagonal(f.s)
    inv = f.invariants
    assert all(d > 0 for d in inv)
    assert all(e % d == 0 for d, e in zip(inv, inv[1:]))
    assert [f.s.entry(t, t) for t in range(len(inv))] == inv
    assert inv == _sympy_invariants(a)


@settings(derandomize=True, deadline=None, max_examples=100, phases=NO_SHRINK)
@given(LARGE)
@example(THREE_ROUNDS)
def test_kernel_basis_on_large_entries(a):
    ker = R.kernel_basis(a)
    rank = R.rank_z(a)
    assert rank == len(_sympy_invariants(a))
    assert ker.shape == (a.cols, a.cols - rank)
    assert (a @ ker).is_zero()
    # saturated: Z^cols / ker is free, so ker is all of the integer kernel
    assert R.smith_invariants(ker) == [1] * ker.cols


@st.composite
def large_systems(draw):
    a = draw(LARGE)
    bound = 2**64
    x0 = draw(st.lists(st.integers(-bound, bound), min_size=a.cols, max_size=a.cols))
    return a, x0


@settings(derandomize=True, deadline=None, max_examples=100, phases=NO_SHRINK)
@given(large_systems())
@example((THREE_ROUNDS, [3, -1, 4, 1]))
def test_solver_on_large_entries(system):
    a, x0 = system
    b = a.apply(x0)
    x = IntSolver(a).solve(b)
    assert x is not None and a.apply(x) == b


@settings(derandomize=True, deadline=None, max_examples=100, phases=NO_SHRINK)
@given(LARGE)
@example(THREE_ROUNDS)
def test_dense_engine_diagonalizes_large_entries(a):
    eng = _Eliminator(a, track_r=True, track_c=True)
    eng.diagonalize()
    s = eng.s_matrix()
    assert IntMatrix(eng.r, cols=a.rows) @ a @ IntMatrix(eng.c, cols=a.cols) == s
    assert not _off_diagonal(s)
    assert eng.rank == R.rank_z(a)
    assert all(d > 0 for d in eng.diag())
    assert not any(s.entry(t, t) for t in range(eng.rank, min(a.rows, a.cols)))
