"""The front of d_{n+1} cut by the pivot columns of d_n's front.

`homology_group` fronts d_n first and keeps the columns its unit pivots
took; d_{n+1} is then fronted without those rows, which are integer
combinations of its other rows because d_n d_{n+1} = 0.  On random
complexes rich in +-1 entries, every group must equal the one the dense
engine reads (`oracles.DenseHomologyData`) and the one the complex was
built to have, whichever order the degrees are asked in, and the Smith
invariants memoized by a cut front must be sympy's for the whole matrix.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

import relhom as R  # noqa: E402
from relhom import FgAbGroup, IntMatrix  # noqa: E402

from oracles import DenseHomologyData  # noqa: E402
from test_smith_properties import _sympy_invariants  # noqa: E402

TOP = 4


def _unimodular(n, ops):
    """P and P^-1 for P the product of the row operations `ops`, each
    (i, j, q): add q times row j to row i, or swap them when q is 0."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for i, j, q in ops:
        if q:
            p[i] = [a + q * b for a, b in zip(p[i], p[j])]
            for row in pinv:
                row[j] -= q * row[i]
        else:
            p[i], p[j] = p[j], p[i]
            for row in pinv:
                row[i], row[j] = row[j], row[i]
    return p, pinv


def _mul(a, b, cols):
    return [[sum(x * b[t][j] for t, x in enumerate(row) if x) for j in range(cols)] for row in a]


@st.composite
def unit_complexes(draw):
    """(ranks, boundary rows, expected groups) of a complex C_0 <- ... <-
    C_TOP: a direct sum of pieces Z --d--> Z (d mostly +-1, sometimes 2 or
    3) and free summands, with each C_k's basis changed by a product of
    elementary operations with multipliers +-1 and 2.  The boundaries stay
    sparse and rich in units, and their fronts pivot on many columns."""
    ranks = draw(st.lists(st.integers(0, 6), min_size=TOP + 1, max_size=TOP + 1))
    unused = [draw(st.permutations(range(r))) for r in ranks]
    pieces = {}
    for k in range(1, TOP + 1):
        count = draw(st.integers(0, min(len(unused[k]), len(unused[k - 1]))))
        pieces[k] = [
            (unused[k - 1].pop(), unused[k].pop(), draw(st.sampled_from([1, 1, 1, -1, -1, 2, 3])))
            for _ in range(count)
        ]
    changes = []
    for r in ranks:
        op = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.sampled_from([0, 1, -1, 2]))
        ops = draw(st.lists(op.filter(lambda t: t[0] != t[1]), max_size=2 * r)) if r > 1 else []
        changes.append(_unimodular(r, ops))
    bounds = {}
    for k in range(1, TOP + 1):
        d = [[0] * ranks[k] for _ in range(ranks[k - 1])]
        for i, j, x in pieces[k]:
            d[i][j] = x
        d = _mul(_mul(changes[k - 1][0], d, ranks[k]), changes[k][1], ranks[k])
        bounds[k] = d
    want = [
        FgAbGroup(len(unused[n]), [abs(x) for _, _, x in pieces.get(n + 1, ()) if abs(x) > 1])
        for n in range(TOP + 1)
    ]
    return ranks, bounds, want


def _fresh(ranks, bounds):
    """A new complex with new matrices, so no front is memoized yet."""
    mats = {k: IntMatrix(rows, cols=ranks[k]) for k, rows in bounds.items()}
    return R.ChainComplex(0, ranks, mats)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(unit_complexes(), st.randoms(use_true_random=False))
def test_groups_do_not_depend_on_the_order_the_degrees_are_asked_in(data, rnd):
    ranks, bounds, want = data
    degrees = list(range(TOP + 1))
    ref = _fresh(ranks, bounds)
    assert [DenseHomologyData(ref.boundary(n), ref.boundary(n + 1)).group for n in degrees] == want
    shuffled = degrees[:]
    rnd.shuffle(shuffled)
    for order in (degrees, degrees[::-1], shuffled):
        cx = _fresh(ranks, bounds)
        got = {n: cx.homology(n) for n in order}
        assert [got[n] for n in degrees] == want, order
    # with coordinates, in the shuffled order: the dense engine checks the cut
    cx = _fresh(ranks, bounds)
    assert [cx.homology_data(n).group for n in shuffled] == [want[n] for n in shuffled]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(unit_complexes())
def test_a_cut_front_memoizes_the_invariants_of_the_whole_matrix(data):
    ranks, bounds, _ = data
    cx = _fresh(ranks, bounds)
    for n in range(TOP + 1):
        cx.homology(n)
    for k in range(2, TOP + 1):
        below, d = cx.boundary(k - 1), cx.boundary(k)
        k_below, _, cut = below._smith
        # ascending, every boundary above the lowest is fronted with a cut
        assert type(cut) is tuple and len(cut) == k_below
        assert type(d._smith[2]) is tuple
        assert R.smith_invariants(d) == _sympy_invariants(d), k


def test_random_degree_orders_on_a_tensored_complex():
    # the Adamson complex of S3 > C2 with regular coefficients, asked fresh
    # in shuffled orders, against the dense engine
    g = R.symmetric_group(3)
    t = next(x for x in g.elements() if g.element_order(x) == 2)
    h = g.subgroup_generated([t])
    m = R.GModule.regular(g)
    degrees = list(range(TOP))
    cone = R.AdamsonComplex(h, TOP, rank_cap=10 ** 6).tensor(m, 10 ** 6).cone()
    want = [DenseHomologyData(cone.boundary(n), cone.boundary(n + 1)).group for n in degrees]
    rnd = random.Random(5)
    for _ in range(3):
        rnd.shuffle(degrees)
        fresh = R.AdamsonComplex(h, TOP, rank_cap=10 ** 6).tensor(m, 10 ** 6)
        assert [fresh.homology(n) for n in degrees] == [want[n] for n in degrees]
