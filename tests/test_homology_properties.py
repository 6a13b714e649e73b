"""The homology group alone (`homology`, through `rank_z` and
`smith_invariants`) equals the group the dense engine reads with
coordinates (`oracles.DenseHomologyData`).  `homology_data(n).group` is
read by `homology`'s route, and `verify_takasu_les` reads its groups from
it, so the dense engine run on the whole boundaries is the independent
check."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import relhom as R  # noqa: E402
from relhom import GModule, IntMatrix  # noqa: E402

from conftest import alternating4  # noqa: E402
from oracles import DenseHomologyData  # noqa: E402


def _entries(draw, rows, cols, lo=-4, hi=4):
    row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@st.composite
def complexes(draw):
    """A complex Z^r0 <- Z^r1 <- Z^r2 <- Z^r3 with d_k = K_{k-1} M_k, where
    K_{k-1} is a kernel basis of d_{k-1} and M_k a random integer matrix
    whose rows may be scaled, so images sit in kernels with torsion."""
    ranks = draw(st.lists(st.integers(1, 5), min_size=4, max_size=4))
    bounds = {1: IntMatrix(_entries(draw, ranks[0], ranks[1]), cols=ranks[1])}
    for k in (2, 3):
        ker = R.kernel_basis(bounds[k - 1])
        if not ker.cols:
            bounds[k] = IntMatrix.zeros(ranks[k - 1], ranks[k])
            continue
        mix = _entries(draw, ker.cols, ranks[k])
        scales = draw(st.lists(st.sampled_from([1, 1, 2, 3, 4, 6]), min_size=ker.cols, max_size=ker.cols))
        mix = [[s * x for x in row] for s, row in zip(scales, mix)]
        bounds[k] = ker @ IntMatrix(mix, cols=ranks[k])
    return R.ChainComplex(0, ranks, bounds)


def _dense_group(cx, n):
    """The group at degree n read densely, on the cone of a presented
    complex (whose homology is the cone's)."""
    if isinstance(cx, R.PresentedComplex):
        cx = cx.cone()
    return DenseHomologyData(cx.boundary(n), cx.boundary(n + 1)).group


@settings(derandomize=True, deadline=None, max_examples=150)
@given(complexes())
def test_group_read_matches_homology_on_random_complexes(cx):
    for n in range(cx.lo, cx.hi + 1):
        assert cx.homology(n) == _dense_group(cx, n), n


def _pairs():
    c4 = R.cyclic_group(4)
    s3 = R.symmetric_group(3)
    a4 = alternating4()
    d5 = R.dihedral_group(5)
    return [
        c4.subgroup_generated([2]),
        s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)]),
        a4.subgroup_generated([next(g for g in a4.elements() if a4.element_order(g) == 3)]),
        d5.subgroup_generated([next(g for g in d5.elements() if d5.element_order(g) == 2)]),
    ]


PAIRS = _pairs()
MODULES = ("Z", "Z/2", "Z/6", "Z[G/H]", "regular")


def _module(name, h):
    G = h.parent
    if name == "Z":
        return GModule.trivial(G)
    if name.startswith("Z/"):
        return GModule.trivial_mod(G, int(name[2:]))
    if name == "Z[G/H]":
        return GModule.permutation(h)
    return GModule.regular(G)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.sampled_from(range(len(PAIRS))), st.sampled_from(MODULES), st.integers(2, 3))
def test_group_read_matches_homology_on_tor_cones(pair, mod, length):
    h = PAIRS[pair]
    std = R.standard_modules(h)
    cx = R.resolve(std.i_module, length).tensor(_module(mod, h))
    for n in range(length):
        assert cx.homology(n) == _dense_group(cx, n), n
