"""`HomologyData` against the dense reference `oracles.DenseHomologyData`
and sympy's Smith form, on small complexes with d d = 0.

`HomologyData` reads its group from the sparse unit-pivot front and runs
the dense engine only when the group is nonzero, with the reference's
code, so its generators and coordinates must be the reference's, value for
value.  When the group is 0 there are no coordinates, but a vector that is
not a cycle must still be refused."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

import relhom as R  # noqa: E402
from relhom import FgAbGroup, HomologyData, IntMatrix, ValidationError, exactla  # noqa: E402

from oracles import DenseHomologyData  # noqa: E402


def _matrix(draw, rows, cols, lo=-3, hi=3):
    row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
    return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


@st.composite
def complexes(draw):
    """A complex Z^r0 <- Z^r1 <- Z^r2 <- Z^r3 whose boundaries are products
    d_k = K_{k-1} M_k: K_{k-1} a kernel basis of d_{k-1} and M_k a random
    matrix, or, half the time when it fits, a random matrix that begins
    with an identity block, so that d_k maps onto the kernel and the
    homology below it is 0.  Rows of M_k are scaled now and then, so
    kernels carry torsion modulo the image."""
    ranks = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    bounds = {1: _matrix(draw, ranks[0], ranks[1])}
    for k in (2, 3):
        ker = R.kernel_basis(bounds[k - 1])
        mix = _matrix(draw, ker.cols, ranks[k]).to_rows()
        if ranks[k] >= ker.cols and draw(st.booleans()):
            for i, row in enumerate(mix):
                row[: ker.cols] = [int(i == j) for j in range(ker.cols)]
        else:
            scale = st.sampled_from([1, 1, 2, 3, 6])
            scales = draw(st.lists(scale, min_size=ker.cols, max_size=ker.cols))
            mix = [[s * x for x in row] for s, row in zip(scales, mix)]
        bounds[k] = ker @ IntMatrix(mix, cols=ranks[k])
    return R.ChainComplex(0, ranks, bounds)


def _sympy_group(dn, dnp1):
    """ker(dn)/im(dnp1) from sympy's ranks and Smith form."""
    rank = sympy.Matrix(dn.to_rows()).rank() if dn.rows and dn.cols else 0
    inv = []
    if dnp1.rows and dnp1.cols:
        snf = smith_normal_form(sympy.Matrix(dnp1.to_rows()), domain=sympy.ZZ)
        inv = [abs(int(snf[i, i])) for i in range(min(dnp1.shape)) if snf[i, i]]
    return FgAbGroup(dn.cols - rank - len(inv), [d for d in inv if d > 1])


def _cycles(dn, dnp1, coeffs):
    """Cycles to read coordinates of: kernel columns of dn plus boundaries,
    combined with small coefficients."""
    ker = R.kernel_basis(dn)
    gens = ker.columns() + dnp1.columns()
    out = []
    for cs in coeffs:
        vec = [0] * dn.cols
        for c, g in zip(cs, gens):
            vec = [v + c * x for v, x in zip(vec, g)]
        out.append(vec)
    return out


@settings(derandomize=True, deadline=None, max_examples=200)
@given(complexes(), st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8), min_size=1, max_size=3))
def test_homology_data_matches_dense_reference(cx, coeffs):
    for n in range(cx.lo, cx.hi + 1):
        dn, dnp1 = cx.boundary(n), cx.boundary(n + 1)
        ref = DenseHomologyData(dn, dnp1)
        for hd in (HomologyData(dn, dnp1), cx.homology_data(n)):
            assert hd.group == ref.group == _sympy_group(dn, dnp1), n
            assert hd.degree_rank == ref.degree_rank
            assert hd.generator_cycles() == ref.generator_cycles()
            for gen in ref.generator_cycles():
                assert hd.coords_of_cycle(gen) == ref.coords_of_cycle(gen)
            for vec in _cycles(dn, dnp1, coeffs):
                assert hd.coords_of_cycle(vec) == ref.coords_of_cycle(vec)
            if hd.group.is_trivial():
                assert hd.generator_cycles() == []
            _check_refusals(hd, dn)


def _check_refusals(hd, dn):
    with pytest.raises(ValidationError, match="cycle vector length mismatch"):
        hd.coords_of_cycle([0] * (dn.cols + 1))
    for j in range(dn.cols):
        if any(dn.column(j)):
            unit = [int(i == j) for i in range(dn.cols)]
            with pytest.raises(ValidationError, match="vector is not a cycle"):
                hd.coords_of_cycle(unit)


def test_zero_group_refuses_a_vector_that_is_not_a_cycle():
    # Z <-(1 1)- Z^2 <-(1 -1)^T- Z: exact in degree 1
    d1 = IntMatrix([[1, 1]])
    d2 = IntMatrix([[1], [-1]])
    hd = HomologyData(d1, d2)
    assert hd.group.is_trivial()
    assert hd.generator_cycles() == []
    assert hd.coords_of_cycle([2, -2]) == []
    with pytest.raises(ValidationError, match="vector is not a cycle"):
        hd.coords_of_cycle([1, 0])
    with pytest.raises(ValidationError, match="cycle vector length mismatch"):
        hd.coords_of_cycle([1])


def test_direct_construction_keeps_its_refusals():
    with pytest.raises(ValidationError, match="boundary shapes are not composable"):
        HomologyData(IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1))
    # the composite is nonzero, and the group would be 0 at the shapes
    with pytest.raises(ValidationError, match="boundaries do not compose to zero"):
        HomologyData(IntMatrix([[1, 0]]), IntMatrix([[1], [0]]))
    with pytest.raises(ValidationError, match="boundaries do not compose to zero"):
        HomologyData(IntMatrix([[1, 0], [0, 0]]), IntMatrix([[1], [1]]))


def test_front_and_dense_engine_must_agree_on_a_nonzero_group(monkeypatch):
    # Z <-0- Z <-(2 0)- Z^2: degree-1 homology Z/2
    d1, d2 = IntMatrix([[0]]), IntMatrix([[2, 0]])
    assert HomologyData(d1, d2).group == FgAbGroup(0, [2])
    real = exactla._smith_split

    def wrong(a, cut=()):
        k, rest, pivots = real(a, cut)
        return (k, [3], pivots) if a is d2 else (k, rest, pivots)

    monkeypatch.setattr(exactla, "_smith_split", wrong)
    assert R.homology_group(d1, d2) == FgAbGroup(0, [3])
    with pytest.raises(ValidationError, match=r"Z/3 from the sparse front disagrees with Z/2"):
        HomologyData(d1, d2)
    # a free rank the front gets wrong is caught as well
    monkeypatch.setattr(exactla, "_smith_split", lambda a, cut=(): (0, [], ()))
    with pytest.raises(ValidationError, match=r"Z from the sparse front disagrees with Z/2"):
        HomologyData(d1, d2)
