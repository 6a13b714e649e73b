"""Property tests of the Smith engine against sympy as an independent
oracle, on small integer matrices."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

import relhom as R  # noqa: E402
from relhom import IntMatrix  # noqa: E402


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
