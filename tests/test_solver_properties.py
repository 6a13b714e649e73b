"""Property tests of `IntSolver`, which splits off unit pivots sparsely and
eliminates only the residual densely, against the dense solver of the whole
matrix (`oracles.DenseSolver`): on every matrix the two agree on the rank
and on whether a right-hand side has an integral solution, and every
answer solves the system."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from relhom import IntSolver  # noqa: E402

from oracles import DenseSolver  # noqa: E402
from test_smith_properties import EMPTY, NO_UNITS, TALL, UNIT_HEAVY, WIDE  # noqa: E402


@st.composite
def systems(draw, matrices):
    """A matrix with right-hand sides: images a*x, which are solvable, and
    arbitrary vectors, which mostly are not."""
    a = draw(matrices)
    coeffs = st.lists(st.integers(-3, 3), min_size=a.cols, max_size=a.cols)
    rhs = [a.apply(x) for x in draw(st.lists(coeffs, min_size=1, max_size=2))]
    entries = st.lists(st.integers(-4, 4), min_size=a.rows, max_size=a.rows)
    rhs += draw(st.lists(entries, min_size=1, max_size=2))
    return a, rhs


def _check_solver(a, rhs):
    solver, dense = IntSolver(a), DenseSolver(a)
    assert (solver.m, solver.n) == (a.rows, a.cols)
    assert solver.rank == dense.rank
    for b in rhs:
        x = solver.solve(b)
        assert (x is None) == (dense.solve(b) is None), b
        if x is not None:
            assert len(x) == a.cols
            assert a.apply(x) == b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems(UNIT_HEAVY))
def test_solver_on_unit_heavy_matrices(system):
    _check_solver(*system)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(systems(NO_UNITS))
def test_solver_on_matrices_without_units(system):
    _check_solver(*system)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems(WIDE))
def test_solver_on_wide_matrices(system):
    _check_solver(*system)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(systems(TALL))
def test_solver_on_tall_matrices(system):
    _check_solver(*system)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(systems(EMPTY))
def test_solver_on_empty_shapes(system):
    a, rhs = system
    _check_solver(a, rhs)
    assert IntSolver(a).rank == 0
    for b in rhs:
        assert IntSolver(a).solve(b) == ([0] * a.cols if not any(b) else None)
