"""Coordinate-free homology against the dense coordinate route on orbit
shapes.

`homology(n)` reads the group from `rank_z` and `smith_invariants`, which
split off unit pivots sparsely before the dense Smith engine;
`oracles.DenseHomologyData` reduces the boundary image to a lattice basis
and runs the dense engine with transforms on the whole boundaries, in
every degree.  The two routes must give the same group
in every degree that the orbit benchmark jobs read (the top degree of a
truncated coset-tuple complex is left out), and the first must not reduce
any lattice basis even where a boundary is wider than tall.
"""

import pytest

import relhom as R
from relhom import GModule, exactla

from conftest import alternating4
from oracles import DenseHomologyData


def _adamson(group, gens, coeff, top):
    h = group.subgroup_generated(gens)
    m = GModule.permutation(h) if coeff == "Z[G/H]" else GModule.regular(group)
    return R.AdamsonComplex(h, top + 1).tensor(m), range(top + 1)


def _bredon(group, gens):
    h = group.subgroup_generated(gens)
    cx = R.bredon_complex(R.takasu_pair_complex(h, 2), GModule.regular(group))
    return cx, range(cx.lo, cx.hi + 1)


CASES = {
    "adamson A4>C3 regular 0..3": lambda: _adamson(alternating4(), [1], "regular", 3),
    "adamson D5>C2 Z[G/H] 0..3": lambda: _adamson(R.dihedral_group(5), [5], "Z[G/H]", 3),
    "adamson S4>S3 regular 0..2": lambda: _adamson(R.symmetric_group(4), [2, 6], "regular", 2),
    "bredon C4>C2 regular": lambda: _bredon(R.cyclic_group(4), [2]),
    "bredon C6>C2 regular": lambda: _bredon(R.cyclic_group(6), [3]),
    "bredon S3>C2 regular": lambda: _bredon(R.symmetric_group(3), [1]),
}


def _counting(monkeypatch):
    calls = [0]
    real = exactla.column_image_basis

    def counted(mat):
        calls[0] += 1
        return real(mat)

    monkeypatch.setattr(exactla, "column_image_basis", counted)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_group_read_matches_coordinate_route(case, monkeypatch):
    presented, degrees = CASES[case]()
    cone = presented.cone()
    calls = _counting(monkeypatch)
    groups = [cone.homology(n) for n in degrees]
    assert calls[0] == 0
    for n, group in zip(degrees, groups):
        assert group == DenseHomologyData(cone.boundary(n), cone.boundary(n + 1)).group, n


def test_wide_cone_boundary_needs_no_lattice_basis(monkeypatch):
    presented, degrees = CASES["adamson D5>C2 Z[G/H] 0..3"]()
    cone = presented.cone()
    wide = [n for n in degrees if cone.boundary(n + 1).cols > cone.boundary(n + 1).rows]
    assert wide
    calls = _counting(monkeypatch)
    for n in wide:
        cone.homology(n)
    assert calls[0] == 0
