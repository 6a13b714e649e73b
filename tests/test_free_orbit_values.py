"""Permutation coefficients as free orbit values, against the presented
route.

A permutation module Z[X] without relations answers the orbit builder with
Z[G/K] tensor_Z[G] Z[X] = Z[K\\X], free on the K-orbits of X, and with the
orbit map that sends the class of x to the L-orbit of g^-1 x.
`oracles.PresentedCoefficients` answers as every module did before: M_K on
the whole lattice of M, presented by `coinvariant_relations`, and a(g^-1).
Over every pair class of the order-<=12 benchmark corpus, with the trivial,
permutation and regular modules, both routes must give the same Adamson
and Bredon groups, and the orbit values must be the coinvariants.
"""

import sys
from pathlib import Path

import pytest

import relhom as R
from relhom import GModule, cli
from relhom.bredon import GCWData
from relhom.modres import coinvariant_relations, tensor_orbit_complex

from oracles import PresentedCoefficients

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

PAIRS = [
    (cli.parse_group(group, "group"), gens, index)
    for group, gens, index, _normal in workloads._pair_classes(workloads.CORPUS)
]


def _pair_id(pair):
    group, gens, index = pair
    return f"{group.label}>{gens}[{index}]"


def _modules(h):
    g = h.parent
    return {
        "trivial_Z": GModule.trivial(g),
        "perm": GModule.permutation(h),
        "regular": GModule.regular(g),
    }


def _orbits(m, k):
    """The K-orbits of the permutation basis, each as a set of points."""
    seen, out = set(), []
    for x in range(m.rank):
        if x not in seen:
            orbit = {m.act(g, _unit(m.rank, x)).index(1) for g in k.elements}
            seen |= orbit
            out.append(orbit)
    return out


def _unit(rank, x):
    vec = [0] * rank
    vec[x] = 1
    return vec


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_adamson_groups_match_the_presented_route(pair):
    group, gens, _ = pair
    h = group.subgroup_generated(gens)
    cx = R.AdamsonComplex(h, 4, rank_cap=10 ** 6)
    for name, m in _modules(h).items():
        free = tensor_orbit_complex(cx.stabilizer, cx.rep_boundary[1:], m)
        presented = tensor_orbit_complex(
            cx.stabilizer, cx.rep_boundary[1:], PresentedCoefficients(m)
        )
        assert not free.has_relations(), name
        for n in range(4):
            assert free.homology(n) == presented.homology(n), (name, n)


# the cell data of the orbit workload's bredon jobs, by group and subgroup
CELLS = [
    (cli.parse_group(group_doc, "group"), sub, workloads.cells_key(group_doc, sub))
    for group_doc, gens in workloads.BREDON_PAIRS
    for sub in workloads.subgroup_variants(group_doc, gens)
]


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0].label}>{c[1]}")
def test_bredon_groups_match_the_presented_route(cell):
    group, sub, key = cell
    x = GCWData.from_json(group, workloads._bredon_cells()[key])
    for name, m in _modules(group.subgroup_generated(sub)).items():
        free = R.bredon_complex(x, m)
        presented = R.bredon_complex(x, PresentedCoefficients(m))
        assert not free.has_relations(), name
        for d in range(x.dimension() + 1):
            assert free.homology(d) == presented.homology(d), (name, d)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_orbit_values_are_the_coinvariants(pair):
    group, gens, _ = pair
    for name, m in _modules(group.subgroup_generated(gens)).items():
        for k in R.all_subgroups(group):
            rank, rel = m.orbit_value(k)
            assert rel is None
            assert rank == len(_orbits(m, k)), (name, k)
            coinvariants = R.FgAbGroup.from_invariants(
                R.smith_invariants(coinvariant_relations(m, k)), m.rank
            )
            assert coinvariants == R.FgAbGroup(rank), (name, k)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_orbit_map_blocks_do_not_depend_on_the_orbit_point(pair):
    """Each block sends the class of every point x of a K-orbit, not only
    of its least point, to the L-orbit of g^-1 x, for every orbit map
    G/K -> G/L, xK |-> xgL (K inside g L g^-1)."""
    group, gens, _ = pair
    subgroups = R.all_subgroups(group)
    for name, m in _modules(group.subgroup_generated(gens)).items():
        orbits = {k: _orbits(m, k) for k in subgroups}
        for k in subgroups:
            for target in subgroups:
                for g in group.elements():
                    conj = set(target.conjugate(group.inverse[g]).elements)
                    if not set(k.elements) <= conj:
                        continue
                    rows = m.orbit_map_rows(k, target, g)
                    assert len(rows) == len(orbits[target])
                    image_of = {b: a for a, row in enumerate(rows) for b, v in row if v == 1}
                    assert sum(len(row) for row in rows) == len(orbits[k])
                    for b, orbit in enumerate(orbits[k]):
                        for x in orbit:
                            y = m.act(group.inverse[g], _unit(m.rank, x)).index(1)
                            assert y in orbits[target][image_of[b]], (name, k, target, g, x)
