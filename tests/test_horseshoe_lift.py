"""The Shapiro lift into the horseshoe resolution by back-substitution.

`verify_takasu_les` lifts the induced resolution of Z[G/H] into the
horseshoe resolution assembled from resolutions of I and Z.  The middle
resolution takes its preimages through its two halves, so no boundary of
the middle is eliminated.  The reference route lifts along an IntSolver on
the middle's own boundary matrices (`oracles.solver_lift_over_resolution`);
both lifts are chain maps over the identity of Z[G/H], so they must give
the same certificate.
"""

import re

import pytest

import relhom as R
from relhom import GModule, IntMatrix, exactla, modres, pairhom
from relhom.errors import ValidationError

from conftest import alternating4
from oracles import DenseSolver, solver_lift_over_resolution, solver_resolution_target

TOP = 3


def _pair(name):
    if name == "A4>C3":
        g = alternating4()
        return g.subgroup_generated([next(x for x in g.elements() if g.element_order(x) == 3)])
    g = {
        "C4>C2": R.cyclic_group(4),
        "S3>C2": R.symmetric_group(3),
        "D4>refl": R.dihedral_group(4),
        "D5>C2": R.dihedral_group(5),
    }[name]
    if name == "C4>C2":
        return g.subgroup_generated([2])
    # a reflection (in D4, one outside the rotation subgroup)
    return g.subgroup_generated(
        [next(x for x in g.elements() if g.element_order(x) == 2 and (name != "D4>refl" or x >= 4))]
    )


def _module(name, h):
    G = h.parent
    if name == "Z":
        return GModule.trivial(G)
    if name == "Z/2":
        return GModule.trivial_mod(G, 2)
    if name == "Z[G/H]":
        return GModule.permutation(h)
    return GModule.regular(G)


PAIRS = ("C4>C2", "S3>C2", "D4>refl", "A4>C3", "D5>C2")
CASES = [
    (pair, mod)
    for pair in PAIRS
    for mod in ("Z", "Z/2", "Z[G/H]", "regular")
    if mod != "regular" or _pair(pair).parent.order <= 8
]


def _resolutions(h, length):
    std = R.standard_modules(h)
    hgrp, _ = R.subgroup_as_group(h)
    ind = R.induce_resolution(modres.cached_resolution(GModule.trivial(hgrp), length), h)
    res_i = modres.cached_resolution(std.i_module, length)
    res_z = modres.cached_resolution(GModule.trivial(h.parent), length)
    return std, ind, res_i, res_z


@pytest.mark.parametrize("pair,mod", CASES)
def test_back_substitution_gives_the_reference_certificate(monkeypatch, pair, mod):
    h = _pair(pair)
    m = _module(mod, h)
    new = R.verify_takasu_les(h, m, TOP)
    monkeypatch.setattr(pairhom, "lift_over_resolution", solver_lift_over_resolution)
    ref = R.verify_takasu_les(h, m, TOP)
    assert new.groups == ref.groups
    assert new.maps == ref.maps
    assert [(s.label, s.exact, s.detail) for s in new.slots] == [
        (s.label, s.exact, s.detail) for s in ref.slots
    ]
    assert new.shapiro_ok == ref.shapiro_ok
    assert new.all_exact


@pytest.mark.parametrize("pair,mod", [case for case in CASES if case[1] != "regular"])
def test_sparse_solver_gives_the_dense_solver_certificate(monkeypatch, pair, mod):
    # the lifts may differ (a lift is a choice); the groups and the
    # exactness they certify may not
    h = _pair(pair)
    m = _module(mod, h)
    new = R.verify_takasu_les(h, m, TOP)
    monkeypatch.setattr(modres, "IntSolver", DenseSolver)
    ref = R.verify_takasu_les(h, m, TOP)
    assert new.groups == ref.groups
    assert [(s.label, s.exact) for s in new.slots] == [(s.label, s.exact) for s in ref.slots]
    assert new.shapiro_ok == ref.shapiro_ok


@pytest.mark.parametrize("pair", ("S3>C2", "A4>C3"))
def test_verify_keeps_the_memo_lean(pair):
    # the resolutions' cached boundaries are those a fresh build gives, and
    # the top boundaries, which only the lift solvers read, are not cached
    h = _pair(pair)
    h.parent.memo.clear()
    R.verify_takasu_les(h, GModule.permutation(h), TOP)
    hgrp, _ = R.subgroup_as_group(h)
    cached = [
        res
        for memo in (h.parent.memo, hgrp.memo)
        for key, res in memo.items()
        if isinstance(key, tuple) and key[0] == "cached_resolution"
    ]
    assert len(cached) == 3
    for res in cached:
        assert res._matrix_cache
        assert all(res._build_boundary(k) == mat for k, mat in res._matrix_cache.items() if k)
        assert res.length not in res._matrix_cache


def _equivariant(group, gen_images, rows):
    """The Z-matrix of the equivariant map out of Z[G]^s whose generator j
    goes to gen_images[j], orbit entries (i, h, c) of Z[G]^r, in the basis
    (i, h) -> i*|G| + h."""
    n = group.order
    cols = []
    for entries in gen_images:
        for g in range(n):
            col = [0] * rows
            for i, hh, c in entries:
                col[i * n + group.table[g][hh]] = c
            cols.append(col)
    return IntMatrix.from_columns(cols, rows=rows)


@pytest.mark.parametrize("pair", PAIRS)
def test_back_substitution_lift_is_a_chain_map_over_the_identity(pair):
    h = _pair(pair)
    std, ind, res_i, res_z = _resolutions(h, TOP + 1)
    mid = R.horseshoe(res_i, res_z, std).middle
    v = R.lift_over_resolution(ind, mid, IntMatrix.identity(std.perm.rank))
    assert len(v) == TOP + 2
    vk = [_equivariant(h.parent, level, mid.z_rank(k)) for k, level in enumerate(v)]
    assert mid.augmentation_matrix() @ vk[0] == ind.augmentation_matrix()
    for k in range(1, TOP + 2):
        assert mid.boundary_matrix(k) @ vk[k] == vk[k - 1] @ ind.boundary_matrix(k), k


@pytest.mark.parametrize("pair", PAIRS)
def test_connecting_maps_match_the_solver_route(monkeypatch, pair):
    h = _pair(pair)
    std, _ind, res_i, res_z = _resolutions(h, TOP + 1)
    new = R.horseshoe(res_i, res_z, std).h_gen_images
    monkeypatch.setattr(modres, "_ResolutionTarget", solver_resolution_target)
    assert R.horseshoe(res_i, res_z, std).h_gen_images == new


def _middle_shapes(h, length):
    std, _ind, res_i, res_z = _resolutions(h, length)
    mid = R.horseshoe(res_i, res_z, std).middle
    return {(mid.module.rank, mid.z_rank(0))} | {
        (mid.z_rank(k - 1), mid.z_rank(k)) for k in range(1, mid.length + 1)
    }


@pytest.mark.parametrize("pair", ("S3>C2", "D4>refl", "A4>C3"))
def test_verify_builds_no_solver_on_the_middle(monkeypatch, pair):
    h = _pair(pair)
    shapes = _middle_shapes(h, TOP + 1)
    solver_init = exactla.IntSolver.__init__
    built = []

    def counted_init(self, a):
        built.append(a.shape)
        solver_init(self, a)

    monkeypatch.setattr(exactla.IntSolver, "__init__", counted_init)
    R.verify_takasu_les(h, GModule.trivial(h.parent), TOP)
    assert built and not shapes & set(built)
    # the counter sees the middle's solvers on the reference route
    monkeypatch.setattr(pairhom, "lift_over_resolution", solver_lift_over_resolution)
    R.verify_takasu_les(h, GModule.trivial(h.parent), TOP)
    assert shapes <= set(built)


def _broken(res, degree):
    """res with its degree-`degree` generators doubled: still a complex,
    no longer exact at degree - 1."""
    images = list(res.gen_images)
    images[degree] = [[(i, h, 2 * c) for i, h, c in v] for v in images[degree]]
    return R.FreeResolution(res.group, res.module, res.free_ranks, images, label="broken")


def test_back_substitution_names_its_half_and_stage(c4, c4_c2):
    std, ind, res_i, res_z = _resolutions(c4_c2, 3)
    ident = IntMatrix.identity(std.perm.rank)
    # the Z-part of the stage-2 right-hand side is a cycle that the doubled
    # d_2 of res_z no longer hits
    mid = R.horseshoe(res_i, _broken(res_z, 2), std).middle
    with pytest.raises(
        ValidationError,
        match=re.escape("horseshoe back-substitution: no Z-side preimage at stage 2"),
    ):
        R.lift_over_resolution(ind, mid, ident)
    # the horseshoe's own lift stops below d_3 of res_i; the middle's I-side
    # step at stage 3 meets the doubled d_3
    mid = R.horseshoe(_broken(res_i, 3), res_z, std).middle
    with pytest.raises(
        ValidationError,
        match=re.escape("horseshoe back-substitution: no I-side preimage at stage 3"),
    ):
        R.lift_over_resolution(ind, mid, ident)


def test_verify_names_the_failed_back_substitution(monkeypatch, c4, c4_c2):
    cached = modres.cached_resolution
    z = GModule.trivial(c4).value_key()

    def broken_z(m, length, rank_cap=modres.DEFAULT_RANK_CAP):
        res = cached(m, length, rank_cap)
        return _broken(res, 2) if m.value_key() == z else res

    monkeypatch.setattr(pairhom, "cached_resolution", broken_z)
    with pytest.raises(
        ValidationError,
        match=re.escape(
            "Shapiro lift v (induced resolution -> horseshoe resolution): "
            "horseshoe back-substitution: no Z-side preimage at stage 2"
        ),
    ):
        R.verify_takasu_les(c4_c2, GModule.trivial(c4), 2)
