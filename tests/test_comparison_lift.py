"""The comparison lift along the cone homotopy against an independent route.

`comparison` lifts the resolution of the augmentation kernel into the
shifted coset-tuple complex along the cone homotopy s(t) = (H, *t).  The
same lift loop driven by an IntSolver on the dense tuple-level boundaries
gives another chain lift of the same map; both must induce the same phi,
kernel and cokernel in every degree.
"""

import pytest

import relhom as R
from relhom import GModule, IntMatrix, exactla, pairhom
from relhom.errors import ValidationError
from relhom.modres import FreeResolution

from oracles import (
    SolverTarget,
    full_boundary,
    lift_is_chain_map_check,
    reference_lift_c4c2,
    solver_lift_for_reference,
    term_module,
)

TOP = 3
PAIRS = ("C4>C2", "S3>C2", "V4>C2", "D4>refl")
MODULES = ("Z", "Z/2", "Z[G/H]", "regular")


def _pair(name):
    if name == "C4>C2":
        return R.cyclic_group(4).subgroup_generated([2])
    if name == "S3>C2":
        s3 = R.symmetric_group(3)
        return s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)])
    if name == "V4>C2":
        return R.direct_product(R.cyclic_group(2), R.cyclic_group(2)).subgroup_generated([1])
    d4 = R.dihedral_group(4)
    return d4.subgroup_generated([next(g for g in d4.elements() if d4.element_order(g) == 2 and g >= 4)])


def _module(name, h):
    G = h.parent
    if name == "Z":
        return GModule.trivial(G)
    if name == "Z/2":
        return GModule.trivial_mod(G, 2)
    if name == "Z[G/H]":
        return GModule.permutation(h)
    return GModule.regular(G)


def _solver_target(cx):
    """The shifted coset-tuple complex as dense matrices: degree n is the
    permutation module on (n+2)-tuples, and the degree-0 boundary is
    written in the basis {coset_i - coset_0} of the augmentation kernel."""
    k = cx.cosets.size
    bottom_cols = []
    for c0, c1 in cx.tuples[1]:
        col = [0] * (k - 1)
        if c1:
            col[c1 - 1] += 1
        if c0:
            col[c0 - 1] -= 1
        bottom_cols.append(col)
    bottom = IntMatrix.from_columns(bottom_cols, rows=k - 1)
    return SolverTarget(
        lambda n: term_module(cx, n + 1),
        lambda n: full_boundary(cx, n + 1) if n else bottom,
    )


@pytest.fixture(scope="module")
def solver_lifts():
    """Per pair, the lift made by the solver-driven loop, re-keyed by tuple."""
    lifts = {}
    for name in PAIRS:
        h = _pair(name)
        data = R.comparison(h, GModule.trivial(h.parent), [TOP])
        p, cx = data.resolution, data.complex
        lift = pairhom._lift_along_exact_target(p.gen_images, _solver_target(cx), TOP + 1)
        lifts[name] = (h, p, [
            [{cx.tuples[n + 1][i]: c for i, c in x.items()} for x in level]
            for n, level in enumerate(lift)
        ])
    return lifts


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("mod", MODULES)
def test_homotopy_lift_matches_solver_lift(monkeypatch, solver_lifts, pair, mod):
    h, p, solver_lift = solver_lifts[pair]
    m = _module(mod, h)
    degs = [1, 2, 3] if m.is_constant() else [2, 3]
    cone = R.comparison(h, m, degs)
    assert lift_is_chain_map_check(cone)

    def solver_route(images, _target, length):
        assert images is p.gen_images and length == TOP + 1
        return solver_lift

    monkeypatch.setattr(pairhom, "_lift_along_exact_target", solver_route)
    solver = R.comparison(h, m, degs)
    assert lift_is_chain_map_check(solver)
    for n in degs:
        a, b = cone.phi(n), solver.phi(n)
        assert (a.takasu, a.adamson) == (b.takasu, b.adamson), n
        assert a.matrix == b.matrix, n
        assert (a.kernel, a.cokernel) == (b.kernel, b.cokernel), n


def test_solver_lift_differs_from_the_cone_lift(solver_lifts):
    # the lifts are different chain maps, so the match above is between
    # two routes and not one route run twice
    h, _p, solver_lift = solver_lifts["S3>C2"]
    cone = R.comparison(h, GModule.trivial(h.parent), [TOP])
    assert cone.lift != solver_lift


def test_non_cycle_generator_image_names_its_stage(monkeypatch, c4, c4_c2):
    good = R.comparison(c4_c2, GModule.trivial(c4), [TOP]).resolution
    images = [list(level) for level in good.gen_images]
    # d_1 of this image is d_1 of the first degree-1 generator, not zero
    coeffs = {(i, h): c for i, h, c in images[2][0]}
    coeffs[0, 0] = coeffs.get((0, 0), 0) + 1
    images[2][0] = [(i, h, c) for (i, h), c in coeffs.items() if c]
    bad = FreeResolution(c4, good.module, good.free_ranks, images, label="broken")
    monkeypatch.setattr(pairhom, "cached_resolution", lambda *_args: bad)
    with pytest.raises(ValidationError, match="no integral lift at stage 2"):
        R.comparison(c4_c2, GModule.trivial(c4), [TOP])


def test_comparison_lift_builds_no_solver(monkeypatch):
    h = _pair("S3>C2")
    lift = pairhom._lift_along_exact_target
    solver_init = exactla.IntSolver.__init__
    inside = [False]
    built = []

    def counted_lift(*args):
        inside[0] = True
        try:
            return lift(*args)
        finally:
            inside[0] = False

    def counted_init(self, a):
        if inside[0]:
            built.append((a.rows, a.cols))
        solver_init(self, a)

    monkeypatch.setattr(pairhom, "_lift_along_exact_target", counted_lift)
    monkeypatch.setattr(exactla.IntSolver, "__init__", counted_init)
    R.comparison(h, GModule.trivial(h.parent), [2, 3])
    assert built == []
    # the counter sees the solvers of the reference lift
    solver_lift_for_reference(reference_lift_c4c2())
    assert built
