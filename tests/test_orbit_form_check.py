"""d d = 0 checked once, on the orbit form, when tensoring.

`modres.tensor_orbit_complex` checks its orbit-form input with
`orbit_form_fault` (every boundary fixed by its stabilizer, every boundary
squared zero) and returns a result without relation blocks as already
checked, so `PresentedComplex.cone` multiplies no tensored boundaries.
These tests prove that the builder carries the law over: tensored
boundaries of a checked orbit form multiply to zero (`product_gaps`, the
check the cone would have made), on random orbit complexes with random
coefficients and on every complex the benchmark jobs build; and an orbit
form that breaks the law is refused, where without the check the result
would carry d d != 0.
"""

import itertools
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relhom as R
from relhom import GModule, IntMatrix, cli, groups
from relhom import bredon, modres, pairhom
from relhom.errors import ValidationError
from relhom.exactla import product_gaps
from relhom.groups import SubgroupFamily
from relhom.modres import orbit_form_fault, standard_modules, tensor_orbit_complex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

GROUPS = {
    "C2": R.cyclic_group(2),
    "C3": R.cyclic_group(3),
    "C4": R.cyclic_group(4),
    "V4": R.direct_product(R.cyclic_group(2), R.cyclic_group(2)),
    "S3": R.symmetric_group(3),
}


def _products_vanish(cx) -> bool:
    return not any(
        any(product_gaps((cx.boundary(n - 1), cx.boundary(n))))
        for n in range(cx.lo + 2, cx.hi + 1)
    )


# ---------------------------------------------------------------------------
# random orbit complexes with d d = 0


def _tuple_complex(group, points, top, rep_shift, signs):
    """The complex of (n+1)-tuples of a G-set (faces drop an entry, with
    sign (-1)^i), in orbit form.  `points` lists the stabilizer of each
    point's orbit (the G-set is the disjoint union of the G/K); the
    representative of orbit o is rep_shift(o) times its least tuple, and
    signs(o) scales it."""
    G = group
    cosets = [groups.coset_space(k) for k in points]
    elements = [(i, c) for i, cs in enumerate(cosets) for c in range(cs.size)]
    index = {x: j for j, x in enumerate(elements)}
    act = [
        [index[(i, cosets[i].action[g][c])] for (i, c) in elements] for g in G.elements()
    ]
    stabilizers, boundaries, where = [], [], []
    for n in range(top + 1):
        tuples = list(itertools.product(range(len(elements)), repeat=n + 1))
        seen, reps, stabs, of = set(), [], [], {}
        for t in tuples:
            if t in seen:
                continue
            orbit = {tuple(act[g][x] for x in t) for g in G.elements()}
            seen |= orbit
            o = len(reps)
            h = rep_shift(n, o)
            rep = tuple(act[h][x] for x in t)
            reps.append(rep)
            stabs.append(G.subgroup(g for g in G.elements() if tuple(act[g][x] for x in rep) == rep))
            for g in G.elements():
                of[tuple(act[g][x] for x in rep)] = (o, g)
        where.append(of)
        stabilizers.append(stabs)
        if n:
            level = []
            for o, rep in enumerate(reps):
                acc = {}
                for i in range(n + 1):
                    o2, g = where[n - 1][rep[:i] + rep[i + 1:]]
                    c = (-1) ** i * signs(n, o) * signs(n - 1, o2)
                    acc[(o2, g)] = acc.get((o2, g), 0) + c
                level.append([(o2, g, c) for (o2, g), c in acc.items() if c])
            boundaries.append(level)
    return stabilizers, boundaries


def _fixed_sum(group, stab, entries):
    """The sum of k x over k in the stabilizer, for x = sum of entries: a
    boundary that the stabilizer fixes."""
    return [(o, group.mult(k, g), c) for k in stab.elements for o, g, c in entries]


@st.composite
def orbit_complexes(draw):
    """(group, name, stabilizers, boundaries): the tuple complex of a small
    G-set, or the cone of the identity of P against a random map u: P -> Q
    of permutation modules (degree 2: P; degree 1: P + Q; degree 0: Q;
    d x_p = x_p - u(x_p), d x_p = u(x_p), d x_q = x_q).  The maps u are sums
    over the stabilizer, so their single entries need not be orbit maps."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    G = GROUPS[name]
    subs = list(R.all_subgroups(G))
    if draw(st.booleans()):
        points = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=2))
        size = sum(G.order // k.order for k in points)
        top = draw(st.integers(2, 3 if size <= 3 else 2))
        shifts = draw(st.lists(st.sampled_from(list(G.elements())), min_size=64, max_size=64))
        flips = draw(st.lists(st.sampled_from([1, -1]), min_size=64, max_size=64))
        stabs, bounds = _tuple_complex(
            G, points, top,
            lambda n, o: shifts[(7 * n + o) % 64],
            lambda n, o: flips[(5 * n + o) % 64],
        )
        return G, "tuples", stabs, bounds
    p = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    q = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    entry = st.tuples(
        st.integers(0, len(q) - 1), st.sampled_from(list(G.elements())), st.integers(-2, 2)
    )
    u = [_fixed_sum(G, k, draw(st.lists(entry, max_size=3))) for k in p]
    shifted = [[(len(p) + o, g, -c) for o, g, c in img] for img in u]
    stabs = [list(q), list(p) + list(q), list(p)]
    bounds = [
        u + [[(o, 0, 1)] for o in range(len(q))],
        [[(s, 0, 1)] + shifted[s] for s in range(len(p))],
    ]
    return G, "cone", stabs, bounds


@lru_cache(maxsize=None)
def _category(name):
    G = GROUPS[name]
    return bredon.build_orbit_category(G, SubgroupFamily(G, R.all_subgroups(G)))


def _coefficients(draw, G, kind):
    subs = list(R.all_subgroups(G))
    if draw(st.booleans()):
        m = GModule.trivial(G, draw(st.integers(1, 2)))
    else:
        m = draw(st.sampled_from([
            GModule.permutation(draw(st.sampled_from(subs))),
            GModule.regular(G),
            GModule.free(G, 2),
            standard_modules(draw(st.sampled_from(subs))).i_module,
            GModule.from_action_matrices(
                G, [GModule.regular(G).action_matrix(g) for g in G.elements()]
            ),
        ]))
    if kind == "tuples" and draw(st.booleans()):
        name = next(n for n, group in GROUPS.items() if group is G)
        return bredon.coinvariants_system(m, _category(name))
    return m


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_checked_orbit_forms_tensor_to_complexes(data):
    G, kind, stabs, bounds = data.draw(orbit_complexes())
    coeffs = _coefficients(data.draw, G, kind)
    assert orbit_form_fault(stabs, bounds) is None
    cx = tensor_orbit_complex(stabs, bounds, coeffs)
    if cx.has_relations():
        cx.cone()  # the cone route checks its own d d = 0
    else:
        assert cx._checked
        assert _products_vanish(cx)


# ---------------------------------------------------------------------------
# refusals, and what they prevent


def _s3_tuples():
    s3 = GROUPS["S3"]
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    stabs, bounds = _tuple_complex(
        s3, [s3.subgroup_generated([t]), s3.trivial_subgroup()], 2,
        lambda n, o: (n + 2 * o) % 6, lambda n, o: 1 if (n + o) % 3 else -1,
    )
    return s3, stabs, bounds


def _without_the_check(monkeypatch):
    monkeypatch.setattr(modres, "orbit_form_fault", lambda stabilizers, boundaries: None)


@pytest.mark.parametrize("delta", [1, -2])
def test_a_corrupted_entry_is_refused(monkeypatch, delta):
    G, stabs, bounds = _s3_tuples()
    reg = GModule.regular(G)
    corrupted = 0
    for s, entries in enumerate(bounds[1]):
        for j, (o, g, c) in enumerate(entries):
            if not bounds[0][o]:
                continue
            bad = [list(level) for level in bounds]
            bad[1] = [list(e) for e in bounds[1]]
            bad[1][s][j] = (o, g, c + delta)
            assert orbit_form_fault(stabs, bad) == (2, s, True)
            with pytest.raises(ValidationError, match="boundary squared is nonzero at degree 2"):
                tensor_orbit_complex(stabs, bad, reg)
            with monkeypatch.context() as mp:
                _without_the_check(mp)
                # C tensor Z[G] is C itself: the unchecked result is taken
                # as checked, yet its d d is not zero
                cx = tensor_orbit_complex(stabs, bad, reg)
                assert cx._checked and not _products_vanish(cx)
            corrupted += 1
    assert corrupted >= 4


def _unfixed_boundary():
    """C2 = {e, t}: d x_o = x_p and d x_o' = t x_p with both o, o' fixed by
    G and p free, so neither boundary is fixed; d x_s = t x_o - x_o' has a
    formal square t x_p - t x_p = 0."""
    c2 = GROUPS["C2"]
    full, triv = c2.full_subgroup(), c2.trivial_subgroup()
    stabs = [[triv], [full, full], [triv]]
    bounds = [[[(0, 0, 1)], [(0, 1, 1)]], [[(0, 1, 1), (1, 0, -1)]]]
    return c2, stabs, bounds


def test_a_boundary_its_stabilizer_moves_is_refused(monkeypatch):
    c2, stabs, bounds = _unfixed_boundary()
    reg = GModule.regular(c2)
    assert orbit_form_fault(stabs, bounds) == (1, 0, False)
    with pytest.raises(ValidationError, match="boundary of orbit 0 in degree 1 is not fixed"):
        tensor_orbit_complex(stabs, bounds, reg)
    with monkeypatch.context() as mp:
        _without_the_check(mp)
        cx = tensor_orbit_complex(stabs, bounds, reg)
        assert cx._checked and not _products_vanish(cx)


def test_a_fixed_sum_of_non_orbit_maps_tensors_as_its_presented_route(c2):
    """The norm map Z -> Z[C2], x_s |-> x_p + t x_p with s fixed by C2 and p
    free: its entries are not orbit maps, but their sum is fixed.  Z[C2] as
    a permutation module gives C tensor Z[C2] = C, as the same module given
    by matrices (presented on its lattice) does."""
    free, triv = GModule.regular(c2), GModule.trivial(c2)
    norm = IntMatrix([[1], [1]])
    perm = R.tensor_perm_complex([free, triv], [norm], free)
    mats = GModule.from_action_matrices(c2, [free.action_matrix(g) for g in c2.elements()])
    presented = R.tensor_perm_complex([free, triv], [norm], mats)
    assert perm.ranks == [2, 1] and not perm.has_relations()
    assert [perm.homology(n) for n in range(2)] == [presented.homology(n) for n in range(2)]
    assert [str(perm.homology(n)) for n in range(2)] == ["Z", "0"]


# ---------------------------------------------------------------------------
# every complex the benchmark jobs tensor


def test_every_tensored_complex_of_the_workloads_squares_to_zero(monkeypatch):
    """Each distinct job of the four workloads runs once, on freshly built
    groups (so no memo hides a build), and every relation-free complex that
    `tensor_orbit_complex` returns is checked by the product oracle."""
    built = []

    def recording(stabilizers, boundaries, coeffs):
        cx = tensor_orbit_complex(stabilizers, boundaries, coeffs)
        built.append(cx)
        return cx

    monkeypatch.setattr(groups, "_interned", {})
    for module in (modres, pairhom, bredon):
        monkeypatch.setattr(module, "tensor_orbit_complex", recording)
    for workload in workloads.WORKLOADS:
        for doc in workloads.distinct_jobs(workload):
            cli.run(cli.Job(doc))
    free = [cx for cx in built if not cx.has_relations()]
    assert len(free) > 1000
    assert all(cx._checked for cx in free)
    assert all(_products_vanish(cx) for cx in free)
