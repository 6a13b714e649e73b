"""d d = 0 checked once per complex, on its orbit form, when it is built.

`modres.OrbitForm` checks its data when it is built (every boundary fixed
by its stabilizer, every boundary squared zero), and
`modres.tensor_orbit_complex` takes only a form and returns a result
without relation blocks as already checked, so `PresentedComplex.cone`
multiplies no tensored boundaries.  These tests prove that the builder
carries the law over: tensored boundaries of a checked orbit form multiply
to zero (`product_gaps`, the check the cone would have made), on random
orbit complexes with random coefficients and on every complex the
benchmark jobs build; an orbit form that breaks the law is refused, where
a form built without the check would tensor to d d != 0; each complex is
checked once, where it is built; and a form keeps the data it was checked
on.
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
from relhom.modres import OrbitForm, standard_modules, tensor_orbit_complex

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
    cx = tensor_orbit_complex(OrbitForm(stabs, bounds), coeffs)
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


def _unchecked(stabs, bounds):
    """The form of this data, built without `OrbitForm`'s check."""
    form = object.__new__(OrbitForm)
    object.__setattr__(form, "stabilizers", stabs)
    object.__setattr__(form, "boundaries", bounds)
    return form


@pytest.mark.parametrize("delta", [1, -2])
def test_a_corrupted_entry_is_refused(delta):
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
            with pytest.raises(
                ValidationError, match=rf"^boundary squared is nonzero at degree 2 \(orbit {s}\)$"
            ):
                OrbitForm(stabs, bad)
            # C tensor Z[G] is C itself: the unchecked result is taken as
            # checked, yet its d d is not zero
            cx = tensor_orbit_complex(_unchecked(stabs, bad), reg)
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


def test_a_boundary_its_stabilizer_moves_is_refused():
    c2, stabs, bounds = _unfixed_boundary()
    reg = GModule.regular(c2)
    with pytest.raises(
        ValidationError, match="^boundary of orbit 0 in degree 1 is not fixed by its stabilizer$"
    ):
        OrbitForm(stabs, bounds)
    cx = tensor_orbit_complex(_unchecked(stabs, bounds), reg)
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


def test_a_boundary_that_is_not_a_g_map_is_refused(c2):
    """d = [[1, 0], [0, 0]] on Z[C2] sends e to e and t to 0, so d(t e) is
    not t d(e).  Read from the representative's column alone it would
    tensor with Z to the boundary [[1]] and H_0 = H_1 = 0."""
    free = GModule.regular(c2)
    d = IntMatrix([[1, 0], [0, 0]])
    with pytest.raises(ValidationError, match="boundary at degree 1: hom is not equivariant"):
        R.tensor_perm_complex([free, free], [d], GModule.trivial(c2))
    # the same shape with the equivariant d = 1 + t is accepted
    cx = R.tensor_perm_complex([free, free], [IntMatrix([[1, 1], [1, 1]])], GModule.trivial(c2))
    assert [str(cx.homology(n)) for n in range(2)] == ["Z/2", "0"]
    with pytest.raises(ValidationError, match="boundary at degree 1: hom matrix shape mismatch"):
        R.tensor_perm_complex([free, free], [IntMatrix([[1, 1]])], GModule.trivial(c2))


# ---------------------------------------------------------------------------
# every complex the benchmark jobs tensor


def test_every_tensored_complex_of_the_workloads_squares_to_zero(monkeypatch):
    """Each distinct job of the four workloads runs once, on freshly built
    groups (so no memo hides a build), and every relation-free complex that
    `tensor_orbit_complex` returns is checked by the product oracle."""
    built = []

    def recording(form, coeffs):
        cx = tensor_orbit_complex(form, coeffs)
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


# ---------------------------------------------------------------------------
# each complex is checked once, where it is built


def _counting_forms(monkeypatch):
    """A list that grows by one for every `OrbitForm` built from now on."""
    built = []
    init = OrbitForm.__init__

    def counting(self, stabilizers, boundaries):
        built.append(self)
        init(self, stabilizers, boundaries)

    monkeypatch.setattr(OrbitForm, "__init__", counting)
    return built


def test_an_adamson_pass_builds_one_form(monkeypatch):
    """Z, Z[G/H] and Z[G] on D5 > C2, every degree read at one truncation:
    one coset-tuple complex, so one form, tensored with each module."""
    d5 = R.dihedral_group(5)
    h = d5.subgroup_generated([next(g for g in d5.elements() if d5.element_order(g) == 2)])
    built = _counting_forms(monkeypatch)
    for m in (GModule.trivial(d5), GModule.permutation(h), GModule.regular(d5)):
        for n in range(3):
            R.adamson_homology(h, m, n, truncation=3)
    assert len(built) == 1


def test_a_bredon_job_builds_one_form(monkeypatch):
    """Each bredon job of the orbit workload checks its cell data once, in
    `GCWData.validate`, and tensors that form."""
    monkeypatch.setattr(groups, "_interned", {})
    jobs = [doc for doc in workloads.distinct_jobs("orbit") if doc["command"] == "bredon"]
    assert jobs
    for doc in jobs:
        built = _counting_forms(monkeypatch)
        cli.run(cli.Job(doc))
        assert len(built) == 1, doc


def test_a_form_keeps_the_data_it_was_checked_on():
    """Changing the lists a form was built from, down to its entries,
    changes neither the form nor its tensor."""
    G, stabs, bounds = _s3_tuples()
    bounds = [[[list(entry) for entry in entries] for entries in level] for level in bounds]
    reg = GModule.regular(G)
    form = OrbitForm(stabs, bounds)
    data = (form.stabilizers, form.boundaries)
    before = tensor_orbit_complex(form, reg)
    stabs[0].reverse()
    bounds[1][0][0][2] += 1
    bounds[1][1].append([0, 0, 1])
    bounds[0].pop()
    assert (form.stabilizers, form.boundaries) == data
    after = tensor_orbit_complex(form, reg)
    assert after.ranks == before.ranks
    assert all(after.boundary(n) == before.boundary(n) for n in (1, 2))
    with pytest.raises(AttributeError):
        form.boundaries = bounds
