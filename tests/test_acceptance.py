"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them)."""

import random
import time

import pytest

import relhom as R
from relhom import FgAbGroup, GModule, IntMatrix
from relhom.errors import BudgetError

from conftest import alternating4, cyclic_homology_list, quaternion_group
from oracles import (
    bar_resolution,
    cellular_chain_modules,
    lift_is_chain_map_check,
    reference_induced_maps,
    reference_lift_c4c2,
    reference_lift_is_chain_map,
    solver_lift_for_reference,
    takasu_reference,
)


def _report(num, label, t0, limit):
    elapsed = time.time() - t0
    line = f"[PASS] criterion {num}: {label} ({elapsed:.2f}s, limit {limit}s)"
    print(line)
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _pair(group, gens):
    return group.subgroup_generated(gens)


def test_criterion_1_c4_c2_regression():
    t0 = time.time()
    c4 = R.cyclic_group(4)
    h = _pair(c4, [2])
    triv = GModule.trivial(c4)
    adams = [str(R.adamson_homology(h, triv, n)) for n in range(5)]
    assert adams == ["Z", "Z/2", "0", "Z/2", "0"]
    taks = [str(R.takasu_homology(h, triv, n)) for n in range(1, 5)]
    assert taks == ["Z/2", "0", "Z/2", "0"]
    data = R.comparison(h, triv, [1, 2, 3, 4])
    assert data.phi(1).matrix == IntMatrix([[1]])  # the identity on Z/2
    assert data.phi(1).is_iso
    for n in (2, 3, 4):
        assert data.phi(n).is_zero
    assert str(data.phi(3).takasu) == "Z/2" and str(data.phi(3).adamson) == "Z/2"
    assert lift_is_chain_map_check(data)
    ref = reference_lift_c4c2()
    assert reference_lift_is_chain_map(ref)
    assert ref.tensored_values()[:5] == [1, -1, 2, -2, 4]
    solver = solver_lift_for_reference(ref)
    ref_maps = reference_induced_maps(ref, ref.lift, 3)
    sol_maps = reference_induced_maps(ref, solver, 3)
    for n in range(4):
        assert ref_maps[n] == sol_maps[n]
    assert ref_maps[0] == IntMatrix([[1]])
    assert ref_maps[2] == IntMatrix([[0]])
    _report(1, "order-4/order-2 cyclic pair regression", t0, 5)


def test_criterion_2_normal_quotient_oracle():
    t0 = time.time()
    c4 = R.cyclic_group(4)
    c6 = R.cyclic_group(6)
    s3 = R.symmetric_group(3)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    pairs = [_pair(c4, [2]), _pair(c6, [2]), _pair(s3, [rot])]
    for h in pairs:
        G = h.parent
        for m in (GModule.trivial(G), GModule.permutation(h)):
            for n in range(5):
                rep = R.normal_quotient_oracle(h, m, n)
                assert rep.match, (G.label, m.label, n)
    _report(2, "normal-quotient oracle on three pairs, two coefficient modules", t0, 30)


def test_criterion_3_malnormal_isomorphism():
    t0 = time.time()
    s3 = R.symmetric_group(3)
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    h = _pair(s3, [t])
    assert R.is_malnormal(h)
    coefficient_modules = [
        GModule.trivial(s3),
        GModule.permutation(h),
        GModule.regular(s3),
    ]
    for m in coefficient_modules:
        data = R.comparison(h, m, [2, 3, 4, 5])
        for n in (2, 3, 4, 5):
            assert data.phi(n).is_iso, (m.label, n)
    # malnormal pairs beyond S3: a reflection in the dihedral group of order
    # 10 and a 3-cycle in A4 (regular coefficients are left to S3: the
    # cone of their larger tensored complexes takes most of the budget)
    d5 = R.dihedral_group(5)
    a4 = alternating4()
    reflection = next(g for g in d5.elements() if d5.element_order(g) == 2)
    three_cycle = next(g for g in a4.elements() if a4.element_order(g) == 3)
    malnormal_pairs = [(_pair(d5, [reflection]), (2, 3)), (_pair(a4, [three_cycle]), (2, 3, 4))]
    for h2, degs in malnormal_pairs:
        assert R.is_malnormal(h2)
        for m in (GModule.trivial(h2.parent), GModule.permutation(h2)):
            data = R.comparison(h2, m, degs)
            for n in degs:
                assert data.phi(n).is_iso, (h2.parent.label, m.label, n)
    # the converse: for H not malnormal, the coefficients Z[G/K] with K = H
    # in the two-coset family give a phi that is not an isomorphism
    c4 = R.cyclic_group(4)
    d4 = R.dihedral_group(4)
    d4_reflection = next(g for g in d4.elements() if d4.element_order(g) == 2 and g >= 4)
    for h2, degs in ((_pair(c4, [2]), (2,)), (_pair(d4, [d4_reflection]), (2, 3))):
        assert not R.is_malnormal(h2)
        assert h2 in R.family_gh(h2).members
        data = R.comparison(h2, GModule.permutation(h2), degs)
        assert not data.phi(2).is_iso, h2.parent.label
        assert str(data.phi(2).kernel) == "Z/2", h2.parent.label
    _report(
        3,
        "malnormal comparison isomorphisms (S3, D5, A4) and the converse (C4, D4)",
        t0,
        60,
    )


def test_criterion_4_les_exactness():
    t0 = time.time()
    c4 = R.cyclic_group(4)
    v4 = R.direct_product(R.cyclic_group(2), R.cyclic_group(2))
    s3 = R.symmetric_group(3)
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    pairs = [_pair(c4, [2]), _pair(v4, [1]), _pair(s3, [t]), _pair(s3, [rot])]
    for h in pairs:
        for m in (GModule.trivial(h.parent), GModule.regular(h.parent)):
            cert = R.verify_takasu_les(h, m, 3)
            assert cert.all_exact, (h.parent.label, m.label)
    _report(4, "long exact sequence exact at every slot, four pairs", t0, 60)


def test_criterion_5_product_pairs():
    t0 = time.time()
    for kn, hn in ((2, 2), (2, 3)):
        K = R.cyclic_group(kn)
        H = R.cyclic_group(hn)
        G = R.direct_product(K, H)
        h = _pair(G, [1])
        assert h.order == hn
        hk = cyclic_homology_list(kn, 4)
        hh = cyclic_homology_list(hn, 4)
        triv = GModule.trivial(G)
        cert = R.verify_takasu_les(h, triv, 3)
        assert cert.all_exact
        for n in range(1, 4):
            tak = R.takasu_homology(h, triv, n)
            chi = cert.maps[f"H_{n}(H)->H_{n}(G)"]
            quotient = R.hom_cokernel(chi, cert.groups[f"H_{n}(G)"])
            kunneth = FgAbGroup.trivial()
            for i in range(1, n + 1):
                kunneth = kunneth.direct_sum(hk[i].tensor(hh[n - i]))
            for i in range(1, n):
                kunneth = kunneth.direct_sum(hk[i].tor(hh[n - 1 - i]))
            assert tak == quotient == kunneth, (kn, hn, n)
            assert R.adamson_homology(h, triv, n) == hk[n], (kn, hn, n)
        data = R.comparison(h, triv, [2, 3])
        for n in (2, 3):
            expected_kernel = FgAbGroup.trivial()
            for i in range(1, n):
                expected_kernel = expected_kernel.direct_sum(hk[i].tensor(hh[n - i]))
            for i in range(1, n - 1):
                expected_kernel = expected_kernel.direct_sum(
                    hk[i].tor(hh[n - 1 - i])
                )
            assert data.phi(n).kernel == expected_kernel, (kn, hn, n)
    _report(5, "product pair formulas and comparison kernels", t0, 30)


def test_criterion_6_engine_cross_validation():
    t0 = time.time()
    c4 = R.cyclic_group(4)
    c6 = R.cyclic_group(6)
    v4 = R.direct_product(R.cyclic_group(2), R.cyclic_group(2))
    c2c3 = R.direct_product(R.cyclic_group(2), R.cyclic_group(3))
    s3 = R.symmetric_group(3)
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    rot = next(g for g in s3.elements() if s3.element_order(g) == 3)
    pairs = [
        _pair(c4, [2]),
        _pair(v4, [1]),
        _pair(s3, [t]),
        _pair(s3, [rot]),
        _pair(c6, [2]),
        _pair(c2c3, [1]),
    ]
    for h in pairs:
        G = h.parent
        triv = GModule.trivial(G)
        bredon_vals = {}
        for length in (5, 4):
            try:
                T = R.takasu_pair_complex(h, length)
            except BudgetError:
                continue
            cat = R.build_orbit_category(G, R.family_generated(h))
            const = R.constant_system(cat)
            for n in range(2, length):
                bredon_vals[n] = R.bredon_homology(T, const, n)
            break
        compared = 0
        for n in (2, 3, 4):
            base = R.takasu_homology(h, triv, n)
            try:
                assert base == takasu_reference(h, triv, n)
                compared += 1
            except BudgetError:
                pass
            if n in bredon_vals:
                assert base == bredon_vals[n], (G.label, n)
                compared += 1
        assert compared >= 3, f"too few engine cross-checks for {G.label}"
    # group homology engines on cyclic groups
    for order in (2, 3, 4, 5, 6):
        g = R.cyclic_group(order)
        triv = GModule.trivial(g)
        cyc = R.cyclic_resolution(g, 4).tensor(triv)
        gen = R.resolve(triv, 4).tensor(triv)
        try:
            bar = bar_resolution(g, 4)
            bar_top = 3
        except BudgetError:
            bar = bar_resolution(g, 3)
            bar_top = 2
        barx = bar.tensor(triv)
        for n in range(4):
            assert cyc.homology(n) == gen.homology(n), (order, n)
            if n <= bar_top:
                assert cyc.homology(n) == barx.homology(n), (order, n)
    _report(6, "relative and absolute engines agree on all in-budget degrees", t0, 120)


def test_criterion_7_bredon_examples():
    t0 = time.time()
    c2 = R.cyclic_group(2)
    cat2 = R.build_orbit_category(c2, R.SubgroupFamily(c2, R.all_subgroups(c2)))
    refl = R.GCWData(
        c2,
        [
            [R.GCWCell(c2.full_subgroup()), R.GCWCell(c2.full_subgroup())],
            [R.GCWCell(c2.trivial_subgroup(), ((1, 0, 1), (0, 0, -1)))],
        ],
    )
    const = R.constant_system(cat2)
    # constant coefficients: the cellular homology of the interval quotient
    assert str(R.bredon_homology(refl, const, 0)) == "Z"
    assert str(R.bredon_homology(refl, const, 1)) == "0"
    sign = GModule.from_action_matrices(
        c2, [IntMatrix([[1]]), IntMatrix([[-1]])], label="sign"
    )
    for m in (GModule.regular(c2), sign):
        system = R.coinvariants_system(m, cat2)
        terms, bounds = cellular_chain_modules(refl)
        tensored = R.tensor_gmodule_complex(terms, bounds, m)
        for n in range(2):
            assert R.bredon_homology(refl, system, n) == tensored.homology(n)
    # the collapsed pair complex of the order-4/order-2 pair
    c4 = R.cyclic_group(4)
    h = c4.subgroup_generated([2])
    T = R.takasu_pair_complex(h, 4)
    cat4 = R.build_orbit_category(c4, R.family_generated(h))
    const4 = R.constant_system(cat4)
    terms4, bounds4 = cellular_chain_modules(T)
    triv4 = GModule.trivial(c4)
    quotient_complex = R.tensor_perm_complex(terms4, bounds4, triv4)
    for n in range(4):
        assert R.bredon_homology(T, const4, n) == quotient_complex.homology(n)
    reg4 = GModule.regular(c4)
    system4 = R.coinvariants_system(reg4, cat4)
    tensored4 = R.tensor_perm_complex(terms4, bounds4, reg4)
    for n in range(4):
        assert R.bredon_homology(T, system4, n) == tensored4.homology(n)
    _report(7, "equivariant homology matches quotient and tensor routes", t0, 10)


def test_criterion_8_family_consistency():
    t0 = time.time()
    corpus = [R.cyclic_group(n) for n in range(1, 13)]
    corpus += [
        R.direct_product(R.cyclic_group(2), R.cyclic_group(2)),
        R.direct_product(R.cyclic_group(2), R.cyclic_group(4)),
        R.direct_product(R.cyclic_group(2), R.cyclic_group(6)),
        R.direct_product(R.cyclic_group(3), R.cyclic_group(3)),
        R.direct_product(
            R.direct_product(R.cyclic_group(2), R.cyclic_group(2)),
            R.cyclic_group(2),
        ),
        R.symmetric_group(3),
        R.dihedral_group(4),
        R.dihedral_group(5),
        R.dihedral_group(6),
        alternating4(),
        quaternion_group(),
    ]
    checked = 0
    for G in corpus:
        assert G.order <= 12
        for h in R.all_subgroups(G):
            malnormal = R.is_malnormal(h)
            gh_trivial = R.family_gh(h).is_trivial()
            j_trivial = R.j_module(h).all_trivial()
            assert malnormal == gh_trivial == j_trivial, (G.label, h.elements)
            checked += 1
    assert checked >= 100
    _report(8, f"malnormal/family/obstruction equivalence on {checked} subgroups", t0, 120)


def test_criterion_9_linear_algebra_properties():
    t0 = time.time()
    rng = random.Random(20240809)
    for trial in range(500):
        m = rng.randint(1, 40)
        n = rng.randint(1, 40)
        density = rng.choice([0.2, 0.5, 0.9])
        a = IntMatrix(
            [
                [
                    rng.randint(-50, 50) if rng.random() < density else 0
                    for _ in range(n)
                ]
                for _ in range(m)
            ]
        )
        sf = R.smith_form(a)
        assert sf.u @ sf.s @ sf.v == a, trial
        assert abs(sf.u.det()) == 1, trial
        assert abs(sf.v.det()) == 1, trial
        inv = sf.invariants
        assert all(d > 0 for d in inv)
        for i in range(len(inv) - 1):
            assert inv[i + 1] % inv[i] == 0, trial
    for trial in range(200):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        p = rng.randint(1, 8)
        d1 = IntMatrix(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        )
        ker = R.kernel_basis(d1)
        coeff = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(p)] for _ in range(ker.cols)]
        )
        d2 = ker @ coeff if ker.cols else IntMatrix.zeros(n, p)
        complex_a = R.ChainComplex(0, [m, n, p], {1: d1, 2: d2})
        pmat, _ = _unimodular(rng, m)
        qmat, qinv = _unimodular(rng, n)
        smat, _ = _unimodular(rng, p)
        complex_b = R.ChainComplex(
            0, [m, n, p], {1: pmat @ d1 @ qmat, 2: qinv @ d2 @ smat}
        )
        for deg in range(3):
            assert complex_a.homology(deg) == complex_b.homology(deg), trial
    _report(9, "500 normal forms + 200 basis-change invariances", t0, 60)


def _unimodular(rng, n, ops=14):
    fwd = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for r in range(n):
            fwd[r][i] += q * fwd[r][j]
        for c in range(n):
            inv[j][c] -= q * inv[i][c]
    return IntMatrix(fwd), IntMatrix(inv)
