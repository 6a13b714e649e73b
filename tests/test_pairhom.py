import itertools

import pytest

import relhom as R
from relhom import FgAbGroup, GModule, IntMatrix
from relhom.errors import BudgetError, TruncationError, ValidationError

from conftest import cyclic_homology_list
from oracles import (
    lift_is_chain_map_check,
    reference_induced_maps,
    reference_lift_c4c2,
    reference_lift_is_chain_map,
    solver_lift_for_reference,
    takasu_reference,
    validate_acyclic,
)


def test_adamson_c4_c2(c4, c4_c2):
    triv = GModule.trivial(c4)
    vals = [str(R.adamson_homology(c4_c2, triv, n)) for n in range(5)]
    assert vals == ["Z", "Z/2", "0", "Z/2", "0"]
    # oracle: the pair collapses onto the order-2 quotient
    oracle = [str(g) for g in cyclic_homology_list(2, 4)]
    assert vals == oracle


def test_adamson_full_subgroup(c4):
    triv = GModule.trivial(c4)
    h = c4.full_subgroup()
    assert str(R.adamson_homology(h, triv, 0)) == "Z"
    for n in (1, 2, 3):
        assert R.adamson_homology(h, triv, n).is_trivial()


def test_adamson_product_pair():
    k = R.cyclic_group(3)
    h = R.cyclic_group(2)
    g = R.direct_product(k, h)
    sub = g.subgroup_generated([1])  # the 2-element factor
    triv = GModule.trivial(g)
    hk = cyclic_homology_list(3, 4)
    for n in range(5):
        assert R.adamson_homology(sub, triv, n) == hk[n]


def test_adamson_mod_k(c4, c4_c2):
    m2 = GModule.trivial_mod(c4, 2)
    vals = [str(R.adamson_homology(c4_c2, m2, n)) for n in range(4)]
    # homology of the order-2 quotient with Z/2 coefficients
    assert vals == ["Z/2", "Z/2", "Z/2", "Z/2"]


def test_adamson_fresh_modules_match_uncached(c4, c4_c2):
    # modules are built and dropped one after another, so CPython reuses
    # their ids; a cache keyed by id would hand one module's complex to the
    # next (Z and Z/2 differ in degree 2: 0 versus Z/2)
    wrong = []
    for i in range(120):
        m = GModule.trivial(c4) if i % 2 == 0 else GModule.trivial_mod(c4, 2)
        got = R.adamson_homology(c4_c2, m, 2)
        want = R.AdamsonComplex(c4_c2, 3).tensor(m).homology(2)
        if got != want:
            wrong.append((i, str(got), str(want)))
        del m
    assert wrong == []


def test_takasu_c4_c2(c4, c4_c2):
    triv = GModule.trivial(c4)
    assert str(R.takasu_homology(c4_c2, triv, 0)) == "0"
    vals = [str(R.takasu_homology(c4_c2, triv, n)) for n in range(1, 5)]
    assert vals == ["Z/2", "0", "Z/2", "0"]
    for n in range(1, 5):
        assert takasu_reference(c4_c2, triv, n) == R.takasu_homology(c4_c2, triv, n)


def test_takasu_trivial_subgroup_is_group_homology(s3):
    triv = GModule.trivial(s3)
    h = s3.trivial_subgroup()
    for n in (1, 2, 3):
        assert R.takasu_homology(h, triv, n) == R.group_homology(s3, triv, n)


def test_takasu_v4_degree1(v4):
    h = v4.subgroup_generated([1])
    assert str(R.takasu_homology(h, GModule.trivial(v4), 1)) == "Z/2"


def test_comparison_c4_c2(c4, c4_c2):
    triv = GModule.trivial(c4)
    data = R.comparison(c4_c2, triv, [1, 2, 3, 4])
    assert data.phi(1).is_iso and not data.phi(1).is_zero
    assert data.phi(1).matrix == IntMatrix([[1]])
    assert data.phi(2).takasu.is_trivial() and data.phi(2).adamson.is_trivial()
    d3 = data.phi(3)
    assert str(d3.takasu) == "Z/2" and str(d3.adamson) == "Z/2"
    assert d3.is_zero and not d3.is_iso
    assert str(d3.kernel) == "Z/2" and str(d3.cokernel) == "Z/2"
    assert data.phi(4).is_zero
    assert lift_is_chain_map_check(data)


def test_comparison_degree1_needs_constant(c4, c4_c2):
    with pytest.raises(ValidationError):
        R.comparison(c4_c2, GModule.regular(c4), [1, 2])
    # constant Z/k is allowed in degree 1
    data = R.comparison(c4_c2, GModule.trivial_mod(c4, 2), [1, 2])
    assert data.phi(1).takasu == data.phi(1).adamson


def test_comparison_malnormal_s3(s3, s3_transposition):
    triv = GModule.trivial(s3)
    data = R.comparison(s3_transposition, triv, [2, 3])
    assert data.phi(2).is_iso
    assert data.phi(3).is_iso
    assert str(data.phi(3).takasu) == "Z/3"


def test_comparison_trivial_subgroup(c4):
    h = c4.trivial_subgroup()
    triv = GModule.trivial(c4)
    data = R.comparison(h, triv, [2, 3])
    for n in (2, 3):
        assert data.phi(n).is_iso


def test_reference_lift(c4):
    ref = reference_lift_c4c2()
    assert reference_lift_is_chain_map(ref)
    # the tensored lift components are 1, -1, 2, -2, 4, ...
    vals = ref.tensored_values()
    assert vals[:5] == [1, -1, 2, -2, 4]
    solver = solver_lift_for_reference(ref)
    ref_maps = reference_induced_maps(ref, ref.lift, 3)
    sol_maps = reference_induced_maps(ref, solver, 3)
    for n in range(4):
        assert ref_maps[n] == sol_maps[n]
    # pair degree 1 is the identity on Z/2; pair degree 3 is zero on Z/2
    assert ref_maps[0] == IntMatrix([[1]])
    assert ref_maps[2] == IntMatrix([[0]])


def test_j_module(c4, c4_c2, s3, s3_transposition):
    rep = R.j_module(c4_c2)
    assert len(rep.entries) == 1
    entry = rep.entries[0]
    assert entry.subgroup.elements == (0, 2)
    assert str(entry.value) == "Z" and entry.fixed_count == 2
    assert not rep.all_trivial()
    rep2 = R.j_module(s3_transposition)
    assert rep2.all_trivial()
    rep3 = R.j_module(s3.full_subgroup())
    assert all(str(e.value) == "0" for e in rep3.entries)


def test_les_c4_c2(c4, c4_c2):
    triv = GModule.trivial(c4)
    cert = R.verify_takasu_les(c4_c2, triv, 3)
    assert cert.all_exact
    assert str(cert.groups["H_1(H)"]) == "Z/2"
    assert str(cert.groups["H_1(G)"]) == "Z/4"
    assert str(cert.groups["H_1(pair)"]) == "Z/2"


def test_les_trivial_subgroup(c4):
    triv = GModule.trivial(c4)
    cert = R.verify_takasu_les(c4.trivial_subgroup(), triv, 2)
    assert cert.all_exact
    for n in (1, 2):
        assert cert.groups[f"H_{n}(H)"].is_trivial()
        assert cert.groups[f"H_{n}(pair)"] == cert.groups[f"H_{n}(G)"]


def test_les_split_product(v4):
    # for the product pair H is a retract of G, so the connecting maps
    # H_{n+1}(pair) -> H_n(H) vanish and the sequence splits:
    # H_n(H) -> H_n(G) is injective and H_n(G) -> H_n(pair) is onto
    triv = GModule.trivial(v4)
    order_two = [s for s in R.all_subgroups(v4) if s.order == 2]
    assert v4.subgroup_generated([1]) in order_two and len(order_two) == 3
    for h in order_two:
        cert = R.verify_takasu_les(h, triv, 3)
        assert cert.all_exact
        g = cert.groups
        for n in range(0, 4):
            conn = cert.maps[f"H_{n + 1}(pair)->H_{n}(H)"]
            assert R.is_zero_map(conn, g[f"H_{n}(H)"])
        for n in range(1, 4):
            inc = cert.maps[f"H_{n}(H)->H_{n}(G)"]
            assert R.hom_kernel(inc, g[f"H_{n}(H)"], g[f"H_{n}(G)"]).is_trivial()
            proj = cert.maps[f"H_{n}(G)->H_{n}(pair)"]
            assert R.hom_cokernel(proj, g[f"H_{n}(pair)"]).is_trivial()


def test_normal_quotient_oracle(c4, c4_c2, s3, s3_a3):
    triv4 = GModule.trivial(c4)
    rep = R.normal_quotient_oracle(c4_c2, triv4, 3)
    assert rep.match and str(rep.adamson) == "Z/2"
    rep2 = R.normal_quotient_oracle(s3_a3, GModule.trivial(s3), 1)
    assert rep2.match and str(rep2.adamson) == "Z/2"
    full = R.normal_quotient_oracle(s3.full_subgroup(), GModule.trivial(s3), 2)
    assert full.match and full.adamson.is_trivial()


def test_normal_quotient_oracle_rejects_non_normal(s3, s3_transposition):
    with pytest.raises(ValidationError):
        R.normal_quotient_oracle(s3_transposition, GModule.trivial(s3), 1)


def test_adamson_truncation_error(c4, c4_c2):
    with pytest.raises(TruncationError):
        R.adamson_homology(c4_c2, GModule.trivial(c4), 3, truncation=2)


def test_adamson_refuses_a_module_over_another_group(s3):
    # the sign module of S3 and a pair in C6, a group of the same order
    h = R.cyclic_group(6).subgroup_generated([3])
    signs = [
        (-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(3), 2))
        for p in itertools.permutations(range(3))
    ]
    sign = GModule.from_action_matrices(s3, [IntMatrix([[s]]) for s in signs], label="sign")
    for degree in (0, 1):
        with pytest.raises(ValidationError, match="module over a different group"):
            R.adamson_homology(h, sign, degree)


def test_adamson_complex_acyclicity(c4_c2):
    cx = R.adamson_complex(c4_c2, 4)
    validate_acyclic(cx)


def _budget_outcome(call):
    try:
        return str(call())
    except BudgetError as err:
        return (err.what, err.required, err.cap)


def _cold_and_warm(warm_up, call):
    """The outcome of `call(h)` for C4 > C2 on cold caches, and on caches
    warmed by `warm_up(h)`; a fresh group keeps the first cold."""
    outcomes = []
    for warm in (False, True):
        h = R.cyclic_group(4).subgroup_generated([2])
        if warm:
            warm_up(h)
        outcomes.append(_budget_outcome(lambda: call(h)))
    return outcomes


def test_budget_on_cached_complex_of_same_truncation():
    cold, warm = _cold_and_warm(
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 2),
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 2, rank_cap=10),
    )
    assert cold == warm == ("standard pair complex degree 3 for C4", 16, 10)


def test_budget_ignores_degrees_beyond_the_call():
    cold, warm = _cold_and_warm(
        lambda h: R.adamson_homology(h, GModule.trivial(h.parent), 4),
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 0, rank_cap=16),
    )
    assert cold == warm == "Z"


def test_budget_on_cached_resolutions():
    def warm_up(h):
        R.takasu_homology(h, GModule.trivial(h.parent), 3)
        takasu_reference(h, GModule.trivial(h.parent), 3)

    term0 = ("resolution term 0", 4, 1)
    cold, warm = _cold_and_warm(
        warm_up,
        lambda h: R.modres.cached_resolution(R.standard_modules(h).i_module, 3, rank_cap=1),
    )
    assert cold == warm == term0
    cold, warm = _cold_and_warm(
        warm_up, lambda h: R.takasu_homology(h, GModule.trivial(h.parent), 2, rank_cap=1)
    )
    assert cold == warm == term0
    cold, warm = _cold_and_warm(warm_up, lambda h: R.takasu_resolution(h, 2, rank_cap=100))
    assert cold == warm == ("relative standard resolution term 2 for C4 (Z-rank)", 224, 100)
