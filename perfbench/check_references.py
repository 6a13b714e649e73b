"""Spot checks of the stored reference answers against independent values."""

import json

import pytest

import grouptables as gt
import run
import workloads

with open(run.REFS, encoding="utf-8") as fh:
    REFS = json.load(fh)


def ref(doc):
    return REFS[workloads.job_key(doc)]["results"]


def all_jobs():
    return [d for w in workloads.WORKLOADS for d in workloads.distinct_jobs(w)]


def cyclic_quotient_order(doc):
    """|G/H| if H is normal and G/H is cyclic, else None."""
    t = gt.table(doc["group"])
    h = gt.closure(t, doc["subgroup"]["generators"])
    if not gt.is_normal(t, h):
        return None
    m = len(t) // len(h)
    for g in range(len(t)):
        cosets, x = set(), 0
        for _ in range(m):
            cosets.add(frozenset(t[x][y] for y in h))
            x = t[x][g]
        if len(cosets) == m:
            return m
    return None


def cyclic_homology(m, n):
    """H_n(C_m; Z) in relhom's notation."""
    if n == 0:
        return "Z"
    if n % 2 == 0:
        return "0"
    return f"Z/{m}"


def test_readme_c4_c2_table():
    doc = {"command": "compare", "group": workloads.C4, "subgroup": {"generators": [2]},
           "coefficients": {"kind": "trivial_Z"}, "degrees": "1..4"}
    rows = [(r["degree"], r["takasu"], r["adamson"], r["phi"]) for r in ref(doc)["rows"]]
    assert rows == [(1, "Z/2", "Z/2", "iso"), (2, "0", "0", "zero"),
                    (3, "Z/2", "Z/2", "zero"), (4, "0", "0", "zero")]


def test_adamson_over_a_normal_subgroup_is_homology_of_the_cyclic_quotient():
    checked = 0
    for doc in all_jobs():
        if doc["command"] != "adamson" or doc["coefficients"]["kind"] != "trivial_Z":
            continue
        m = cyclic_quotient_order(doc)
        if m is None:
            continue
        for row in ref(doc)["rows"]:
            assert row["group"] == cyclic_homology(m, row["degree"]), doc
        checked += 1
    assert checked >= 10


def test_oracle_normal_references_agree():
    oracle = [d for d in all_jobs() if d["command"] == "oracle-normal"]
    assert oracle
    for doc in oracle:
        res = ref(doc)
        assert res["all_match"]
        assert all(r["adamson"] == r["quotient"] for r in res["rows"])


def test_long_exact_sequences_are_exact():
    les = [d for d in all_jobs() if d["command"] == "verify-les"]
    assert len(les) > 50
    assert all(ref(d)["all_exact"] for d in les)


@pytest.mark.parametrize("kind", ["trivial_Z", "perm", "regular"])
def test_phi_is_an_isomorphism_for_the_malnormal_s3_pair(kind):
    docs = [d for d in workloads.distinct_jobs("compare")
            if d["group"] == workloads.S3 and d["coefficients"]["kind"] == kind]
    assert len(docs) == 3
    for doc in docs:
        rows = ref(doc)["rows"]
        assert len(rows) == 3
        assert all(r["kernel"] == "0" and r["cokernel"] == "0" for r in rows)


def test_conjugate_variants_have_the_same_groups():
    for workload in workloads.WORKLOADS:
        for variants in workloads.templates(workload):
            answers = [ref(d) for d in variants]
            groups = [(a.get("groups"), [(r.get("group"), r.get("takasu"), r.get("adamson"))
                                         for r in a.get("rows", [])]) for a in answers]
            assert all(g == groups[0] for g in groups), variants[0]["command"]
