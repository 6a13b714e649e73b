"""Caches keyed by value: an answer must not depend on call order, on
object identity or on what the process computed before, and a budget
applies on a cache hit as on a miss.  Every cached result lives in its
group's memo and is freed with the group."""

import gc
import json
import random
import sys
import weakref
from pathlib import Path

import pytest

import relhom as R
from relhom import GModule, cli, modres
from relhom.errors import BudgetError

from oracles import lift_is_chain_map_check

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

with open(PERFBENCH / "refs.json", encoding="utf-8") as fh:
    REFS = json.load(fh)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _interned_c4_c2():
    return R.make_group("cyclic", 4).subgroup_generated([2])


def _fresh_c4_c2():
    return R.cyclic_group(4).subgroup_generated([2])


def _certificate(cert):
    return (
        cert.groups,
        cert.maps,
        [(s.label, s.exact, s.detail) for s in cert.slots],
        cert.shapiro_ok,
    )


def test_shorter_les_after_a_longer_one():
    h = _interned_c4_c2()
    R.verify_takasu_les(h, GModule.permutation(h), 3)
    second = R.verify_takasu_les(h, GModule.permutation(h), 2)
    fresh = _fresh_c4_c2()
    cold = R.verify_takasu_les(fresh, GModule.permutation(fresh), 2)
    assert second.all_exact
    assert _certificate(second) == _certificate(cold)


def test_comparison_after_a_longer_les():
    h = _interned_c4_c2()
    R.verify_takasu_les(h, GModule.trivial(h.parent), 2)
    second = R.comparison(h, GModule.trivial(h.parent), [2])
    fresh = _fresh_c4_c2()
    cold = R.comparison(fresh, GModule.trivial(fresh.parent), [2])
    assert second.degrees == cold.degrees
    assert lift_is_chain_map_check(second)


def test_cached_resolution_has_exactly_the_length_asked():
    h = _interned_c4_c2()
    i_module = R.standard_modules(h).i_module
    long = modres.cached_resolution(i_module, 4)
    short = modres.cached_resolution(i_module, 2)
    cold = R.resolve(R.standard_modules(_fresh_c4_c2()).i_module, 2)
    assert (long.length, short.length) == (4, 2)
    assert short.free_ranks == cold.free_ranks
    assert short.gen_images == cold.gen_images
    for k in (1, 2):
        assert short.boundary_matrix(k) == cold.boundary_matrix(k)


def _outcome(call):
    try:
        return str(call())
    except BudgetError as err:
        return (err.what, err.required, err.cap)


# (uncapped warm-up, capped call, expected outcome) on C4 > C2; the calls
# build their modules fresh, so a hit can come only from a value key
VALUE_HITS = [
    (
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 2),
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 2, rank_cap=10),
        ("standard pair complex degree 3 for C4", 16, 10),
    ),
    (
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 1),
        lambda h: R.adamson_homology(h, GModule.regular(h.parent), 1, rank_cap=10),
        ("tensored pair complex degree 2", 16, 10),
    ),
    (
        lambda h: modres.cached_resolution(GModule.trivial(h.parent), 4),
        lambda h: modres.cached_resolution(GModule.trivial(h.parent), 3, rank_cap=1),
        ("resolution term 0", 4, 1),
    ),
    (
        lambda h: R.verify_takasu_les(h, GModule.trivial(h.parent), 3),
        lambda h: R.verify_takasu_les(h, GModule.trivial(h.parent), 2, rank_cap=3),
        ("resolution term 0", 4, 3),
    ),
]


@pytest.mark.parametrize("warm_up,call,expected", VALUE_HITS)
def test_budget_on_value_keyed_hits(warm_up, call, expected):
    cold = _outcome(lambda: call(_fresh_c4_c2()))
    warm_up(_interned_c4_c2())
    reparsed = cli.parse_group({"kind": "cyclic", "n": 4}, "group")
    assert reparsed is R.make_group("cyclic", 4)
    warm = _outcome(lambda: call(reparsed.subgroup_generated([2])))
    assert cold == warm == expected


def _resolved_modules(monkeypatch):
    """The modules `modres.resolve` is called on from now on."""
    calls = []
    resolve = modres.resolve
    monkeypatch.setattr(modres, "resolve", lambda m, *a, **k: calls.append(m) or resolve(m, *a, **k))
    return calls


def test_equal_modules_share_a_resolution(monkeypatch):
    calls = _resolved_modules(monkeypatch)
    first = modres.cached_resolution(GModule.trivial(R.make_group("symmetric", 3)), 3)
    calls.clear()
    again = modres.cached_resolution(GModule.trivial(R.make_group("symmetric", 3)), 3)
    assert calls == []
    assert again.gen_images == first.gen_images


def _order_jobs():
    """About 30 distinct session jobs on C4 and S3: every command of the
    session mix, over pairs that share groups, modules and resolutions."""
    docs = [d for d in workloads.distinct_jobs("session")
            if d["group"] in (workloads.C4, workloads.S3)]
    return random.Random(6).sample(docs, 30)


def test_answers_do_not_depend_on_job_order():
    # refs.json was made with one fresh interpreter per job: cold answers
    jobs = _order_jobs()
    shuffled = list(jobs)
    random.Random(61).shuffle(shuffled)
    for order in (jobs, jobs[::-1], shuffled):
        for doc in order:
            document = cli.run(cli.Job(doc))
            answer = {"results": document["results"], "ok": document["ok"]}
            assert _canon(answer) == _canon(REFS[workloads.job_key(doc)]), doc


def test_conjugate_subgroups_share_one_group(monkeypatch):
    d4 = R.make_group("dihedral", 4)
    d4.memo.clear()
    first, second = d4.subgroup_generated([4]), d4.subgroup_generated([6])
    assert R.is_subconjugate(first, second) and first != second
    hgrp = R.subgroup_as_group(first)[0]
    assert R.subgroup_as_group(second)[0] is hgrp
    calls = _resolved_modules(monkeypatch)
    R.verify_takasu_les(first, GModule.trivial(d4), 2)
    assert GModule.trivial(hgrp).value_key() in [m.value_key() for m in calls]
    calls.clear()
    cert = R.verify_takasu_les(second, GModule.trivial(d4), 2)
    # Z over the shared subgroup group hits; only I(G, H) of the second,
    # another module, is resolved anew
    assert [m.value_key() for m in calls] == [
        R.standard_modules(second).i_module.value_key()
    ]
    fresh = R.dihedral_group(4).subgroup_generated([6])
    cold = R.verify_takasu_les(fresh, GModule.trivial(fresh.parent), 2)
    assert _certificate(cert) == _certificate(cold)


def test_takasu_job_builds_each_resolution_term_once(monkeypatch):
    R.make_group("dihedral", 4).memo.clear()
    built = []
    minimize = modres._minimize_generators
    monkeypatch.setattr(
        modres, "_minimize_generators", lambda *a: built.append(a) or minimize(*a)
    )
    job = cli.Job({
        "command": "takasu",
        "group": {"kind": "dihedral", "n": 4},
        "subgroup": {"generators": [4]},
        "coefficients": {"kind": "trivial_Z"},
        "degrees": "1..4",
    })
    cli.run(job)
    # one generator minimization per term 0..4 of I(G, H)'s resolution
    assert len(built) == 5
    i_module = R.standard_modules(job.subgroup).i_module
    res = modres.cached_resolution(i_module, 4)
    # views handed out keep their length when the entry is extended
    view = modres.cached_resolution(i_module, 2)
    longer = modres.cached_resolution(i_module, 5)
    assert (view.length, res.length, longer.length) == (2, 4, 5)
    assert len(built) == 6
    cold = R.resolve(R.standard_modules(R.dihedral_group(4).subgroup_generated([4])).i_module, 5)
    assert longer.free_ranks == cold.free_ranks
    assert longer.gen_images == cold.gen_images
    assert (res.free_ranks, res.gen_images) == (cold.free_ranks[:5], cold.gen_images[:5])


def test_named_constructor_groups_are_freed():
    # every cached result lives in its group's memo, so nothing the calls
    # cache keeps the group, or a subgroup's group, alive
    refs = []
    for _ in range(2):
        g = R.cyclic_group(4)
        h = g.subgroup_generated([2])
        R.verify_takasu_les(h, GModule.trivial(g), 2)
        R.comparison(h, GModule.trivial(g), [2])
        R.adamson_homology(h, GModule.trivial(g), 2)
        R.takasu_homology(h, GModule.trivial(g), 2)
        R.normal_quotient_oracle(h, GModule.trivial(g), 1)
        refs += [weakref.ref(g), weakref.ref(R.subgroup_as_group(h)[0])]
        del g, h
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
