"""The annihilation guard on every entry point that returns a group.

[G:H] kills Adamson's H_n(G,H;M) for n >= 1, |G| kills Takasu's H_n(G,H;M)
for n >= 2 and H_n(G;M) for n >= 1, and |H| kills H_n(H;M) for n >= 1, so
each group is finite with exponent dividing its bound.  Over every pair
class of the order-<=12 benchmark corpus, with trivial, mod-2, permutation
and regular coefficients, every answer obeys the bound (and the guard lets
it through), and so do the groups of every `compare` and `verify-les`
reference; a wrong group breaks it, and the guard refuses it with a
`ValidationError` naming the theory, the degree and the bound.
"""

import json
import sys
from pathlib import Path

import pytest

import relhom as R
from relhom import GModule, ValidationError, cli, exactla

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

with open(PERFBENCH / "refs.json", encoding="utf-8") as fh:
    REFS = json.load(fh)

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
        "trivial_mod2": GModule.trivial_mod(g, 2),
        "perm": GModule.permutation(h),
        "regular": GModule.regular(g),
    }


def _obeys(group, bound):
    return group.free_rank == 0 and all(bound % d == 0 for d in group.torsion)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_answers_obey_the_annihilation_bounds(pair):
    group, gens, index = pair
    h = group.subgroup_generated(gens)
    assert index == group.order // h.order
    for name, m in _modules(h).items():
        for n in range(1, 4):
            assert _obeys(R.adamson_homology(h, m, n, 10 ** 6, 4), index), (name, n)
        for n in range(2, 4):
            assert _obeys(R.takasu_homology(h, m, n, 10 ** 6), group.order), (name, n)


def _drop_a_pivot(real):
    """A front that reports one unit pivot fewer: the rank falls by one."""
    def front(a, cut=()):
        k, rest, pivots = real(a, cut)
        return (k - 1, rest, pivots) if k else (k, rest, pivots)
    return front


def _seven_for_a_pivot(real):
    """A front that reports 7 for one unit pivot: the rank stays."""
    def front(a, cut=()):
        k, rest, pivots = real(a, cut)
        return (k - 1, rest + [7], pivots) if k else (k, rest, pivots)
    return front


@pytest.mark.parametrize("corrupt", [_drop_a_pivot, _seven_for_a_pivot])
def test_a_wrong_front_trips_the_guard(monkeypatch, corrupt):
    # a fresh group, so that no complex or front is cached yet
    g = R.symmetric_group(3)
    h = g.subgroup_generated([next(x for x in g.elements() if g.element_order(x) == 2)])
    m = GModule.trivial(g)
    monkeypatch.setattr(exactla, "_smith_split", corrupt(exactla._smith_split))
    with pytest.raises(ValidationError, match=r"^Adamson homology in degree 1 is .*annihilated by 3,"):
        R.adamson_homology(h, m, 1)
    with pytest.raises(ValidationError, match=r"^Takasu homology in degree 2 is .*annihilated by 6,"):
        R.takasu_homology(h, m, 2)


def test_degrees_below_the_bounds_are_not_guarded():
    # Adamson's H_0 with Z and Takasu's H_1 = I_{G/H} (x)_G Z[G] = I_{G/H}
    # with regular coefficients are free: only n >= 1 and n >= 2 are bounded
    c4 = R.cyclic_group(4)
    h = c4.subgroup_generated([2])
    assert R.adamson_homology(h, GModule.trivial(c4), 0) == R.FgAbGroup(1, [])
    assert R.takasu_homology(h, GModule.regular(c4), 1) == R.FgAbGroup(1, [])


def _parse(text):
    """The `FgAbGroup` that `str` prints as `text`."""
    free, torsion = 0, []
    for part in [] if text == "0" else text.split(" + "):
        if part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            free += int(part[2:]) if part.startswith("Z^") else 1
    return R.FgAbGroup(free, torsion)


def _bounded_reference_groups(doc, results):
    """(printed group, bound) for each group of a compare or verify-les reference
    that an annihilation theorem bounds."""
    g = cli.parse_group(doc["group"], "group")
    h = g.subgroup_generated(doc["subgroup"]["generators"])
    if doc["command"] == "compare":
        for row in results["rows"]:
            if row["degree"] >= 2:
                yield row["takasu"], g.order
            yield row["adamson"], g.order // h.order
        return
    groups = results["groups"]
    n = 1
    while f"H_{n}(G)" in groups:
        yield groups[f"H_{n + 1}(pair)"], g.order
        yield groups[f"H_{n}(G)"], g.order
        yield groups[f"H_{n}(H)"], h.order
        n += 1


def test_reference_groups_obey_the_annihilation_bounds():
    docs = {
        workloads.job_key(doc): doc
        for workload in workloads.WORKLOADS
        for doc in workloads.distinct_jobs(workload)
        if doc["command"] in ("compare", "verify-les")
    }
    count = 0
    for key, doc in docs.items():
        for text, bound in _bounded_reference_groups(doc, REFS[key]["results"]):
            count += 1
            assert _obeys(_parse(text), bound), (key, text, bound)
    assert count == 1487


def _wrong_finite_groups(monkeypatch, wrong):
    """Replace every finite group that `HomologyData` reads by `wrong` of
    it.  A corrupted front alone cannot reach the guards of `comparison`
    and `verify_takasu_les`: `HomologyData` checks a nontrivial group from
    the front against the dense engine's and refuses a difference first.
    So this stands for a wrong complex, which both engines read alike.
    Free groups (H_0 with Z) stay, so the degree-0 maps still fit."""
    init = exactla.HomologyData.__init__

    def corrupt(self, dn, dnp1, **kw):
        init(self, dn, dnp1, **kw)
        if not self.group.free_rank:
            self.group = wrong(self.group)

    monkeypatch.setattr(exactla.HomologyData, "__init__", corrupt)


def _plus(order):
    return lambda group: group.direct_sum(R.FgAbGroup(0, [order]))


def _doubled(group):
    return R.FgAbGroup(0, [2 * d for d in group.torsion])


def _fresh_s3_pair():
    # a fresh group, so that no complex or homology is cached yet
    g = R.symmetric_group(3)
    h = g.subgroup_generated([next(x for x in g.elements() if g.element_order(x) == 2)])
    return h, GModule.trivial(g)


@pytest.mark.parametrize(
    "degree,wrong,message",
    [
        # Takasu's H_1 is not bounded; Adamson's H_1 + Z/2 breaks [G:H] = 3
        (1, _plus(2), r"^Adamson homology in degree 1 is Z/2, which is not annihilated by 3,"),
        (2, _plus(4), r"^Takasu homology in degree 2 is Z/4, which is not annihilated by 6,"),
    ],
)
def test_a_wrong_group_trips_the_comparison_guards(monkeypatch, degree, wrong, message):
    h, m = _fresh_s3_pair()
    _wrong_finite_groups(monkeypatch, wrong)
    with pytest.raises(ValidationError, match=message):
        R.comparison(h, m, [degree])


@pytest.mark.parametrize(
    "wrong,message",
    [
        # S3 > C2 with Z: H_2(pair) = 0, H_1(G) = Z/2 and H_1(H) = Z/2
        (_plus(4), r"^Takasu homology in degree 2 is Z/4, which is not annihilated by 6,"),
        (_doubled, r"^Group homology in degree 1 is Z/4, which is not annihilated by 6,"),
        (_plus(3), r"^Subgroup homology in degree 1 is Z/6, which is not annihilated by 2,"),
    ],
)
def test_a_wrong_group_trips_the_les_guards(monkeypatch, wrong, message):
    h, m = _fresh_s3_pair()
    _wrong_finite_groups(monkeypatch, wrong)
    with pytest.raises(ValidationError, match=message):
        R.verify_takasu_les(h, m, 1)
