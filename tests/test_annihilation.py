"""The annihilation guard on `adamson_homology` and `takasu_homology`.

[G:H] kills Adamson's H_n(G,H;M) for n >= 1, and |G| kills Takasu's
H_n(G,H;M) for n >= 2, so both groups are finite with exponent dividing
that bound.  Over every pair class of the order-<=12 benchmark corpus, with
trivial, mod-2, permutation and regular coefficients, every answer obeys
the bound (and the guard lets it through); a front that returns wrong
invariants makes a group that breaks it, and the guard refuses it with a
`ValidationError` naming the theory, the degree and the bound.
"""

import sys
from pathlib import Path

import pytest

import relhom as R
from relhom import GModule, ValidationError, cli, exactla

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
