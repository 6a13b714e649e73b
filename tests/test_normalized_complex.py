"""The normalized coset-tuple complex against the full one.

`adamson_homology` reads its groups from the normalized complex C/D, which
drops the tuples with two equal neighbours; `comparison` keeps the full
complex C.  Over every pair class of the order-<=12 benchmark corpus, in
degrees 0..3 at truncation 4, the two complexes must give the same groups
with trivial, mod-2, permutation, regular and augmentation-kernel
coefficients; C/D must hold k(k-1)^n tuples in degree n (k = [G:H]); and
the Burnside orbit count that the tensor budget reads must be the number
of G-orbits enumerated on C, on which C/D is refused.
"""

import sys
from pathlib import Path

import pytest

import relhom as R
from relhom import GModule, cli
from relhom.errors import BudgetError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

TRUNCATION = 4
CAP = 10 ** 6

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
        "trivial_Zmod2": GModule.trivial_mod(g, 2),
        "perm": GModule.permutation(h),
        "regular": GModule.regular(g),
        "I(G,H)": R.standard_modules(h).i_module,
    }


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_normalized_complex_matches_the_full_complex(pair):
    group, gens, _ = pair
    h = group.subgroup_generated(gens)
    k = R.coset_space(h).size
    full = R.AdamsonComplex(h, TRUNCATION, CAP, normalized=False)
    norm = R.adamson_complex(h, TRUNCATION, CAP)
    assert norm.normalized and not full.normalized
    for n in range(TRUNCATION + 1):
        assert len(full.tuples[n]) == k ** (n + 1), n
        assert len(norm.tuples[n]) == k * (k - 1) ** n, n
        assert all(t[i] != t[i + 1] for t in norm.tuples[n] for i in range(n)), n
        assert full.standard_orbits[n] == full.num_orbits(n), n
        assert norm.standard_orbits[n] == full.num_orbits(n), n
    # the tensor budget counts C's orbits on C/D too
    top = full.num_orbits(TRUNCATION)
    with pytest.raises(BudgetError) as err:
        norm.tensor(GModule.trivial(group), top - 1)
    assert (err.value.what, err.value.required) == (
        f"tensored pair complex degree {TRUNCATION}", top
    )
    for name, m in _modules(h).items():
        want = full.tensor(m, CAP)
        for n in range(TRUNCATION):
            got = R.adamson_homology(h, m, n, CAP, TRUNCATION)
            assert got == want.homology(n), (name, n)
