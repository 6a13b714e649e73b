"""The orbit-coinvariant builder against the termwise oracle.

Every route that tensors a permutation complex down to the coinvariants
M_K (the coset-tuple complex, shifted and not, the same complex read back
from its permutation modules, and free resolutions) must give the homology
that `tensor_gmodule_complex` gives on the full termwise tensor product.
"""

import pytest

import relhom as R
from relhom import GModule, IntMatrix

from oracles import full_boundary, term_module


def _pair(name):
    if name == "C4>C2":
        return R.cyclic_group(4).subgroup_generated([2])
    if name == "S3>C2":
        s3 = R.symmetric_group(3)
        return s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)])
    v4 = R.direct_product(R.cyclic_group(2), R.cyclic_group(2))
    return v4.subgroup_generated([1])


def _sign(g):
    """The sign character through the first subgroup of index 2."""
    sub = next(k for k in R.all_subgroups(g) if 2 * k.order == g.order)
    mats = [IntMatrix([[1 if x in sub.elements else -1]]) for x in g.elements()]
    return GModule.from_action_matrices(g, mats, label="sign")


def _coefficients(h, name):
    g = h.parent
    return {
        "Z": lambda: GModule.trivial(g),
        "Z/2": lambda: GModule.trivial_mod(g, 2),
        "sign": lambda: _sign(g),
        "Z[G/K]": lambda: GModule.permutation(h),
        "regular": lambda: GModule.regular(g),
    }[name]()


PAIRS = ["C4>C2", "S3>C2", "V4>C2"]
COEFFICIENTS = ["Z", "Z/2", "sign", "Z[G/K]", "regular"]
cases = pytest.mark.parametrize(
    "pair,coeff", [(p, c) for p in PAIRS for c in COEFFICIENTS]
)


def _same_homology(got, want):
    assert got.ranks and len(got.ranks) == len(want.ranks)
    for n in range(len(got.ranks)):
        assert got.homology(n) == want.homology(n), n


@cases
def test_coset_tuple_routes_match_oracle(pair, coeff):
    h = _pair(pair)
    m = _coefficients(h, coeff)
    cx = R.AdamsonComplex(h, 3)
    terms = [term_module(cx, n) for n in range(4)]
    bounds = [full_boundary(cx, n) for n in range(1, 4)]
    oracle = R.tensor_gmodule_complex(terms, bounds, m)
    _same_homology(cx.tensor(m), oracle)
    _same_homology(R.tensor_perm_complex(terms, bounds, m), oracle)
    shifted_oracle = R.tensor_gmodule_complex(terms[1:], bounds[1:], m)
    _same_homology(cx.shifted_tensor(m), shifted_oracle)


def _free_oracle(res, m):
    terms = [GModule.free(res.group, r) for r in res.free_ranks]
    bounds = [res.boundary_matrix(k) for k in range(1, res.length + 1)]
    return R.tensor_gmodule_complex(terms, bounds, m)


@cases
def test_resolution_routes_match_oracle(pair, coeff):
    h = _pair(pair)
    m = _coefficients(h, coeff)
    res = R.resolve(R.standard_modules(h).i_module, 3)
    _same_homology(res.tensor(m), _free_oracle(res, m))
    # the relative standard resolution grows as |G|^(k+2): its degree-2
    # term for S3 > C2 has Z-rank 1248, too large for the dense oracle
    tak = R.takasu_resolution(h, 1)
    _same_homology(tak.tensor(m), _free_oracle(tak, m))
