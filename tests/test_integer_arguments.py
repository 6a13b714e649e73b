"""The public entry points refuse a degree, a rank cap or a truncation that
is not an integer (1.5, 2.0, True, "2") with a ValidationError naming the
argument, rather than answering for a truncated or coerced value or
failing with a bare TypeError."""

import pytest

import relhom as R
from relhom import GModule
from relhom.bredon import takasu_pair_complex
from relhom.errors import ValidationError

NOT_INTEGERS = [1.5, 2.0, True, "2"]

S3 = R.symmetric_group(3)
TRANSPOSITION = S3.subgroup_generated([next(g for g in S3.elements() if S3.element_order(g) == 2)])
A3 = S3.subgroup_generated([next(g for g in S3.elements() if S3.element_order(g) == 3)])
Z = GModule.trivial(S3)

CALLS = {
    "comparison": (lambda v: R.comparison(TRANSPOSITION, Z, [v]), "comparison degree"),
    "comparison_rank_cap": (lambda v: R.comparison(TRANSPOSITION, Z, [2], v), "rank_cap"),
    "takasu_homology": (lambda v: R.takasu_homology(TRANSPOSITION, Z, v), "degree"),
    "adamson_homology": (lambda v: R.adamson_homology(TRANSPOSITION, Z, v), "degree"),
    "adamson_homology_rank_cap": (
        lambda v: R.adamson_homology(TRANSPOSITION, Z, 2, v), "rank_cap"
    ),
    "adamson_homology_truncation": (
        lambda v: R.adamson_homology(TRANSPOSITION, Z, 1, 5000, v), "truncation"
    ),
    "bredon_homology": (
        lambda v: R.bredon_homology(takasu_pair_complex(TRANSPOSITION, 2), Z, v), "degree"
    ),
    "verify_takasu_les": (lambda v: R.verify_takasu_les(TRANSPOSITION, Z, v), "max_degree"),
    "group_homology": (lambda v: R.group_homology(S3, Z, v), "degree"),
    "tor": (lambda v: R.tor(Z, Z, v), "degree"),
    "normal_quotient_oracle": (lambda v: R.normal_quotient_oracle(A3, Z, v), "degree"),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(CALLS))
def test_entry_point_refuses_a_value_that_is_not_an_integer(entry, value):
    call, argument = CALLS[entry]
    with pytest.raises(ValidationError, match=f"^{argument} must be an integer, got {value!r}"):
        call(value)


@pytest.mark.parametrize("entry", sorted(CALLS))
def test_entry_point_answers_for_an_integer(entry):
    call, argument = CALLS[entry]
    call(5000 if argument == "rank_cap" else 3 if argument == "truncation" else 2)
