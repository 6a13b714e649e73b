"""`HomologyData` runs the dense engine only where the homology is nonzero.

A `comparison` reads both of its sides in normalized homology coordinates.
In a degree whose group is 0 there are no coordinates to read, so
`HomologyData` must take the group from the sparse unit-pivot front and
construct no dense `_Eliminator` of its own (the front's eliminations of
small residuals, inside `rank_z` and `smith_invariants`, are not counted).
"""

import sys

import relhom as R
from relhom import GModule, exactla


def _count_dense_engines(monkeypatch):
    """Per `HomologyData` built, its group and the number of `_Eliminator`s
    that `HomologyData.__init__` constructs itself."""
    real_init = exactla.HomologyData.__init__
    own = real_init.__code__
    seen, open_counts = [], []

    class Counted(exactla._Eliminator):
        def __init__(self, *args, **kwargs):
            if sys._getframe(1).f_code is own:
                open_counts[-1] += 1
            super().__init__(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        open_counts.append(0)
        real_init(self, *args, **kwargs)
        seen.append((self.group, open_counts.pop()))

    monkeypatch.setattr(exactla, "_Eliminator", Counted)
    monkeypatch.setattr(exactla.HomologyData, "__init__", counted_init)
    return seen


def _s3_c2():
    s3 = R.symmetric_group(3)
    return s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)])


def test_zero_homology_makes_no_dense_engine_in_a_comparison(monkeypatch):
    # with regular coefficients both sides vanish in degrees 1..4
    h = _s3_c2()
    seen = _count_dense_engines(monkeypatch)
    data = R.comparison(h, GModule.regular(h.parent), [2, 3, 4])
    assert sorted(data.degrees) == [2, 3, 4]
    assert seen
    assert all(group.is_trivial() for group, _ in seen)
    assert [n for _, n in seen] == [0] * len(seen)


def test_counter_sees_the_dense_engine_where_coordinates_are_read(monkeypatch):
    h = _s3_c2()
    seen = _count_dense_engines(monkeypatch)
    R.comparison(h, GModule.trivial(h.parent), [2, 3])
    zero = [n for group, n in seen if group.is_trivial()]
    nonzero = [n for group, n in seen if not group.is_trivial()]
    assert zero and nonzero
    assert zero == [0] * len(zero)
    assert nonzero == [2] * len(nonzero)
