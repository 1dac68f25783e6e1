"""Unit tests for half-open intervals and interval sets."""

from hypothesis import given
from hypothesis import strategies as st

from tests.geometry.interval import Interval, IntervalSet


class TestInterval:
    def test_length_and_empty(self):
        assert len(Interval(2, 5)) == 3
        assert Interval(5, 5).is_empty()
        assert Interval(6, 5).is_empty()
        assert len(Interval(6, 5)) == 0

    def test_contains(self):
        ival = Interval(2, 5)
        assert ival.contains(2)
        assert ival.contains(4)
        assert not ival.contains(5)
        assert not ival.contains(1)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(3, 7))
        assert Interval(0, 10).contains_interval(Interval(0, 10))
        assert not Interval(0, 10).contains_interval(Interval(3, 11))
        # Empty intervals are contained everywhere.
        assert Interval(4, 4).contains_interval(Interval(9, 9))
        assert Interval(0, 1).contains_interval(Interval(5, 5))

    def test_overlaps(self):
        assert Interval(0, 5).overlaps(Interval(4, 10))
        assert not Interval(0, 5).overlaps(Interval(5, 10))  # half-open
        assert not Interval(0, 5).overlaps(Interval(7, 10))

    def test_intersect(self):
        assert Interval(0, 5).intersect(Interval(3, 10)) == Interval(3, 5)
        assert Interval(0, 5).intersect(Interval(7, 10)).is_empty()

    def test_union_hull(self):
        assert Interval(0, 2).union_hull(Interval(5, 7)) == Interval(0, 7)
        assert Interval(3, 3).union_hull(Interval(5, 7)) == Interval(5, 7)

    def test_subtract_middle(self):
        pieces = Interval(0, 10).subtract(Interval(3, 7))
        assert pieces == [Interval(0, 3), Interval(7, 10)]

    def test_subtract_disjoint(self):
        assert Interval(0, 5).subtract(Interval(7, 9)) == [Interval(0, 5)]

    def test_subtract_covering(self):
        assert Interval(3, 5).subtract(Interval(0, 10)) == []

    def test_subtract_left_edge(self):
        assert Interval(0, 10).subtract(Interval(0, 4)) == [Interval(4, 10)]

    def test_shift(self):
        assert Interval(1, 3).shift(10) == Interval(11, 13)


class TestIntervalSet:
    def test_add_merges_adjacent(self):
        s = IntervalSet([Interval(0, 3), Interval(3, 5)])
        assert s.intervals() == [Interval(0, 5)]

    def test_add_merges_overlapping(self):
        s = IntervalSet([Interval(0, 4), Interval(2, 8)])
        assert s.intervals() == [Interval(0, 8)]

    def test_add_keeps_disjoint(self):
        s = IntervalSet([Interval(0, 2), Interval(5, 7)])
        assert s.intervals() == [Interval(0, 2), Interval(5, 7)]

    def test_add_out_of_order(self):
        s = IntervalSet([Interval(5, 7), Interval(0, 2)])
        assert s.intervals() == [Interval(0, 2), Interval(5, 7)]

    def test_total_extent(self):
        s = IntervalSet([Interval(0, 2), Interval(5, 8)])
        assert s.total_extent() == 5

    def test_subtract(self):
        s = IntervalSet.of(0, 10).subtract(IntervalSet.of(3, 7))
        assert s.intervals() == [Interval(0, 3), Interval(7, 10)]

    def test_intersect(self):
        a = IntervalSet([Interval(0, 5), Interval(8, 12)])
        b = IntervalSet.of(3, 10)
        assert a.intersect(b).intervals() == [Interval(3, 5), Interval(8, 10)]

    def test_contains_interval(self):
        s = IntervalSet([Interval(0, 5), Interval(5, 10)])
        assert s.contains_interval(Interval(2, 8))
        assert not s.contains_interval(Interval(2, 11))

    def test_hull(self):
        s = IntervalSet([Interval(2, 4), Interval(9, 11)])
        assert s.hull() == Interval(2, 11)

    def test_equality_is_canonical(self):
        a = IntervalSet([Interval(0, 3), Interval(3, 6)])
        b = IntervalSet([Interval(0, 6)])
        assert a == b


_intervals = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
).map(lambda t: Interval(min(t), max(t)))


def _members(s: IntervalSet, lo: int = 0, hi: int = 61) -> set:
    return {p for p in range(lo, hi) for i in s if i.contains(p)}


class TestIntervalSetProperties:
    @given(st.lists(_intervals, max_size=8))
    def test_union_matches_pointwise(self, ivals):
        s = IntervalSet(ivals)
        expected = {p for i in ivals for p in range(i.lo, i.hi)}
        assert _members(s) == expected

    @given(st.lists(_intervals, max_size=6), st.lists(_intervals, max_size=6))
    def test_subtract_matches_pointwise(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert _members(a.subtract(b)) == _members(a) - _members(b)

    @given(st.lists(_intervals, max_size=6), st.lists(_intervals, max_size=6))
    def test_intersect_matches_pointwise(self, xs, ys):
        a, b = IntervalSet(xs), IntervalSet(ys)
        assert _members(a.intersect(b)) == _members(a) & _members(b)

    @given(st.lists(_intervals, max_size=8))
    def test_canonical_form(self, ivals):
        s = IntervalSet(ivals)
        members = s.intervals()
        assert all(not i.is_empty() for i in members)
        # Sorted, disjoint, non-adjacent.
        for a, b in zip(members, members[1:]):
            assert a.hi < b.lo
