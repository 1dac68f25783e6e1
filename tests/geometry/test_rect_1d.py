"""Unit and property tests for 1-D rects and rect sets.

Vectors and the row ranges of CSR tiles are 1-D rects built with
:meth:`Rect.interval1d`, and ``Rect.__init__`` computes their volume on a
path of its own.  These cases check the 1-D set algebra the coherence
index and instance manager rely on against pointwise reference sets.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect, RectSet

iv = Rect.interval1d


class TestRect1D:
    def test_length_and_empty(self):
        assert iv(2, 5).volume() == 3
        assert iv(2, 5).shape == (3,)
        assert iv(5, 5).is_empty()
        assert iv(6, 5).is_empty()
        assert iv(6, 5).volume() == 0
        assert iv(6, 5).shape == (0,)

    def test_contains_point(self):
        ival = iv(2, 5)
        assert ival.contains_point((2,))
        assert ival.contains_point((4,))
        assert not ival.contains_point((5,))
        assert not ival.contains_point((1,))

    def test_contains(self):
        assert iv(0, 10).contains(iv(3, 7))
        assert iv(0, 10).contains(iv(0, 10))
        assert not iv(0, 10).contains(iv(3, 11))
        # Empty rects are contained everywhere.
        assert iv(4, 4).contains(iv(9, 9))
        assert iv(0, 1).contains(iv(5, 5))

    def test_overlaps(self):
        assert iv(0, 5).overlaps(iv(4, 10))
        assert not iv(0, 5).overlaps(iv(5, 10))  # half-open
        assert not iv(0, 5).overlaps(iv(7, 10))

    def test_intersect(self):
        assert iv(0, 5).intersect(iv(3, 10)) == iv(3, 5)
        assert iv(0, 5).intersect(iv(7, 10)).is_empty()

    def test_union_hull(self):
        assert iv(0, 2).union_hull(iv(5, 7)) == iv(0, 7)
        assert iv(3, 3).union_hull(iv(5, 7)) == iv(5, 7)
        assert iv(5, 7).union_hull(iv(3, 3)) == iv(5, 7)

    def test_subtract_middle(self):
        assert iv(0, 10).subtract(iv(3, 7)) == [iv(0, 3), iv(7, 10)]

    def test_subtract_disjoint(self):
        assert iv(0, 5).subtract(iv(7, 9)) == [iv(0, 5)]

    def test_subtract_covering(self):
        assert iv(3, 5).subtract(iv(0, 10)) == []

    def test_subtract_edges(self):
        assert iv(0, 10).subtract(iv(0, 4)) == [iv(4, 10)]
        assert iv(0, 10).subtract(iv(6, 10)) == [iv(0, 6)]

    def test_shift(self):
        assert iv(1, 3).shift((10,)) == iv(11, 13)

    def test_slices(self):
        assert iv(2, 5).slices() == (slice(2, 5),)


class TestRectSet1D:
    def test_adjacent_members_cover_their_hull(self):
        s = RectSet([iv(0, 3), iv(3, 5)])
        assert s.volume() == 5
        assert s.contains_rect(iv(0, 5))
        assert s == RectSet.of(iv(0, 5))

    def test_overlapping_add_keeps_only_the_new_part(self):
        s = RectSet([iv(0, 4), iv(2, 8)])
        assert s.rects() == [iv(0, 4), iv(4, 8)]

    def test_add_keeps_disjoint(self):
        s = RectSet([iv(0, 2), iv(5, 7)])
        assert s.rects() == [iv(0, 2), iv(5, 7)]

    def test_add_keeps_insertion_order(self):
        s = RectSet([iv(5, 7), iv(0, 2)])
        assert s.rects() == [iv(5, 7), iv(0, 2)]

    def test_add_of_covered_or_empty_rect_is_a_no_op(self):
        s = RectSet([iv(0, 10)])
        s.add(iv(0, 10))
        s.add(iv(2, 6))
        s.add(iv(4, 4))
        assert s.rects() == [iv(0, 10)]

    def test_volume(self):
        assert RectSet([iv(0, 2), iv(5, 8)]).volume() == 5
        assert RectSet().volume() == 0
        assert RectSet().is_empty()

    def test_subtract(self):
        s = RectSet.of(iv(0, 10)).subtract(RectSet.of(iv(3, 7)))
        assert s.rects() == [iv(0, 3), iv(7, 10)]

    def test_intersect(self):
        a = RectSet([iv(0, 5), iv(8, 12)])
        b = RectSet.of(iv(3, 10))
        assert a.intersect(b).rects() == [iv(3, 5), iv(8, 10)]

    def test_contains_rect_across_a_seam(self):
        s = RectSet([iv(0, 5), iv(5, 10)])
        assert s.contains_rect(iv(2, 8))
        assert not s.contains_rect(iv(2, 11))

    def test_hull(self):
        assert RectSet([iv(2, 4), iv(9, 11)]).hull() == iv(2, 11)
        assert RectSet().hull().is_empty()

    def test_equality_is_extensional(self):
        assert RectSet([iv(0, 3), iv(3, 6)]) == RectSet([iv(0, 6)])
        assert RectSet([iv(0, 3), iv(3, 6)]) != RectSet([iv(0, 7)])


_intervals = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=60),
).map(lambda t: iv(min(t), max(t)))


def _members(rects) -> set:
    return {p for r in rects for p in range(r.lo[0], r.hi[0])}


class TestRectSet1DProperties:
    @given(st.lists(_intervals, max_size=8))
    def test_union_matches_pointwise(self, ivals):
        s = RectSet(ivals)
        assert _members(s) == _members(ivals)
        assert s.volume() == len(_members(ivals))

    @given(st.lists(_intervals, max_size=6), st.lists(_intervals, max_size=6))
    def test_subtract_matches_pointwise(self, xs, ys):
        a, b = RectSet(xs), RectSet(ys)
        assert _members(a.subtract(b)) == _members(a) - _members(b)

    @given(st.lists(_intervals, max_size=6), st.lists(_intervals, max_size=6))
    def test_intersect_matches_pointwise(self, xs, ys):
        a, b = RectSet(xs), RectSet(ys)
        assert _members(a.intersect(b)) == _members(a) & _members(b)

    @given(st.lists(_intervals, max_size=8))
    def test_members_are_nonempty_and_disjoint(self, ivals):
        members = RectSet(ivals).rects()
        assert all(not r.is_empty() for r in members)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert not a.overlaps(b)

    @given(
        st.lists(_intervals, max_size=4),
        st.lists(st.integers(min_value=1, max_value=9), max_size=8),
    )
    def test_add_disjoint_matches_add(self, prior, widths):
        """A batch of disjoint tiles lands exactly as one add() each."""
        tiles, lo = [], 0
        for w in widths:
            tiles.append(iv(lo, lo + w))
            lo += w
        one_by_one = RectSet(prior)
        for tile in tiles:
            one_by_one.add(tile)
        batched = RectSet(prior)
        batched.add_disjoint(tiles)
        assert batched.rects() == one_by_one.rects()
