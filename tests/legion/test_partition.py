"""Unit and property tests for tilings and image partitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.legion.partition import (
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
)
from repro.legion.region import Region


class TestTiling:
    def test_even_split(self):
        r = Region((10,), np.float64)
        t = Tiling.create(r, 2)
        assert t.rects() == [Rect((0,), (5,)), Rect((5,), (10,))]

    def test_uneven_split_front_loaded(self):
        r = Region((10,), np.float64)
        t = Tiling.create(r, 3)
        sizes = [rect.volume() for rect in t.rects()]
        assert sizes == [4, 3, 3]

    def test_more_colors_than_elements(self):
        r = Region((2,), np.float64)
        t = Tiling.create(r, 4)
        assert sum(rect.volume() for rect in t.rects()) == 2
        assert t.color_count == 4

    def test_complete_and_disjoint(self):
        r = Region((17,), np.float64)
        t = Tiling.create(r, 5)
        assert t.is_disjoint()
        assert t.is_complete()

    def test_2d_tiles_rows(self):
        r = Region((10, 4), np.float64)
        t = Tiling.create(r, 2)
        assert t.rect(0) == Rect((0, 0), (5, 4))
        assert t.rect(1) == Rect((5, 0), (10, 4))

    def test_must_cover_dimension(self):
        r = Region((10,), np.float64)
        with pytest.raises(ValueError):
            Tiling(r, [0, 5, 9])

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_complete_disjoint_balanced(self, n, colors):
        r = Region((n,), np.float64)
        t = Tiling.create(r, colors)
        assert t.is_disjoint()
        assert t.is_complete()
        sizes = [rect.volume() for rect in t.rects()]
        assert max(sizes) - min(sizes) <= 1


class TestReplicate:
    def test_every_color_full(self):
        r = Region((10,), np.float64)
        p = Replicate(r, 3)
        assert all(p.rect(c) == r.rect for c in range(3))
        assert not p.is_disjoint() or p.color_count == 1


class TestImageByRange:
    def make_pos(self, ranges):
        data = np.array(ranges, dtype=np.int64)
        return Region((len(ranges), 2), np.int64, data=data)

    def test_csr_style_ranges(self):
        # Rows: [0,2) [2,5) | [5,5) [5,8)  -- second color has empty row.
        pos = self.make_pos([(0, 2), (2, 5), (5, 5), (5, 8)])
        crd = Region((8,), np.int64)
        img = ImageByRange(pos, Tiling.create(pos, 2), crd)
        assert img.rect(0) == Rect((0,), (5,))
        assert img.rect(1) == Rect((5,), (8,))

    def test_all_empty_rows(self):
        pos = self.make_pos([(0, 0), (0, 0)])
        crd = Region((4,), np.int64)
        img = ImageByRange(pos, Tiling.create(pos, 1), crd)
        assert img.rect(0).is_empty()

    def test_paper_figure_2a(self):
        # S contains ranges {0,2} {3,4} {5,5} {6,8}; colors pair them.
        # Note paper ranges are inclusive; ours are half-open.
        pos = self.make_pos([(0, 3), (3, 5), (5, 6), (6, 9)])
        dest = Region((9,), np.int64)
        img = ImageByRange(pos, Tiling.create(pos, 2), dest)
        assert img.rect(0) == Rect((0,), (5,))
        assert img.rect(1) == Rect((5,), (9,))

    def test_requires_n_by_2(self):
        bad = Region((4,), np.int64)
        with pytest.raises(ValueError):
            ImageByRange(bad, Tiling.create(bad, 2), bad)


class TestImageByCoordinate:
    def test_bounding_rects(self):
        crd = Region((6,), np.int64, data=np.array([0, 1, 1, 3, 0, 3]))
        x = Region((4,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 2), x)
        assert img.rect(0) == Rect((0,), (2,))  # coords {0,1,1}
        assert img.rect(1) == Rect((0,), (4,))  # coords {3,0,3}

    def test_aliasing_allowed(self):
        crd = Region((4,), np.int64, data=np.array([0, 1, 0, 1]))
        x = Region((2,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 2), x)
        assert img.rect(0) == img.rect(1) == Rect((0,), (2,))
        assert not img.is_disjoint()

    def test_2d_destination_covers_columns(self):
        crd = Region((4,), np.int64, data=np.array([1, 2, 5, 6]))
        x = Region((8, 3), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 2), x)
        assert img.rect(0) == Rect((1, 0), (3, 3))
        assert img.rect(1) == Rect((5, 0), (7, 3))

    def test_empty_source_slice(self):
        crd = Region((2,), np.int64, data=np.array([0, 1]))
        x = Region((4,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 4), x)
        assert img.rect(3).is_empty()

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=5))
    def test_property_image_covers_references(self, coords, colors):
        """Every coordinate referenced by a shard is inside its image."""
        crd = Region((len(coords),), np.int64, data=np.array(coords))
        x = Region((31,), np.float64)
        tiling = Tiling.create(crd, colors)
        img = ImageByCoordinate(crd, tiling, x)
        for c in range(colors):
            src = tiling.rect(c)
            rect = img.rect(c)
            for j in coords[src.lo[0] : src.hi[0]]:
                assert rect.contains_point((j,))


class TestImageProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=30
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_image_by_range_matches_indptr_slices(self, row_counts, colors):
        """For CSR-style pos, the image of a row tile is exactly the
        nnz window scipy's indptr would give."""
        indptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)
        n = len(row_counts)
        nnz = int(indptr[-1])
        pos = Region(
            (n, 2), np.int64, data=np.stack([indptr[:-1], indptr[1:]], axis=1)
        )
        crd = Region((max(nnz, 1),), np.int64)
        tiling = Tiling.create(pos, colors)
        img = ImageByRange(pos, tiling, crd)
        for c in range(colors):
            tile = tiling.rect(c)
            rlo, rhi = tile.lo[0], tile.hi[0]
            rect = img.rect(c)
            if rhi <= rlo or indptr[rhi] == indptr[rlo]:
                assert rect.is_empty()
            else:
                assert rect == Rect((int(indptr[rlo]),), (int(indptr[rhi]),))

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=4),
    )
    def test_exact_image_pieces_are_disjoint_and_minimal(self, coords, colors):
        crd = Region((len(coords),), np.int64, data=np.array(coords, np.int64))
        x = Region((41,), np.float64)
        tiling = Tiling.create(crd, colors)
        img = ImageByCoordinate(crd, tiling, x, exact=True)
        for c in range(colors):
            pieces = img.pieces(c)
            covered = set()
            for piece in pieces:
                for p in range(piece.lo[0], piece.hi[0]):
                    assert p not in covered  # disjoint
                    covered.add(p)
            tile = tiling.rect(c)
            refs = set(coords[tile.lo[0] : tile.hi[0]])
            if len(pieces) > 1 or (pieces and len(covered) < 41):
                # Unless the fallback kicked in, pieces == references.
                if len(pieces) <= ImageByCoordinate.MAX_EXACT_PIECES and pieces:
                    assert covered == refs or refs.issubset(covered)


# ----------------------------------------------------------------------
# Disjointness: one sort for row bands, pairwise otherwise
# ----------------------------------------------------------------------
def _pairwise_disjoint(partition) -> bool:
    """The definition: no two colors' rects overlap."""
    rects = partition.rects()
    return not any(
        rects[i].overlaps(rects[j])
        for i in range(len(rects)) for j in range(i + 1, len(rects))
    )


def _explicit(shape, rects):
    from repro.legion.partition import ExplicitPartition

    return ExplicitPartition(Region(shape, np.float64), rects)


class TestIsDisjoint:
    @pytest.mark.parametrize("rects, disjoint", [
        # Empty colours overlap nothing, wherever they sit.
        ([Rect((0,), (0,)), Rect((3,), (3,)), Rect((0,), (8,))], True),
        ([Rect((5,), (2,)), Rect((0,), (8,)), Rect((0,), (0,))], True),
        # Touching bands share no row.
        ([Rect((0,), (4,)), Rect((4,), (8,))], True),
        ([Rect((4,), (8,)), Rect((0,), (4,))], True),
        # An overlapping halo, in either order, and a repeated band.
        ([Rect((0,), (5,)), Rect((3,), (8,))], False),
        ([Rect((3,), (8,)), Rect((0,), (5,))], False),
        ([Rect((2,), (6,)), Rect((0,), (1,)), Rect((2,), (6,))], False),
    ])
    def test_one_dimensional(self, rects, disjoint):
        partition = _explicit((8,), rects)
        assert partition.is_disjoint() is disjoint
        assert _pairwise_disjoint(partition) is disjoint

    def test_row_bands_of_a_matrix(self):
        bands = [Rect((0, 0), (3, 4)), Rect((3, 0), (6, 4)), Rect((5, 0), (5, 4))]
        assert _explicit((6, 4), bands).is_disjoint()
        halo = [Rect((0, 0), (4, 4)), Rect((3, 0), (6, 4))]
        assert not _explicit((6, 4), halo).is_disjoint()

    def test_blocks_that_are_no_row_bands_go_pairwise(self):
        # Same rows, different columns: disjoint, though the rows overlap.
        side_by_side = [Rect((0, 0), (4, 2)), Rect((0, 2), (4, 4))]
        assert _explicit((4, 4), side_by_side).is_disjoint()
        crossing = [Rect((0, 0), (4, 3)), Rect((2, 2), (4, 4))]
        assert not _explicit((4, 4), crossing).is_disjoint()

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_the_pairwise_check_on_random_partitions(self, seed):
        rng = np.random.default_rng(seed)
        colors = int(rng.integers(1, 12))
        ndim = 1 + seed % 2
        n, width = 40, 5
        rects = []
        for _ in range(colors):
            lo = int(rng.integers(0, n))
            hi = lo + int(rng.integers(0, 10))
            if ndim == 1:
                rects.append(Rect((lo,), (min(hi, n),)))
            else:
                c0 = 0 if rng.random() < 0.7 else int(rng.integers(0, width))
                rects.append(Rect((lo, c0), (min(hi, n), width)))
        shape = (n,) if ndim == 1 else (n, width)
        partition = _explicit(shape, rects)
        assert partition.is_disjoint() is _pairwise_disjoint(partition)

    def test_images(self):
        pos = Region((4, 2), np.int64, data=np.array(
            [(0, 2), (2, 5), (5, 5), (5, 8)], dtype=np.int64
        ))
        rows = ImageByRange(pos, Tiling.create(pos, 2), Region((8,), np.int64))
        assert rows.is_disjoint() and _pairwise_disjoint(rows)
        crd = Region((4,), np.int64, data=np.array([0, 2, 1, 3]))
        halo = ImageByCoordinate(crd, Tiling.create(crd, 2), Region((4,), np.float64))
        assert not halo.is_disjoint() and not _pairwise_disjoint(halo)


class TestDerivation:
    def test_images_are_named_by_source_not_rects(self):
        from repro.legion.partition import derivation

        pos = Region((4, 2), np.int64, data=np.array(
            [(0, 2), (2, 5), (5, 5), (5, 8)], dtype=np.int64
        ))
        crd = Region((8,), np.int64, data=np.arange(8) % 4)
        x = Region((4,), np.float64)
        tiling = Tiling.create(pos, 2)
        by_range = ImageByRange(pos, tiling, crd)
        by_coord = ImageByCoordinate(crd, by_range, x)
        assert derivation(tiling) == ("tile", (0, 2, 4))
        assert derivation(by_range) == ("range", pos.uid, ("tile", (0, 2, 4)))
        ids = {}
        assert derivation(by_coord, ids) == (
            "coord", 0, ("range", 1, ("tile", (0, 2, 4)))
        )
        assert ids == {crd.uid: 0, pos.uid: 1}
        # Other data under the same sources: other rects, one derivation.
        pos.data[:] = np.array([(0, 1), (1, 2), (2, 3), (3, 8)])
        again = ImageByRange(pos, tiling, crd)
        assert again.rects() != by_range.rects()
        assert derivation(again) == derivation(by_range)
        assert derivation(Replicate(x, 2)) is None
