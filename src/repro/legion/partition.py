"""Partitions: first-class mappings from colors to sub-rectangles.

Includes Legion's *image* dependent-partitioning operation in the two
forms the paper uses (Fig. 2): image **by range** projects a partition of
a ``pos`` region (whose elements are ``{lo, hi}`` ranges) onto the
``crd``/``vals`` regions, and image **by coordinate** projects a partition
of a ``crd`` region (whose elements are column indices) onto a dense
vector or matrix.  Images are computed dynamically from region *data* —
this is what captures the data-dependent communication of sparse
computations.

Image sub-regions are represented by their bounding rectangles, matching
how physical instances are allocated; DESIGN.md discusses the effect on
halo volume (small for banded matrices, near-total for the wide-band
quantum Hamiltonian — reproducing the paper's Fig. 11 falloff).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rect
from repro.legion.region import Region

# Every color's rect, and every color's pieces, each indexable by color.
Tables = Tuple[Sequence[Rect], Sequence[Tuple[Rect, ...]]]


class Partition:
    """Base class: a mapping from ``color_count`` colors to rects."""

    def __init__(self, region: Region, color_count: int):
        self.region = region
        self.color_count = int(color_count)
        # (rects, pieces) of every color, built on first use and handed
        # out shared (rects are immutable; callers only index).
        self._tables: Optional[Tables] = None

    def rect(self, color: int) -> Rect:
        """The (bounding) sub-rectangle assigned to ``color``."""
        raise NotImplementedError

    def pieces(self, color: int) -> Tuple[Rect, ...]:
        """Disjoint sub-rects of the color (default: the bounding rect).

        Exact images override this so the copy engine moves only the
        referenced data, like Legion's precise image partitions.
        """
        return self.tables()[1][color]

    def tables(self) -> Tables:
        """``(rects, pieces)`` of every color, each indexable by color.

        The runtime's mapping loop resolves a requirement through this
        once per launch instead of calling :meth:`rect` and
        :meth:`pieces` once per shard.
        """
        tables = self._tables
        if tables is None:
            rects = tuple(self.rect(c) for c in range(self.color_count))
            tables = self._tables = (rects, _whole_pieces(rects))
        return tables

    def rects(self) -> List[Rect]:
        """All colors' rects, in color order."""
        return [self.rect(c) for c in range(self.color_count)]

    def is_disjoint(self) -> bool:
        """True when no two colors overlap (images may alias).

        Row bands -- every non-empty rect spanning the same trailing
        extent, as tiles and images of rows are -- overlap exactly when
        their row intervals do: one sort by first row settles it.  Any
        other shape falls back to the pairwise test.
        """
        rects = [rect for rect in self.tables()[0] if not rect.is_empty()]
        if not rects:
            return True
        lo, hi = rects[0].lo[1:], rects[0].hi[1:]
        if all(rect.lo[1:] == lo and rect.hi[1:] == hi for rect in rects):
            rows = sorted((rect.lo[0], rect.hi[0]) for rect in rects)
            return all(
                end <= start for (_, end), (start, _) in zip(rows, rows[1:])
            )
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                if rects[i].overlaps(rects[j]):
                    return False
        return True

    def is_complete(self) -> bool:
        """True when the colors cover the whole region."""
        from repro.geometry import RectSet

        union = RectSet(self.rects())
        return union.covers(RectSet.of(self.region.rect))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.region.name}, colors={self.color_count})"


class Tiling(Partition):
    """Even block partition along dimension 0 (rows).

    The tile boundaries — not the region identity — define alignment, so
    two same-length vectors tiled with the same boundaries compose with
    zero data movement (partition reuse, §4.1).
    """

    def __init__(self, region: Region, boundaries: Sequence[int]):
        super().__init__(region, len(boundaries) - 1)
        self.boundaries = tuple(int(b) for b in boundaries)
        if self.boundaries[0] != 0 or self.boundaries[-1] != region.shape[0]:
            raise ValueError("tiling must cover dimension 0 exactly")
        if any(
            self.boundaries[i] > self.boundaries[i + 1]
            for i in range(len(self.boundaries) - 1)
        ):
            raise ValueError("tile boundaries must be non-decreasing")

    @classmethod
    def trusted(cls, region: Region, boundaries: Tuple[int, ...]) -> "Tiling":
        """Construct without re-validating ``boundaries``.

        For fast-path rebuilds of tilings that already passed the
        constructor's checks (the region is the same object the
        boundaries were validated against — uids never recycle).
        """
        self = cls.__new__(cls)
        Partition.__init__(self, region, len(boundaries) - 1)
        self.boundaries = tuple(boundaries)
        return self

    @staticmethod
    def create_boundaries(n: int, colors: int) -> Tuple[int, ...]:
        """Even split points of ``[0, n)`` into ``colors`` tiles."""
        colors = max(1, int(colors))
        base, extra = divmod(n, colors)
        boundaries = [0]
        for c in range(colors):
            boundaries.append(boundaries[-1] + base + (1 if c < extra else 0))
        return tuple(boundaries)

    @classmethod
    def create(cls, region: Region, colors: int) -> "Tiling":
        """An even tiling of the region's rows."""
        return cls(region, cls.create_boundaries(region.shape[0], colors))

    def rect(self, color: int) -> Rect:
        """The tile rect of a color."""
        return self.tables()[0][color]

    def tables(self) -> Tables:
        """The tile tables, shared by every tiling with these boundaries
        over a region of this trailing shape: a solver iteration's fresh
        temporaries are tiled like the last iteration's, and their
        tilings find the rects already built."""
        tables = self._tables
        if tables is None:
            trailing = self.region.shape[1:]
            key = (self.boundaries, trailing)
            tables = _TILE_TABLES.get(key)
            if tables is None:
                bounds = self.boundaries
                if trailing:
                    width = trailing[0]
                    rects = tuple(
                        Rect((lo, 0), (hi, width))
                        for lo, hi in zip(bounds, bounds[1:])
                    )
                else:
                    rects = tuple(
                        Rect((lo,), (hi,)) for lo, hi in zip(bounds, bounds[1:])
                    )
                if len(_TILE_TABLES) >= MAX_TILE_TABLES:
                    _TILE_TABLES.clear()
                tables = _TILE_TABLES[key] = (rects, _whole_pieces(rects))
            self._tables = tables
        return tables


class Replicate(Partition):
    """Every color maps to the whole region (broadcast operands)."""

    def rect(self, color: int) -> Rect:
        """The whole region, for every color."""
        return self.region.rect

    def tables(self) -> Tables:
        """The whole region ``color_count`` times over."""
        tables = self._tables
        if tables is None:
            colors = self.color_count
            whole = (self.region.rect,)
            tables = self._tables = (whole * colors, _whole_pieces(whole) * colors)
        return tables


class ExplicitPartition(Partition):
    """A partition given by an explicit list of rects (one per color)."""

    def __init__(self, region: Region, rects: Sequence[Rect]):
        super().__init__(region, len(rects))
        self._rects = list(rects)

    def rect(self, color: int) -> Rect:
        """The caller-supplied rect of a color."""
        return self._rects[color]


class ImageByRange(Partition):
    """Image of a partition of a ``pos`` region onto ``crd``/``vals``.

    ``pos`` holds Legate's ``{lo, hi}`` half-open range pairs (Fig. 3), one
    per row, as an ``(n, 2)`` int64 region.  For each color, the image is
    the union of the ranges in that color's rows — contiguous and exact
    when ``pos`` is monotone (as in CSR/CSC).
    """

    # The source's write epoch the rects were computed at
    # (``ImagePartitionCache.epochs``), or None when unknown: only an
    # image with an epoch may serve as a key partition.
    epoch: Optional[int] = None

    def __init__(self, pos: Region, pos_partition: Partition, dest: Region):
        super().__init__(dest, pos_partition.color_count)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("pos region must have shape (n, 2)")
        self.pos = pos
        self.pos_partition = pos_partition
        self._rects = tuple(
            self._compute(pos_partition.rect(c), dest)
            for c in range(self.color_count)
        )

    @classmethod
    def from_rects(
        cls,
        pos: Region,
        pos_partition: Partition,
        dest: Region,
        rects: Tuple[Rect, ...],
        epoch: Optional[int] = None,
    ) -> "ImageByRange":
        """An image with precomputed rects (a cache hit or a retarget)."""
        self = cls.__new__(cls)
        Partition.__init__(self, dest, pos_partition.color_count)
        self.pos = pos
        self.pos_partition = pos_partition
        self._rects = rects
        self.epoch = epoch
        return self

    def tile_boundaries(self) -> Optional[Tuple[int, ...]]:
        """The rects as row-tile boundaries, or None.

        Not None when the image cuts its region the way a
        :class:`Tiling` does: every color non-empty, in color order,
        each starting where the previous one ends, the first at row 0
        and the last ending at the region's last row.  Such an image is
        disjoint and complete, so a store written through it may keep
        it as its key partition.
        """
        bounds = [0]
        for rect in self._rects:
            lo, hi = rect.lo[0], rect.hi[0]
            if hi <= lo or lo != bounds[-1]:
                return None
            bounds.append(hi)
        if bounds[-1] != self.region.shape[0]:
            return None
        return tuple(bounds)

    def retarget(self, region: Region) -> "ImageByRange":
        """The same image over another region of equal row count: the
        same source, source partition and epoch, so the same
        :func:`derivation`."""
        return ImageByRange.from_rects(
            self.pos, self.pos_partition, region,
            tuple(
                _extend_rows(region, rect.lo[0], rect.hi[0])
                for rect in self._rects
            ),
            self.epoch,
        )

    def _compute(self, pos_rect: Rect, dest: Region) -> Rect:
        lo, hi = pos_rect.lo[0], pos_rect.hi[0]
        if hi <= lo:
            return _empty_rect(dest)
        ranges = self.pos.data[lo:hi]
        starts = ranges[:, 0]
        ends = ranges[:, 1]
        nonempty = ends > starts
        if not np.any(nonempty):
            return _empty_rect(dest)
        dlo = int(starts[nonempty].min())
        dhi = int(ends[nonempty].max())
        return _extend_rows(dest, dlo, dhi)

    def rect(self, color: int) -> Rect:
        """The color's image (exact for monotone pos)."""
        return self._rects[color]


class ImageByCoordinate(Partition):
    """Image of a partition of a ``crd`` region onto a dense operand.

    For each color, the image is the bounding interval of the coordinate
    values stored in that color's slice of ``crd``, extended over the
    remaining dimensions of the destination (rows of a dense matrix).
    The result is generally *aliased* — several colors reference the same
    destination elements — which is precisely the halo sharing in Fig. 5.
    """

    # Exact images with more runs than this fall back to the bounding
    # rect (a compact instance would be allocated anyway).
    MAX_EXACT_PIECES = 64

    def __init__(
        self,
        crd: Region,
        crd_partition: Partition,
        dest: Region,
        exact: bool = False,
    ):
        super().__init__(dest, crd_partition.color_count)
        if crd.ndim != 1:
            raise ValueError("crd region must be 1-D")
        self.crd = crd
        self.crd_partition = crd_partition
        self.exact = exact
        rects: List[Rect] = []
        pieces: List[Tuple[Rect, ...]] = []
        for c in range(self.color_count):
            src = crd_partition.rect(c)
            lo, hi = src.lo[0], src.hi[0]
            vals = crd.data[lo:hi] if hi > lo else np.empty(0, np.int64)
            if vals.size == 0:
                rects.append(_empty_rect(dest))
                pieces.append(())
                continue
            dlo = int(vals.min())
            dhi = int(vals.max()) + 1
            rects.append(_extend_rows(dest, dlo, dhi))
            if exact:
                pieces.append(tuple(self._runs(vals, dest)))
            else:
                pieces.append((rects[-1],))
        self._rects = tuple(rects)
        self._pieces = tuple(pieces)
        self._tables = (self._rects, self._pieces)

    @classmethod
    def _runs(cls, vals: np.ndarray, dest: Region) -> List[Rect]:
        """Consecutive-index runs of the referenced coordinates."""
        uniq = np.unique(vals)
        breaks = np.flatnonzero(np.diff(uniq) > 1)
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(uniq) - 1]])
        if len(starts) > cls.MAX_EXACT_PIECES:
            return [_extend_rows(dest, int(uniq[0]), int(uniq[-1]) + 1)]
        return [
            _extend_rows(dest, int(uniq[s]), int(uniq[e]) + 1)
            for s, e in zip(starts, ends)
        ]

    def rect(self, color: int) -> Rect:
        """The color's bounding image rect."""
        return self._rects[color]

    def pieces(self, color: int) -> Tuple[Rect, ...]:
        """Exact runs (or the bounding rect)."""
        return self._pieces[color]


# (boundaries, trailing shape) -> (tile rects, their pieces); see
# Tiling.tables.  Bounded: cleared when full.
_TILE_TABLES: Dict[tuple, Tables] = {}
MAX_TILE_TABLES = 512


def derivation(part: Partition, ids: Optional[Dict[int, int]] = None) -> Optional[tuple]:
    """How a partition is derived, or None when that does not pin its
    rects.

    A tiling is its boundaries; an image is its kind, its source region
    and its source partition's derivation -- never its rects, which the
    source's data decides.  Source regions are numbered through ``ids``
    by first use (what window keys do), else named by uid.  Two images
    of one derivation computed while their source held the same data
    have the same rects.
    """
    links = []
    while True:
        kind = type(part)
        if kind is Tiling:
            out: tuple = ("tile", part.boundaries)
            break
        if kind is ImageByRange:
            tag, source, part = "range", part.pos, part.pos_partition
        elif kind is ImageByCoordinate:
            tag = "exact" if part.exact else "coord"
            source, part = part.crd, part.crd_partition
        else:
            return None
        uid = source.uid
        if ids is not None:
            lid = ids.get(uid)
            if lid is None:
                lid = ids[uid] = len(ids)
            uid = lid
        links.append((tag, uid))
    for tag, uid in reversed(links):
        out = (tag, uid, out)
    return out


class ImagePartitionCache:
    """Memo of image-partition geometry keyed by source-data epoch.

    Images read region *data* at construction — the data-dependent
    communication analysis of the paper — so they cannot be memoized
    structurally like tilings.  Instead the runtime calls :meth:`bump`
    for every region a task writes; a cache key embeds the source
    region's epoch, so any write to the source invalidates its images
    for free.  Values are tuples of :class:`Rect` (plain int geometry
    — never partition or region objects, which would pin regions past
    their last program reference); hits rebuild fresh partition objects
    around the current regions
    (:func:`repro.constraints.solver._image_cached`).  Bounded: cleared
    whole when full.
    """

    __slots__ = ("_entries", "epochs")

    MAX_ENTRIES = 512

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tables] = {}
        # Live region uid -> number of task writes observed (0 if never);
        # the runtime drops a region's entry when it frees the region.
        self.epochs: Dict[int, int] = {}

    def get(self, key: tuple) -> Optional[Tables]:
        """The memoized geometry for a key, or None."""
        return self._entries.get(key)

    def put(self, key: tuple, value: Tables) -> None:
        """Memoize an image's geometry."""
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
        self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def bump(self, uid: int) -> None:
        """Record a write to a region (invalidates its images)."""
        self.epochs[uid] = self.epochs.get(uid, 0) + 1


def _whole_pieces(rects: Sequence[Rect]) -> Tuple[Tuple[Rect, ...], ...]:
    """Per color, the rect as its own single piece (none when empty)."""
    return tuple(() if rect.is_empty() else (rect,) for rect in rects)


def _empty_rect(dest: Region) -> Rect:
    zeros = tuple(0 for _ in dest.shape)
    return Rect(zeros, zeros)


def _extend_rows(dest: Region, lo: int, hi: int) -> Rect:
    if dest.ndim == 1:
        return Rect((lo,), (hi,))
    return Rect((lo, 0), (hi, dest.shape[1]))
