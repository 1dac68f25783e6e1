"""N-dimensional (1-D/2-D) half-open rectangles and disjoint rect sets.

Rectangles are the unit of coherence tracking, instance allocation and
copy generation in the runtime.  ``RectSet`` implements exact union,
intersection and subtraction; subtraction of one rect from another yields
at most ``2 * ndim`` disjoint pieces (guillotine decomposition).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple


class Rect:
    """Half-open axis-aligned box ``[lo[d], hi[d])`` per dimension.

    Immutable and hashable: equal to another ``Rect`` with the same
    bounds, hashed as the tuple ``(lo, hi)``.  Emptiness and volume are
    fixed at construction -- both are asked far more often than rects
    are built (every coherence scan and instance lookup probes them).
    """

    __slots__ = ("lo", "hi", "_volume")

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __init__(self, lo: Tuple[int, ...], hi: Tuple[int, ...]) -> None:
        ndim = len(lo)
        if ndim != len(hi):
            raise ValueError("lo/hi dimensionality mismatch")
        if ndim == 1:
            vol = hi[0] - lo[0]
            if vol < 0:
                vol = 0
        else:
            vol = 1
            for l, h in zip(lo, hi):
                if h <= l:
                    vol = 0
                    break
                vol *= h - l
        # The slot descriptors write past the __setattr__ guard below.
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_volume(self, vol)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Rect is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Rect is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return (Rect, (self.lo, self.hi))

    @classmethod
    def from_shape(cls, shape: Tuple[int, ...]) -> "Rect":
        """The full rect of an array shape (origin-anchored)."""
        return cls(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    @classmethod
    def interval1d(cls, lo: int, hi: int) -> "Rect":
        """A 1-D rect [lo, hi)."""
        return cls((lo,), (hi,))

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Per-dimension extents (clamped at zero)."""
        return tuple(max(0, h - l) for l, h in zip(self.lo, self.hi))

    def is_empty(self) -> bool:
        """True when any dimension has no extent."""
        return self._volume == 0

    def volume(self) -> int:
        """Number of points covered."""
        return self._volume

    def contains(self, other: "Rect") -> bool:
        """True when the other rect lies inside this one."""
        if other._volume == 0:
            return True
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        for d in range(len(slo)):
            if olo[d] < slo[d] or shi[d] < ohi[d]:
                return False
        return True

    def contains_point(self, point: Tuple[int, ...]) -> bool:
        """True when the point lies inside."""
        return all(l <= p < h for l, h, p in zip(self.lo, self.hi, point))

    def overlaps(self, other: "Rect") -> bool:
        """True when the intersection is non-empty."""
        return not self.intersect(other).is_empty()

    def intersect(self, other: "Rect") -> "Rect":
        """The (possibly empty) intersection rect."""
        lo = tuple(map(max, self.lo, other.lo))
        hi = tuple(map(min, self.hi, other.hi))
        return Rect(lo, tuple(map(max, lo, hi)))

    def union_hull(self, other: "Rect") -> "Rect":
        """Smallest rect containing both operands."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def subtract(self, other: "Rect") -> List["Rect"]:
        """``self - other`` as disjoint rects (guillotine cuts per axis)."""
        if self.is_empty():
            return []
        clipped = other.intersect(self)
        if clipped.is_empty():
            return [self]
        pieces: List[Rect] = []
        lo = list(self.lo)
        hi = list(self.hi)
        for dim in range(self.ndim):
            if lo[dim] < clipped.lo[dim]:
                plo, phi = list(lo), list(hi)
                phi[dim] = clipped.lo[dim]
                pieces.append(Rect(tuple(plo), tuple(phi)))
                lo[dim] = clipped.lo[dim]
            if clipped.hi[dim] < hi[dim]:
                plo, phi = list(lo), list(hi)
                plo[dim] = clipped.hi[dim]
                pieces.append(Rect(tuple(plo), tuple(phi)))
                hi[dim] = clipped.hi[dim]
        return [p for p in pieces if not p.is_empty()]

    def slices(self) -> Tuple[slice, ...]:
        """NumPy basic-indexing view of this rect in the parent array."""
        return tuple(map(slice, self.lo, self.hi))

    def shift(self, offsets: Tuple[int, ...]) -> "Rect":
        """The rect translated by per-dimension offsets."""
        return Rect(
            tuple(l + o for l, o in zip(self.lo, offsets)),
            tuple(h + o for h, o in zip(self.hi, offsets)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ",".join(f"[{l},{h})" for l, h in zip(self.lo, self.hi))
        return f"Rect({dims})"


_set_lo = Rect.lo.__set__
_set_hi = Rect.hi.__set__
_set_volume = Rect._volume.__set__


class RectSet:
    """A set of pairwise-disjoint rects closed under set algebra.

    The representation is not canonical (the same point set may be split
    differently), so equality is defined extensionally via double
    containment rather than structurally.
    """

    __slots__ = ("_rects", "_members")

    def __init__(self, rects: Optional[Iterable[Rect]] = None):
        self._rects: List[Rect] = []
        # Lazy membership index over _rects (Rect is immutable/hashable).
        # Re-adding a rect that is literally a member is a no-op, and
        # runtimes re-mark the same written tiles every launch — the
        # O(1) hash probe replaces an O(n) subtract scan.  Built on
        # first use in add(); every other method builds fresh sets and
        # never mutates an existing _rects list, so no other
        # maintenance is needed.
        self._members: Optional[set] = None
        if rects:
            for rect in rects:
                self.add(rect)

    @classmethod
    def of(cls, rect: Rect) -> "RectSet":
        """A set holding a single rect."""
        return cls([rect])

    def rects(self) -> List[Rect]:
        """The member rects (pairwise disjoint)."""
        return list(self._rects)

    def is_empty(self) -> bool:
        """True when the set covers nothing."""
        return not self._rects

    def volume(self) -> int:
        """Total points covered."""
        return sum(r.volume() for r in self._rects)

    def hull(self) -> Rect:
        """Bounding rect of all members."""
        if not self._rects:
            return Rect((0,), (0,))
        hull = self._rects[0]
        for rect in self._rects[1:]:
            hull = hull.union_hull(rect)
        return hull

    def add(self, rect: Rect) -> None:
        """Union a rect in, keeping members disjoint."""
        if rect.is_empty():
            return
        members = self._members
        if members is None:
            members = self._members = set(self._rects)
        if rect in members:
            return
        new_pieces = [rect]
        for existing in self._rects:
            next_pieces: List[Rect] = []
            for piece in new_pieces:
                next_pieces.extend(piece.subtract(existing))
            new_pieces = next_pieces
            if not new_pieces:
                return
        self._rects.extend(new_pieces)
        members.update(new_pieces)

    def add_disjoint(self, rects: Iterable[Rect]) -> None:
        """Union in rects the caller guarantees are pairwise disjoint.

        Bitwise-identical to calling :meth:`add` on each rect in order,
        but each rect subtracts only against the rects present before
        the batch — mutually disjoint inputs cannot clip each other, so
        skipping those comparisons changes nothing.  Turns the
        first-write population of a region's written-set (n disjoint
        tiles) from O(n^2) subtract scans into O(n).
        """
        members = self._members
        if members is None:
            members = self._members = set(self._rects)
        prior = self._rects[:]
        for rect in rects:
            if rect.is_empty() or rect in members:
                continue
            new_pieces = [rect]
            for existing in prior:
                next_pieces: List[Rect] = []
                for piece in new_pieces:
                    next_pieces.extend(piece.subtract(existing))
                new_pieces = next_pieces
                if not new_pieces:
                    break
            if new_pieces:
                self._rects.extend(new_pieces)
                members.update(new_pieces)

    def intersect_rect(self, rect: Rect) -> "RectSet":
        """Intersection with a single rect."""
        out = RectSet()
        for cur in self._rects:
            piece = cur.intersect(rect)
            if not piece.is_empty():
                out._rects.append(piece)
        return out

    def intersect(self, other: "RectSet") -> "RectSet":
        """Set intersection."""
        out = RectSet()
        for rect in other._rects:
            out._rects.extend(self.intersect_rect(rect)._rects)
        return out

    def subtract_rect(self, rect: Rect) -> "RectSet":
        """Set difference with a single rect."""
        out = RectSet()
        for cur in self._rects:
            out._rects.extend(cur.subtract(rect))
        return out

    def subtract(self, other: "RectSet") -> "RectSet":
        """Set difference."""
        result = RectSet(self._rects)
        for rect in other._rects:
            result = result.subtract_rect(rect)
        return result

    def contains_rect(self, rect: Rect) -> bool:
        """True when the rect is fully covered."""
        return self.intersect_rect(rect).volume() == rect.volume()

    def covers(self, other: "RectSet") -> bool:
        """True when the other set is fully covered."""
        return other.subtract(self).volume() == 0

    def __iter__(self) -> Iterator[Rect]:
        return iter(self._rects)

    def __len__(self) -> int:
        return len(self._rects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RectSet):
            return NotImplemented
        return self.covers(other) and other.covers(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RectSet(" + ", ".join(map(repr, self._rects)) + ")"
