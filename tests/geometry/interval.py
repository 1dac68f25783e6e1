"""Half-open integer intervals and sorted disjoint interval sets.

A test fixture: the runtime works in :class:`repro.geometry.Rect` and
:class:`repro.geometry.RectSet` and calls none of this;
``test_interval.py`` checks the 1-D set algebra against pointwise
reference sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open integer interval ``[lo, hi)``.

    Empty intervals (``hi <= lo``) are permitted and normalize to
    ``Interval(0, 0)`` semantics through :meth:`is_empty`.
    """

    lo: int
    hi: int

    def is_empty(self) -> bool:
        """True when hi <= lo."""
        return self.hi <= self.lo

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    def contains(self, point: int) -> bool:
        """True when the point lies inside."""
        return self.lo <= point < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when the other interval lies inside."""
        if other.is_empty():
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the intersection is non-empty."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            hi = lo
        return Interval(lo, hi)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def subtract(self, other: "Interval") -> List["Interval"]:
        """``self - other`` as a list of up to two disjoint intervals."""
        if self.is_empty():
            return []
        if not self.overlaps(other):
            return [self]
        pieces: List[Interval] = []
        if self.lo < other.lo:
            pieces.append(Interval(self.lo, other.lo))
        if other.hi < self.hi:
            pieces.append(Interval(other.hi, self.hi))
        return pieces

    def shift(self, offset: int) -> "Interval":
        """The interval translated by an offset."""
        return Interval(self.lo + offset, self.hi + offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo},{self.hi})"


class IntervalSet:
    """An ordered set of disjoint, non-adjacent half-open intervals.

    Canonical form: intervals sorted by ``lo``, pairwise disjoint, with no
    empty members and adjacent intervals merged.  All operations preserve
    the canonical form, so equality is structural.
    """

    __slots__ = ("_ivals",)

    def __init__(self, intervals: Optional[Iterable[Interval]] = None):
        self._ivals: List[Interval] = []
        if intervals:
            for ival in intervals:
                self.add(ival)

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return cls()

    @classmethod
    def of(cls, lo: int, hi: int) -> "IntervalSet":
        """A set holding the single interval [lo, hi)."""
        return cls([Interval(lo, hi)])

    def intervals(self) -> List[Interval]:
        """The member intervals, sorted and disjoint."""
        return list(self._ivals)

    def is_empty(self) -> bool:
        """True when the set covers nothing."""
        return not self._ivals

    def total_extent(self) -> int:
        """Total points covered."""
        return sum(len(i) for i in self._ivals)

    def hull(self) -> Interval:
        """Bounding interval of all members."""
        if not self._ivals:
            return Interval(0, 0)
        return Interval(self._ivals[0].lo, self._ivals[-1].hi)

    def add(self, ival: Interval) -> None:
        """Union a single interval into the set, merging where adjacent."""
        if ival.is_empty():
            return
        out: List[Interval] = []
        lo, hi = ival.lo, ival.hi
        inserted = False
        for cur in self._ivals:
            if cur.hi < lo:
                out.append(cur)
            elif hi < cur.lo:
                if not inserted:
                    out.append(Interval(lo, hi))
                    inserted = True
                out.append(cur)
            else:
                lo = min(lo, cur.lo)
                hi = max(hi, cur.hi)
        if not inserted:
            out.append(Interval(lo, hi))
        self._ivals = out

    def intersect_interval(self, ival: Interval) -> "IntervalSet":
        """Intersection with one interval."""
        out = IntervalSet()
        for cur in self._ivals:
            piece = cur.intersect(ival)
            if not piece.is_empty():
                out._ivals.append(piece)
        return out

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection."""
        out = IntervalSet()
        for ival in other._ivals:
            for piece in self.intersect_interval(ival)._ivals:
                out._ivals.append(piece)
        out._ivals.sort(key=lambda i: i.lo)
        return out

    def subtract_interval(self, ival: Interval) -> "IntervalSet":
        """Set difference with one interval."""
        out = IntervalSet()
        for cur in self._ivals:
            out._ivals.extend(cur.subtract(ival))
        return out

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference."""
        result = IntervalSet(self._ivals)
        for ival in other._ivals:
            result = result.subtract_interval(ival)
        return result

    def contains_interval(self, ival: Interval) -> bool:
        """True when the interval is fully covered."""
        return self.intersect_interval(ival).total_extent() == len(ival)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivals)

    def __len__(self) -> int:
        return len(self._ivals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivals == other._ivals

    def __hash__(self) -> int:
        return hash(tuple(self._ivals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "IntervalSet(" + ", ".join(map(repr, self._ivals)) + ")"
