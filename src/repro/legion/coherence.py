"""Per-memory validity tracking: the source of derived communication.

For every region, the runtime tracks *which rectangles of it are valid in
which memory*, each tagged with the simulated time the data became
available there.  Reads compute the missing pieces (``needed - valid``)
and generate copies from a memory that holds them; writes invalidate
every other memory's overlap.  This is the dynamic communication analysis
that makes the §4.3 halo exchange precise: in steady state only the
one-element halo of ``x`` is missing on each GPU, so only one element is
copied per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect, RectSet

# The hull of a memory that holds nothing: it overlaps no query.
_NO_LO = np.iinfo(np.int64).max
_NO_HI = np.iinfo(np.int64).min
# A fresh index's slots, copied per region: a node's worth of memories
# fits without growing, and most regions never see more.
_FRESH_LO = np.full(8, _NO_LO)
_FRESH_HI = np.full(8, _NO_HI)


def _disjoint(a: Rect, b: Rect) -> bool:
    """Allocation-free overlap precheck (regions are 1-D or 2-D)."""
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if bhi[0] <= alo[0] or ahi[0] <= blo[0]:
        return True
    if len(alo) == 1:
        return False
    return bhi[1] <= alo[1] or ahi[1] <= blo[1]


def _covers(a: Rect, b: Rect) -> bool:
    """Allocation-free containment check: every point of ``b`` is in ``a``."""
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if blo[0] < alo[0] or ahi[0] < bhi[0]:
        return False
    return len(alo) == 1 or (alo[1] <= blo[1] and bhi[1] <= ahi[1])


def _cut(spans, lo: int, hi: int) -> List[Tuple[int, int]]:
    """1-D ``(lo, hi)`` spans minus the non-empty interval ``[lo, hi)``.

    The integer engine: :meth:`Rect.subtract` for 1-D rects on bare
    ints, in its order -- spans stay in sequence and a cut span's left
    remainder comes before its right one.  Every 1-D subtraction of the
    coherence state goes through here; a ``Rect`` is built only for a
    remainder that is stored or returned.
    """
    out: List[Tuple[int, int]] = []
    for a, b in spans:
        if hi <= a or b <= lo:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, lo))
        if hi < b:
            out.append((hi, b))
    return out


def _span_rect(span: Tuple[int, int], whole: Rect) -> Rect:
    """The 1-D rect of a span; ``whole`` itself when the span is all of it."""
    if span[0] == whole.lo[0] and span[1] == whole.hi[0]:
        return whole
    return Rect((span[0],), (span[1],))


@dataclass
class ValidPiece:
    """One valid rect with its availability time."""
    rect: Rect
    ready_time: float


def _carve(pieces: List[ValidPiece], rect: Rect) -> Optional[List[ValidPiece]]:
    """``pieces`` with the non-empty ``rect`` cut out of each of them.

    ``None`` when no piece overlaps ``rect`` (the copy would equal
    ``pieces`` element for element).  A cut piece is replaced, at its
    place in the order, by its remainders in :meth:`Rect.subtract`'s
    order.
    """
    one_d = len(rect.lo) == 1
    lo, hi = rect.lo[0], rect.hi[0]
    out: Optional[List[ValidPiece]] = None
    for idx, piece in enumerate(pieces):
        prect = piece.rect
        plo, phi = prect.lo[0], prect.hi[0]
        if phi <= lo or hi <= plo or (not one_d and _disjoint(prect, rect)):
            if out is not None:
                out.append(piece)
            continue
        if out is None:
            out = pieces[:idx]
        t = piece.ready_time
        if one_d:
            for a, b in _cut(((plo, phi),), lo, hi):
                out.append(ValidPiece(Rect((a,), (b,)), t))
        else:
            for leftover in prect.subtract(rect):
                out.append(ValidPiece(leftover, t))
    return out


class _HullIndex:
    """Leading-dimension hull ``[lo, hi)`` of each memory's valid pieces.

    One slot per memory, handed out in the order memories enter
    :attr:`RegionCoherence.valid`; a dropped memory's slot is left
    behind empty until the next growth squeezes it out, and a memory
    that comes back takes a fresh slot at the end.  Ascending slot
    order is therefore ``valid``'s insertion order, so one vectorised
    comparison answers "which memories can hold a piece overlapping
    this rect, in the order a full scan would visit them".  Every slot
    no live memory owns carries the empty hull.
    """

    __slots__ = ("slot", "uids", "lo", "hi")

    def __init__(self) -> None:
        self.slot: Dict[int, int] = {}  # live memory uid -> slot
        self.uids: List[int] = []  # slot -> memory uid
        self.lo = _FRESH_LO.copy()  # int64 per slot
        self.hi = _FRESH_HI.copy()

    def add(self, uid: int) -> None:
        """Give a memory entering ``valid`` the next slot (empty hull)."""
        if len(self.uids) == len(self.lo):
            self._grow()
        self.slot[uid] = len(self.uids)
        self.uids.append(uid)

    def _grow(self) -> None:
        # ``slot`` is in ``valid``'s order: renumbering the live
        # memories 0..n-1 keeps their relative rank.
        live = np.fromiter(self.slot.values(), np.int64, len(self.slot))
        lo = np.empty(max(len(self.lo), 2 * len(live)), np.int64)
        hi = np.empty(len(lo), np.int64)
        lo.fill(_NO_LO)
        hi.fill(_NO_HI)
        lo[: len(live)] = self.lo[live]
        hi[: len(live)] = self.hi[live]
        self.lo, self.hi = lo, hi
        self.uids = list(self.slot)
        self.slot = {uid: s for s, uid in enumerate(self.uids)}

    def drop(self, uid: int) -> None:
        """A memory left ``valid``: vacate its slot."""
        slot = self.slot.pop(uid)
        self.lo[slot] = _NO_LO
        self.hi[slot] = _NO_HI

    def set(self, uid: int, pieces: List[ValidPiece]) -> None:
        """Re-derive a memory's hull from its (replaced) piece list."""
        lo, hi = _NO_LO, _NO_HI
        for piece in pieces:
            rect = piece.rect
            if rect.lo[0] < lo:
                lo = rect.lo[0]
            if rect.hi[0] > hi:
                hi = rect.hi[0]
        slot = self.slot[uid]
        self.lo[slot] = lo
        self.hi[slot] = hi

    def widen(self, uid: int, rect: Rect) -> None:
        """A piece was appended to a memory's list."""
        slot = self.slot[uid]
        if rect.lo[0] < self.lo[slot]:
            self.lo[slot] = rect.lo[0]
        if rect.hi[0] > self.hi[slot]:
            self.hi[slot] = rect.hi[0]

    def reset(self) -> None:
        """Every memory's list was emptied (ranks stay)."""
        self.lo[:] = _NO_LO
        self.hi[:] = _NO_HI

    def overlapping(self, rect: Rect) -> List[int]:
        """Memories whose hull meets ``rect``'s, in ``valid``'s order."""
        hits = (self.lo < rect.hi[0]) & (self.hi > rect.lo[0])
        uids = self.uids
        return [uids[s] for s in hits.nonzero()[0].tolist()]


@dataclass
class RegionCoherence:
    """Validity state of one region across all memories."""

    # memory uid -> list of disjoint valid pieces with availability times
    valid: Dict[int, List[ValidPiece]] = field(default_factory=dict)
    # rects ever written through any memory; reads of written data that
    # is not valid in the reading memory are *stale* — the independent
    # assertion validation mode checks after staging (repro.analysis).
    written: RectSet = field(default_factory=RectSet)
    # Pruning filter over ``valid`` for the queries that would otherwise
    # visit every memory; the piece lists stay the source of truth.
    # Kept in step at every point that adds or drops a ``valid`` key or
    # replaces a piece list.
    _index: _HullIndex = field(
        default_factory=_HullIndex, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def pieces(self, memory_uid: int) -> List[ValidPiece]:
        """A memory's valid pieces (created on demand).

        Creating the entry on a mere read is load-bearing: it fixes the
        memory's rank in ``valid`` -- the order sources are tried in --
        at its first touch rather than at its first write.
        """
        lst = self.valid.get(memory_uid)
        if lst is None:
            lst = self.valid[memory_uid] = []
            self._index.add(memory_uid)
        return lst

    def _store(self, memory_uid: int, pieces: List[ValidPiece]) -> None:
        """Replace a present memory's piece list; re-derive its hull."""
        self.valid[memory_uid] = pieces
        self._index.set(memory_uid, pieces)

    def holders(self, rect: Rect) -> List[int]:
        """Memories that may hold a piece overlapping ``rect``.

        In ``valid``'s insertion order.  Every piece of a memory left
        out is disjoint from ``rect`` (in the leading dimension
        already), so a scan of ``valid`` that skips such pieces may
        visit these memories alone.
        """
        return self._index.overlapping(rect)

    def valid_set(self, memory_uid: int) -> RectSet:
        """A memory's valid rects as a RectSet."""
        return RectSet([p.rect for p in self.pieces(memory_uid)])

    def missing(self, memory_uid: int, needed: Rect) -> List[Rect]:
        """Sub-rects of ``needed`` that are not valid in ``memory_uid``."""
        if needed.is_empty():
            return []
        pieces = self.pieces(memory_uid)
        if len(needed.lo) == 1:
            lo, hi = needed.lo[0], needed.hi[0]
            spans = [(lo, hi)]
            for piece in pieces:
                prect = piece.rect
                plo, phi = prect.lo[0], prect.hi[0]
                if phi <= lo or hi <= plo:
                    continue
                spans = _cut(spans, plo, phi)
                if not spans:
                    break
            return [_span_rect(span, needed) for span in spans]
        # One piece holding all of ``needed`` is the common case, and
        # the subtraction below would whittle it to nothing one
        # allocated remainder at a time.
        for piece in pieces:
            if _covers(piece.rect, needed):
                return []
        remaining = [needed]
        for piece in pieces:
            # Pieces disjoint from ``needed`` cannot intersect any
            # remainder of it; skipping them leaves ``remaining``
            # identical (subtract would return each rect unchanged).
            if _disjoint(piece.rect, needed):
                continue
            nxt: List[Rect] = []
            for rect in remaining:
                nxt.extend(rect.subtract(piece.rect))
            remaining = nxt
            if not remaining:
                break
        return remaining

    def ready_time(self, memory_uid: int, needed: Rect) -> float:
        """Latest availability time of valid data overlapping ``needed``."""
        t = 0.0
        for piece in self.pieces(memory_uid):
            if piece.ready_time > t and not _disjoint(piece.rect, needed):
                t = piece.ready_time
        return t

    def covered_ready(self, memory_uid: int, needed: Rect) -> Optional[float]:
        """:meth:`ready_time`, if one valid piece holds all of ``needed``.

        ``None`` otherwise (and for an empty ``needed``).  A memory's
        pieces are pairwise disjoint, so a piece that covers ``needed``
        is the only one overlapping it: the answer is then exactly
        ``ready_time(memory_uid, needed)`` with ``missing(memory_uid,
        needed) == []`` -- the steady state of section 4.3, settled in
        one pass.  Like both, it gives ``memory_uid`` its rank in
        ``valid`` on first touch.
        """
        pieces = self.pieces(memory_uid)
        if needed.is_empty():
            return None
        one_d = len(needed.lo) == 1
        lo, hi = needed.lo[0], needed.hi[0]
        for piece in pieces:
            prect = piece.rect
            if prect.lo[0] <= lo and hi <= prect.hi[0] and (
                one_d or _covers(prect, needed)
            ):
                t = piece.ready_time
                return t if t > 0.0 else 0.0
        return None

    def find_source(self, rect: Rect, exclude: int) -> List[Tuple[int, Rect, float]]:
        """Cover ``rect`` with valid pieces from other memories.

        Returns ``(memory_uid, piece_rect, ready_time)`` fragments whose
        union covers ``rect``.  Pieces that exist nowhere (never-written
        data) are silently dropped — reading uninitialized data is legal
        and transfers nothing.
        """
        fragments: List[Tuple[int, Rect, float]] = []
        if rect.is_empty():
            return fragments
        one_d = len(rect.lo) == 1
        lo, hi = rect.lo[0], rect.hi[0]
        # What is still wanted: (lo, hi) spans of a 1-D rect, rects
        # otherwise.
        remaining: list = [(lo, hi)] if one_d else [rect]
        for mem_uid in self.holders(rect):
            if mem_uid == exclude:
                continue
            if not remaining:
                break
            for piece in self.valid[mem_uid]:
                prect = piece.rect
                plo, phi = prect.lo[0], prect.hi[0]
                # Every remainder is inside ``rect``: a piece disjoint
                # from it contributes no fragment and leaves
                # ``remaining`` unchanged.
                if phi <= lo or hi <= plo:
                    continue
                if one_d:
                    for a, b in remaining:
                        part = (a if a > plo else plo, b if b < phi else phi)
                        if part[0] < part[1]:
                            fragments.append(
                                (mem_uid, _span_rect(part, rect), piece.ready_time)
                            )
                    remaining = _cut(remaining, plo, phi)
                elif not _disjoint(prect, rect):
                    nxt: List[Rect] = []
                    for want in remaining:
                        part = want.intersect(prect)
                        if part.is_empty():
                            nxt.append(want)
                        else:
                            fragments.append((mem_uid, part, piece.ready_time))
                            nxt.extend(want.subtract(part))
                    remaining = nxt
                if not remaining:
                    break
        return fragments

    # ------------------------------------------------------------------
    def mark_valid(self, memory_uid: int, rect: Rect, time: float) -> None:
        """Record that ``rect`` became valid in ``memory_uid`` at ``time``."""
        if rect.is_empty():
            return
        pieces = self.pieces(memory_uid)
        out = _carve(pieces, rect)
        if out is None:
            # Nothing to cut (staged data is by definition not yet
            # valid here): the list grows in place.
            pieces.append(ValidPiece(rect, time))
            self._index.widen(memory_uid, rect)
        else:
            out.append(ValidPiece(rect, time))
            self._store(memory_uid, out)

    def stale(self, memory_uid: int, rect: Rect) -> List[Rect]:
        """Pieces of ``rect`` written somewhere but not valid here.

        Unwritten data is never stale: reading it is legal and
        transfers nothing (attach semantics, see :meth:`find_source`).
        """
        need = self.written.intersect_rect(rect)
        if need.is_empty():
            return []
        return need.subtract(self.valid_set(memory_uid)).rects()

    def mark_written(self, memory_uid: int, rect: Rect, time: float) -> None:
        """A write: valid here, invalid everywhere else (overlap)."""
        if rect.is_empty():
            return
        self.written.add(rect)
        for mem_uid in self.holders(rect):
            if mem_uid == memory_uid:
                continue
            # A list no piece of which overlaps the written rect is
            # kept as-is.
            out = _carve(self.valid[mem_uid], rect)
            if out is not None:
                self._store(mem_uid, out)
        self.mark_valid(memory_uid, rect, time)

    def write_complete(self, writes: List[Tuple[int, Rect, float]]) -> None:
        """Batched equivalent of per-color :meth:`mark_written` calls.

        ``writes`` is ``(memory_uid, rect, time)`` per color, in color
        order, empty rects omitted, where the rects are the tiles of a
        disjoint partition covering the whole region (the runtime's
        eligibility check, :func:`repro.legion.fastpath
        .eligible_write_reqs`, guarantees this).  Under that geometry
        the sequential calls converge to a state independent of
        prior validity — every pre-existing piece is subtracted away
        tile by tile, each written memory ends holding exactly its own
        tiles in color order, and ``written`` receives the same
        per-tile add sequence — so one pass reproduces it exactly
        without the O(colors x memories) list rebuilds.
        """
        valid = self.valid
        for mem_uid in valid:
            valid[mem_uid] = []
        self._index.reset()
        # Tiles of one disjoint partition: the batched written-set union
        # skips tile-vs-tile subtracts (identical outcome, O(n) not
        # O(n^2) — fresh regions pay the full scan on every first write
        # otherwise).
        self.written.add_disjoint(rect for _, rect, _ in writes)
        for mem_uid, rect, t in writes:
            lst = valid.get(mem_uid)
            if lst is None:
                lst = self.pieces(mem_uid)
            lst.append(ValidPiece(rect, t))
            self._index.widen(mem_uid, rect)

    def invalidate(self, memory_uid: int, rect: Optional[Rect] = None) -> None:
        """Drop one memory's validity (all of it, or just ``rect``).

        This is how evictions, spills and simulated node losses are
        expressed: the data stops being *resident* there, while the
        ``written`` history is kept so reads of the dropped pieces must
        be re-justified by copies (or flagged stale).
        """
        if rect is None:
            if self.valid.pop(memory_uid, None) is not None:
                self._index.drop(memory_uid)
            return
        pieces = self.valid.get(memory_uid)
        if not pieces or rect.is_empty():
            return
        out = _carve(pieces, rect)
        if out is not None:
            self._store(memory_uid, out)

    def only_copy(self, memory_uid: int, rect: Rect) -> RectSet:
        """Written pieces of ``rect`` whose *only* valid copy is here.

        These are the "dirty" bytes an eviction would lose — the spill
        policy must write them back (to system memory) before dropping
        the instance, where a clean instance can simply be discarded.
        """
        dirty = self.written.intersect_rect(rect).intersect(
            self.valid_set(memory_uid)
        )
        # ``dirty`` lies inside ``rect``: a memory holding nothing that
        # overlaps ``rect`` would subtract nothing.
        for mem_uid in self.holders(rect):
            if dirty.is_empty():
                break
            if mem_uid != memory_uid:
                dirty = dirty.subtract(self.valid_set(mem_uid))
        return dirty

    def invalidate_all(self) -> None:
        """Forget all placement (data stays exact)."""
        self.valid.clear()
        self._index = _HullIndex()
