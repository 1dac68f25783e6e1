"""Offline race/dependence checker over a recorded event log.

This is the reproduction's Legion Spy: given the event stream of one
simulated execution it rebuilds the happens-before relation and proves
(or refutes) that every conflicting pair of accesses was ordered and
every read was fed by copies.

Happens-before rules
--------------------
* **Program order** — launches are issued sequentially (the frontend is
  a sequential Python program), so accesses in *different* launches are
  ordered by launch id.
* **Intra-launch concurrency** — shards (colors) of one launch phase
  execute logically in parallel: there is *no* edge between them.  Two
  shards of the same phase touching overlapping rectangles of the same
  region with conflicting privileges (at least one writes, and they are
  not both REDUCE folds) race — this is what a bad mapper, a bad
  explicit partition or a lost image constraint produces.  A launch has
  one phase, unless it is a fused task with members that reduce into a
  region: those run in a *trailing phase*, after every shard of the
  first, so the phases are ordered like two launches.
* **Copy edges** — program order alone does not move data: a read in
  memory ``M`` of a rect written elsewhere is only justified by copy
  events delivering those bytes into ``M``.  The checker replays the
  log's writes and copies into its own validity map (independent of the
  runtime's coherence tracking) and flags *stale reads*: pieces that
  were written somewhere but never made valid in the reading memory.

Reads of data never written anywhere are legal (uninitialized data
transfers nothing), matching the runtime's attach semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.events import (
    CopyEvent,
    EventLog,
    FaultEvent,
    FoldEvent,
    ReqAccess,
    ShardEvent,
)
from repro.geometry import Rect, RectSet


@dataclass(frozen=True)
class Violation:
    """One checker finding, anchored to the event that exposed it."""

    kind: str  # "intra-launch-race" | "stale-read" | "copy-from-invalid"
    seq: int
    region: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] seq={self.seq} region={self.region}: {self.message}"


def _conflicts(a: ReqAccess, b: ReqAccess) -> bool:
    """Whether two overlapping accesses need an ordering edge."""
    if a.privilege == "reduce" and b.privilege == "reduce":
        return False  # commutative folds are atomic with respect to each other
    return a.writes or b.writes


class _RegionState:
    """The checker's independent validity map for one region."""

    __slots__ = ("valid", "written")

    def __init__(self):
        # memory uid -> rects currently valid there
        self.valid: Dict[int, RectSet] = {}
        # rects ever written in any memory
        self.written: RectSet = RectSet()

    def valid_in(self, memory: int) -> RectSet:
        return self.valid.setdefault(memory, RectSet())

    def stale(self, memory: int, rect: Rect) -> List[Rect]:
        """Pieces of ``rect`` written somewhere but not valid here."""
        need = self.written.intersect_rect(rect)
        if need.is_empty():
            return []
        return need.subtract(self.valid_in(memory)).rects()

    def mark_copied(self, memory: int, rect: Rect) -> None:
        self.valid_in(memory).add(rect)

    def mark_written(self, memory: int, rect: Rect) -> None:
        """Exclusive write: valid here, invalid everywhere else."""
        for mem, rset in self.valid.items():
            if mem != memory:
                self.valid[mem] = rset.subtract_rect(rect)
        self.valid_in(memory).add(rect)
        self.written.add(rect)


def check_log(log: EventLog, max_violations: int = 100) -> List[Violation]:
    """Replay a log and return every ordering/validity violation found."""
    violations: List[Violation] = []
    states: Dict[int, _RegionState] = {}
    names: Dict[int, str] = {}
    # (launch id, phase) -> per-region accesses seen so far: (color, req)
    launches: Dict[
        Tuple[int, int], Dict[int, List[Tuple[int, ReqAccess]]]
    ] = {}

    def state(region: int) -> _RegionState:
        st = states.get(region)
        if st is None:
            st = states[region] = _RegionState()
        return st

    for ev in log.events:
        if len(violations) >= max_violations:
            break
        if isinstance(ev, CopyEvent):
            names.setdefault(ev.region, ev.region_name)
            if ev.why not in ("stage", "spill", "checkpoint", "restore"):
                # Fold transfers carry REDUCE partials, not region
                # contents; they establish nothing.  Spill, checkpoint
                # and restore copies move real region contents (dirty
                # pieces to/between checkpoint stores) and do establish
                # validity — replica copies establish, confirmed loss
                # (FaultEvent below) drops.
                continue
            st = state(ev.region)
            # The source must itself have been able to supply the bytes.
            bad = st.stale(ev.src_memory, ev.rect)
            for piece in bad:
                violations.append(
                    Violation(
                        "copy-from-invalid", ev.seq, ev.region_name,
                        f"copy of {piece} from memory {ev.src_memory} "
                        f"to {ev.dst_memory}, but the source never held "
                        f"valid data for it",
                    )
                )
            st.mark_copied(ev.dst_memory, ev.rect)
        elif isinstance(ev, ShardEvent):
            per_region = launches.setdefault((ev.launch, ev.phase), {})
            for req in ev.reqs:
                if req.rect.is_empty():
                    continue
                names.setdefault(req.region, req.region_name)
                st = state(req.region)
                # 1. Intra-launch races against previously seen shards.
                seen = per_region.setdefault(req.region, [])
                for color, other in seen:
                    if color == ev.color:
                        continue
                    overlap = req.rect.intersect(other.rect)
                    if overlap.is_empty() or not _conflicts(req, other):
                        continue
                    violations.append(
                        Violation(
                            "intra-launch-race", ev.seq, req.region_name,
                            f"task {ev.name!r}: shard {ev.color} "
                            f"({req.privilege} {req.rect}) and shard "
                            f"{color} ({other.privilege} {other.rect}) "
                            f"overlap on {overlap} with no ordering edge",
                        )
                    )
                seen.append((ev.color, req))
                # 2. Stale reads: every read must be justified by the
                # writes and copies replayed so far.  Exact image
                # partitions read only their recorded pieces, not the
                # bounding rect.  Journal-replay shards are exempt:
                # their reads were satisfied pre-fault, and a value
                # consumed and then overwritten may no longer exist
                # anywhere (their *writes* still count, below).
                if req.reads and not ev.replay:
                    for want in req.read_pieces:
                        for piece in st.stale(ev.memory, want):
                            violations.append(
                                Violation(
                                    "stale-read", ev.seq, req.region_name,
                                    f"task {ev.name!r} shard {ev.color} "
                                    f"reads {piece} in memory {ev.memory}, "
                                    f"but no copy ever delivered that data "
                                    f"there",
                                )
                            )
                # 3. Writes update the validity map.  REDUCE partials
                # become region contents only at the fold.
                if req.writes and req.privilege != "reduce":
                    st.mark_written(ev.memory, req.rect)
        elif isinstance(ev, FoldEvent):
            names.setdefault(ev.region, ev.region_name)
            state(ev.region).mark_written(ev.memory, ev.rect)
        elif isinstance(ev, FaultEvent):
            # A loss wipes the listed memories: drop their validity in
            # every region (``written`` history stays — post-recovery
            # reads must be re-justified by replayed copies).
            for st in states.values():
                for mem in ev.memories:
                    st.valid.pop(mem, None)
    return violations[:max_violations]
