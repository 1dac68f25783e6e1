"""Structured event log of one simulated execution (the Legion Spy input).

When :class:`~repro.legion.runtime.RuntimeConfig` has ``validate=True``
the runtime appends one event per task launch, shard execution, derived
copy, reduction fold and scalar allreduce.  Events carry everything the
offline checker (:mod:`repro.analysis.checker`) needs to rebuild the
happens-before graph independently of the runtime's own coherence maps:
region identities, per-shard rectangles, privileges and memory
placements.  The log serializes to JSON lines so runs can be captured
and validated later with ``python -m repro.analysis <logfile>``.

Event order is the order the runtime processed them, which is the order
its coherence state actually evolved — the checker replays it and cross
checks every read against what the copies it saw can justify.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry import Rect


def _rect_to_json(rect: Rect) -> List[List[int]]:
    return [list(rect.lo), list(rect.hi)]


def _rect_from_json(obj) -> Rect:
    return Rect(tuple(int(v) for v in obj[0]), tuple(int(v) for v in obj[1]))


@dataclass(frozen=True)
class ReqAccess:
    """One shard's access to one region argument."""

    name: str
    region: int
    region_name: str
    rect: Rect
    privilege: str  # Privilege.value: read / write / write-discard / reduce
    # For reads through exact image partitions, the disjoint pieces
    # actually staged (the referenced runs); empty means the whole rect.
    pieces: Tuple[Rect, ...] = ()

    @property
    def read_pieces(self) -> Tuple[Rect, ...]:
        """The rects a read actually observes."""
        return self.pieces if self.pieces else (self.rect,)

    @property
    def reads(self) -> bool:
        """Whether prior contents are observed (staged) by the shard."""
        return self.privilege in ("read", "write")

    @property
    def writes(self) -> bool:
        """Whether the shard produces new contents."""
        return self.privilege in ("write", "write-discard", "reduce")


@dataclass(frozen=True)
class TaskEvent:
    """A task launch entering the stream."""

    seq: int
    launch: int
    name: str
    colors: int
    kind: str = "task"


@dataclass(frozen=True)
class ShardEvent:
    """One color of a launch: its accesses, placement and interval.

    ``replay`` marks shards re-executed by post-loss journal replay:
    their writes re-establish validity, but their reads were satisfied
    in the original (pre-fault) execution — the checker exempts them
    from the stale-read rule, since a value consumed before the fault
    and then overwritten may legitimately no longer exist anywhere.

    ``phase`` 1 marks a fused task's *trailing phase*: the accesses of
    its members that reduce into a region, whose kernels run after the
    task's last shard (the interval is still the shard's, which the
    model charges).  Phase 0 holds everything else.
    """

    seq: int
    launch: int
    name: str
    color: int
    proc: int
    memory: int
    reqs: Tuple[ReqAccess, ...]
    start: float
    finish: float
    replay: bool = False
    phase: int = 0
    kind: str = "shard"


@dataclass(frozen=True)
class CopyEvent:
    """A runtime-derived copy of a region fragment between memories.

    ``why`` is ``"stage"`` for coherence copies that make data valid in
    the destination and ``"fold"`` for REDUCE-partial transfers (which
    carry contributions, not region contents, and so do not establish
    validity).
    """

    seq: int
    region: int
    region_name: str
    rect: Rect
    src_memory: int
    dst_memory: int
    nbytes: int
    why: str = "stage"
    kind: str = "copy"


@dataclass(frozen=True)
class FoldEvent:
    """REDUCE contributions folded onto one owner tile."""

    seq: int
    launch: int
    name: str
    region: int
    region_name: str
    rect: Rect
    memory: int
    kind: str = "fold"


@dataclass(frozen=True)
class AllreduceEvent:
    """A cross-shard scalar reduction into a future."""

    seq: int
    op: str
    participants: int
    kind: str = "allreduce"


@dataclass(frozen=True)
class FaultEvent:
    """An injected fault (and its recovery) entering the stream.

    ``fault`` is the kind injected ("copy", "alloc", "gpu-loss",
    "node-loss"); for losses, ``memories`` lists the memory uids whose
    contents vanished — the checker drops their validity just as the
    runtime's coherence maps do, so post-recovery reads must be
    justified by replayed copies.
    """

    seq: int
    fault: str
    memories: Tuple[int, ...] = ()
    detail: str = ""
    kind: str = "fault"


@dataclass(frozen=True)
class CheckpointEvent:
    """A checkpoint epoch: dirty pieces snapshotted to system memory."""

    seq: int
    nbytes: int
    regions: int
    kind: str = "checkpoint"


@dataclass(frozen=True)
class DetectionEvent:
    """The modeled failure detector's state machine for one loss.

    A loss at simulated time ``at`` is *suspected* at the next
    heartbeat tick (``suspected``) and *confirmed* after the detection
    timeout (``confirmed``); recovery cannot begin before confirmation.
    Pure annotation for the checker — validity transitions ride the
    companion :class:`FaultEvent`.
    """

    seq: int
    fault: str  # "gpu-loss" | "node-loss"
    target: int
    at: float
    suspected: float
    confirmed: float
    kind: str = "detection"


Event = object  # union of the dataclasses above


@dataclass
class EventLog:
    """An append-only event stream for one runtime."""

    name: str = "run"
    events: List[Event] = field(default_factory=list)
    _seq: int = 0
    _launch: int = 0

    # ------------------------------------------------------------------
    # Recording (called by the runtime; each append is O(1))
    # ------------------------------------------------------------------
    def _next(self) -> int:
        self._seq += 1
        return self._seq

    def record_task(self, name: str, colors: int) -> int:
        """Open a new launch; returns its launch id."""
        self._launch += 1
        self.events.append(TaskEvent(self._next(), self._launch, name, colors))
        return self._launch

    def record_shard(
        self,
        launch: int,
        name: str,
        color: int,
        proc: int,
        memory: int,
        reqs: Iterable[ReqAccess],
        start: float,
        finish: float,
        replay: bool = False,
        phase: int = 0,
    ) -> None:
        """Record one executed shard with its region accesses."""
        self.events.append(
            ShardEvent(
                self._next(), launch, name, color, proc, memory,
                tuple(reqs), start, finish, replay, phase,
            )
        )

    def record_copy(
        self,
        region: int,
        region_name: str,
        rect: Rect,
        src_memory: int,
        dst_memory: int,
        nbytes: int,
        why: str = "stage",
    ) -> None:
        """Record a derived inter-memory copy."""
        self.events.append(
            CopyEvent(
                self._next(), region, region_name, rect,
                src_memory, dst_memory, nbytes, why,
            )
        )

    def record_fold(
        self,
        launch: int,
        name: str,
        region: int,
        region_name: str,
        rect: Rect,
        memory: int,
    ) -> None:
        """Record a reduction fold write onto an owner tile."""
        self.events.append(
            FoldEvent(self._next(), launch, name, region, region_name, rect, memory)
        )

    def record_allreduce(self, op: str, participants: int) -> None:
        """Record a scalar allreduce."""
        self.events.append(AllreduceEvent(self._next(), op, participants))

    def record_fault(
        self, fault: str, memories: Iterable[int] = (), detail: str = ""
    ) -> None:
        """Record an injected fault (losses carry the wiped memories)."""
        self.events.append(
            FaultEvent(self._next(), fault, tuple(memories), detail)
        )

    def record_checkpoint(self, nbytes: int, regions: int) -> None:
        """Record one checkpoint epoch."""
        self.events.append(CheckpointEvent(self._next(), int(nbytes), regions))

    def record_detection(
        self,
        fault: str,
        target: int,
        at: float,
        suspected: float,
        confirmed: float,
    ) -> None:
        """Record one loss's suspected -> confirmed detector transition."""
        self.events.append(
            DetectionEvent(self._next(), fault, target, at, suspected, confirmed)
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        """Drop recorded events (sequence numbers keep increasing)."""
        self.events.clear()

    def stats(self) -> Dict[str, int]:
        """Event counts by kind."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Serialization (JSON lines)
    # ------------------------------------------------------------------
    def to_lines(self) -> List[str]:
        """The log as JSON lines."""
        lines = []
        for ev in self.events:
            lines.append(json.dumps(_event_to_json(ev), separators=(",", ":")))
        return lines

    def save(self, path: str) -> None:
        """Write the log as a JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def load(cls, path: str, name: Optional[str] = None) -> "EventLog":
        """Read a JSONL log written by :meth:`save`."""
        log = cls(name=name or path)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                log.events.append(_event_from_json(json.loads(line)))
        if log.events:
            log._seq = max(getattr(ev, "seq", 0) for ev in log.events)
            log._launch = max(
                (getattr(ev, "launch", 0) for ev in log.events), default=0
            )
        return log


def _event_to_json(ev) -> dict:
    if isinstance(ev, TaskEvent):
        return {
            "kind": "task", "seq": ev.seq, "launch": ev.launch,
            "name": ev.name, "colors": ev.colors,
        }
    if isinstance(ev, ShardEvent):
        out = {
            "kind": "shard", "seq": ev.seq, "launch": ev.launch,
            "name": ev.name, "color": ev.color, "proc": ev.proc,
            "memory": ev.memory, "start": ev.start, "finish": ev.finish,
            "replay": ev.replay,
            "reqs": [
                {
                    "name": r.name, "region": r.region,
                    "region_name": r.region_name,
                    "rect": _rect_to_json(r.rect), "privilege": r.privilege,
                    "pieces": [_rect_to_json(p) for p in r.pieces],
                }
                for r in ev.reqs
            ],
        }
        if ev.phase:
            out["phase"] = ev.phase
        return out
    if isinstance(ev, CopyEvent):
        return {
            "kind": "copy", "seq": ev.seq, "region": ev.region,
            "region_name": ev.region_name, "rect": _rect_to_json(ev.rect),
            "src": ev.src_memory, "dst": ev.dst_memory,
            "nbytes": ev.nbytes, "why": ev.why,
        }
    if isinstance(ev, FoldEvent):
        return {
            "kind": "fold", "seq": ev.seq, "launch": ev.launch,
            "name": ev.name, "region": ev.region,
            "region_name": ev.region_name, "rect": _rect_to_json(ev.rect),
            "memory": ev.memory,
        }
    if isinstance(ev, AllreduceEvent):
        return {
            "kind": "allreduce", "seq": ev.seq, "op": ev.op,
            "participants": ev.participants,
        }
    if isinstance(ev, FaultEvent):
        return {
            "kind": "fault", "seq": ev.seq, "fault": ev.fault,
            "memories": list(ev.memories), "detail": ev.detail,
        }
    if isinstance(ev, CheckpointEvent):
        return {
            "kind": "checkpoint", "seq": ev.seq, "nbytes": ev.nbytes,
            "regions": ev.regions,
        }
    if isinstance(ev, DetectionEvent):
        return {
            "kind": "detection", "seq": ev.seq, "fault": ev.fault,
            "target": ev.target, "at": ev.at,
            "suspected": ev.suspected, "confirmed": ev.confirmed,
        }
    raise TypeError(f"unknown event {ev!r}")


def _event_from_json(obj: dict):
    kind = obj["kind"]
    if kind == "task":
        return TaskEvent(obj["seq"], obj["launch"], obj["name"], obj["colors"])
    if kind == "shard":
        reqs = tuple(
            ReqAccess(
                r["name"], r["region"], r["region_name"],
                _rect_from_json(r["rect"]), r["privilege"],
                tuple(_rect_from_json(p) for p in r.get("pieces", [])),
            )
            for r in obj["reqs"]
        )
        return ShardEvent(
            obj["seq"], obj["launch"], obj["name"], obj["color"],
            obj["proc"], obj["memory"], reqs, obj["start"], obj["finish"],
            obj.get("replay", False), obj.get("phase", 0),
        )
    if kind == "copy":
        return CopyEvent(
            obj["seq"], obj["region"], obj["region_name"],
            _rect_from_json(obj["rect"]), obj["src"], obj["dst"],
            obj["nbytes"], obj.get("why", "stage"),
        )
    if kind == "fold":
        return FoldEvent(
            obj["seq"], obj["launch"], obj["name"], obj["region"],
            obj["region_name"], _rect_from_json(obj["rect"]), obj["memory"],
        )
    if kind == "allreduce":
        return AllreduceEvent(obj["seq"], obj["op"], obj["participants"])
    if kind == "fault":
        return FaultEvent(
            obj["seq"], obj["fault"],
            tuple(int(m) for m in obj.get("memories", [])),
            obj.get("detail", ""),
        )
    if kind == "checkpoint":
        return CheckpointEvent(obj["seq"], obj["nbytes"], obj["regions"])
    if kind == "detection":
        return DetectionEvent(
            obj["seq"], obj["fault"], obj["target"], obj["at"],
            obj["suspected"], obj["confirmed"],
        )
    raise ValueError(f"unknown event kind {kind!r}")
