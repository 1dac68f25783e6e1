"""Fault recovery: checkpoint epochs, loss handling and journal replay.

One :class:`Recovery` component per runtime (``Runtime.recovery``, the
single hook the runtime keeps) owns the checkpoint/loss/replay
protocol; the runtime calls it at five points -- the checkpoint
cadence in ``launch``, loss delivery and journaling in
``_execute_task``, loss delivery in ``wait``, a freed region in
``free_region`` and a program boundary in ``reset_for_program``.
Transient copy and allocation faults are drawn where the copy and the
mapping happen (``Runtime._copy``, ``Runtime._map_instance``), from
the same :class:`~repro.legion.chaos.ChaosInjector`,
``Recovery.chaos``; both then follow one retry rule,
:meth:`Recovery.retry`.  Checkpoint and restore copies take the
runtime's one copy path, ``Runtime._copy``, as staging, fold and spill
copies do.

The protocol:

* **Epochs.**  :meth:`Recovery.checkpoint` (or the automatic cadence,
  ``ChaosConfig.checkpoint_every`` launches) snapshots every written
  piece into the sysmems of ``ChaosConfig.ckpt_replicas`` distinct
  fault domains -- one sysmem per node, ascending node id, node 0
  first, so ``replicas=1`` is the single node-0 store -- records what
  the epoch protects in a :class:`CheckpointManifest`, and resets the
  journal.
* **Journal.**  When a loss is scheduled, every launch executed since
  the last epoch is journaled (in execution order).
* **Recovery.**  A loss is delivered at its own time: one that falls
  while the host issues a launch or waits on a future is acted on
  before that launch issues or that wait returns.  It wipes the lost
  memories and charges detection and restart; every protected piece
  the replay will not re-write (:func:`journal_write_coverage`) is
  re-sourced into each surviving store from the cheapest surviving copy
  (:meth:`Recovery.plan_recovery`, ranked by the runtime's routes);
  then the journal replays through the runtime's one execution path
  with ``replay=True``: re-mapped, re-staged and re-timed, kernels
  skipped, so the result is bitwise a fault-free run's.  A piece valid
  in no surviving memory raises :class:`FaultError` -- "all replicas
  gone", the one unrecoverable outcome at ``replicas >= 2``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import Rect, RectSet
from repro.legion.chaos import ChaosInjector, LossSchedule
from repro.legion.coherence import RegionCoherence
from repro.legion.exceptions import FaultError
from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege
from repro.machine import Memory, MemoryKind


@dataclass
class CheckpointManifest:
    """Per-region written sets captured by the last checkpoint epoch."""

    # region uid -> (name, written rects at snapshot time)
    pieces: Dict[int, Tuple[str, RectSet]] = field(default_factory=dict)

    def record(self, region_uid: int, name: str, written: RectSet) -> None:
        """Protect ``written`` (already a private copy) for one region."""
        if not written.is_empty():
            self.pieces[region_uid] = (name, written)

    def drop(self, region_uid: int) -> None:
        """Forget a freed region (nothing downstream can read it)."""
        self.pieces.pop(region_uid, None)

    def protected_volume(self) -> int:
        """Total protected elements (itemsize-agnostic)."""
        return sum(rs.volume() for _, rs in self.pieces.values())


def journal_write_coverage(
    journal: Sequence, freed_uids: Set[int]
) -> Dict[int, RectSet]:
    """Rects the journaled tasks re-write during replay, per region uid.

    Recovery need not restore these from a replica: replay re-marks
    them valid on the writing memories.  The coverage must never
    over-approximate (claiming a piece is re-written when replay leaves
    it invalid would lose it); under-approximation merely restores more
    than strictly needed.  Non-REDUCE writes mark exactly the partition
    rects.  REDUCE folds mark every non-empty *owner* tile written
    regardless of which contributions overlap it, so the owner
    partition — not the contribution rects — is the exact coverage.
    """
    coverage: Dict[int, RectSet] = {}
    for task in journal:
        for req in task.requirements:
            if not req.privilege.writes or req.region.uid in freed_uids:
                continue
            rs = coverage.setdefault(req.region.uid, RectSet())
            if req.privilege == Privilege.REDUCE:
                owner = req.owner or Tiling.create(
                    req.region, task.color_count
                )
                colors = owner.color_count
                rect_of = owner.rect
            else:
                colors = task.color_count
                rect_of = req.partition.rect
            for color in range(colors):
                rect = rect_of(color)
                if not rect.is_empty():
                    rs.add(rect)
    return coverage


@dataclass(frozen=True)
class RestoreStep:
    """One planned replica-restoring copy (unscaled bytes)."""

    region_uid: int
    region_name: str
    rect: Rect
    src_uid: int
    dst_uid: int
    nbytes: int
    ready: float  # source piece availability time


class Recovery:
    """The checkpoint/loss/replay state of one runtime."""

    def __init__(self, runtime) -> None:
        # A proxy: the runtime owns its recovery, and a reference back
        # would make a cycle that keeps a dropped runtime (instances,
        # coherence, clocks) alive until a cyclic collection.
        self.runtime = weakref.proxy(runtime)
        config = runtime.config.chaos
        # The fault schedule (None without chaos): its losses are
        # delivered here, its transient faults in the runtime's copy
        # and mapping paths.
        self.chaos = ChaosInjector(config) if config is not None else None
        # Every launch executed since the last checkpoint epoch, kept
        # only while a loss is scheduled (None otherwise: the fault-free
        # path journals nothing).
        self.journal: Optional[list] = (
            [] if config is not None and config.has_losses else None
        )
        self.checkpoint_every = (
            config.checkpoint_every if config is not None else 0
        )
        self.replicas = config.ckpt_replicas if config is not None else 1
        # The checkpoint stores' candidates: one sysmem per node (a node
        # is one fault domain), ascending node id, node 0 first.
        by_node: Dict[int, Memory] = {}
        for mem in runtime.machine.memories:
            if mem.kind == MemoryKind.SYSMEM:
                by_node.setdefault(mem.node, mem)
        self.domains: List[Memory] = [by_node[n] for n in sorted(by_node)]
        self.manifest = CheckpointManifest()
        # Regions freed since the last checkpoint: journal replay must
        # skip their requirements (coherence and instances are gone).
        self.freed: set = set()
        self.active = False  # a recovery is running
        self.launches_since_checkpoint = 0

    def place_stores(self, dead_nodes: Collection[int] = ()) -> List[Memory]:
        """The checkpoint stores: the sysmems of ``replicas`` distinct
        surviving fault domains (fewer when fewer survive; none when
        every domain is dead)."""
        return [m for m in self.domains if m.node not in dead_nodes][
            : self.replicas
        ]

    def written_bytes(self) -> int:
        """Unscaled bytes of every region's written set: what a
        checkpoint epoch protects."""
        meta = self.runtime._region_meta
        return sum(
            coh.written.volume() * meta.get(uid, ("", 8))[1]
            for uid, coh in self.runtime._coherence.items()
        )

    def count_launch(self) -> None:
        """The checkpoint cadence (``Runtime.launch`` counts each
        launch issued outside a recovery): every ``checkpoint_every``-th
        opens an epoch."""
        self.launches_since_checkpoint += 1
        if self.launches_since_checkpoint >= self.checkpoint_every:
            self.launches_since_checkpoint = 0
            self.checkpoint()

    def recover_due(self) -> None:
        """Recover from every scheduled loss whose time has come."""
        due = self.chaos.take_losses(self.runtime.issue_time)
        if due:
            self._recover(due)

    def recover_until(self, t: float) -> None:
        """Recover from every loss due by ``t``, each at its own time.

        A host that waits until ``t`` (``Runtime.wait``), or issues a
        launch until then, notices a loss that falls meanwhile when it
        happens: the issue clock moves to the loss, and recovery starts
        there, not at the first launch past it."""
        if self.journal is None or self.active:
            return
        pending = self.chaos.pending_losses
        while pending and pending[0].at_time <= t:
            rt = self.runtime
            rt.issue_time = max(rt.issue_time, pending[0].at_time)
            self.recover_due()
            pending = self.chaos.pending_losses

    def reset(self) -> None:
        """A program boundary: journaled work is covered by a
        checkpoint, not dropped (a program boundary *is* an epoch
        boundary), and the cadence restarts."""
        if self.journal is not None and (self.journal or self.freed):
            self.checkpoint()
        self.launches_since_checkpoint = 0

    def checkpoint(self) -> int:
        """Open a new checkpoint epoch: snapshot dirty data to the stores.

        Every written piece not already valid in a checkpoint store is
        copied there over the modeled channels (attach semantics: no
        sysmem instance is charged, like the host staging fiction in
        ``Runtime.create_region``); traffic beyond the primary store is
        counted as replication bytes.  The journal then resets — a
        subsequent loss replays only tasks launched after this epoch —
        and the manifest records what the epoch protects.  Returns the
        scaled snapshot bytes (all replicas).

        The snapshot drains *asynchronously*: the issue clock is not
        blocked on it (real checkpointing overlaps compute), so only
        channel occupancy remembers the traffic — which is exactly what
        the sync-point clocks (``elapsed``/``barrier``) fold in.
        """
        rt = self.runtime
        rt.flush_window()
        if self.journal is not None and not self.active:
            # A loss already due must recover *before* the snapshot: a
            # checkpoint drained after the loss time must not capture
            # state the loss has (in simulated time) already destroyed.
            self.recover_due()
        # Re-place the stores each epoch: a node dead during the last
        # recovery has "restarted" by the next checkpoint and rejoins
        # the replica set.
        stores = self.place_stores()
        manifest = CheckpointManifest()
        primary_uid = stores[0].uid
        scale = rt.config.effective_comm_scale
        total = 0
        replicated = 0
        nregions = 0
        for uid, coh in rt._coherence.items():
            if coh.written.is_empty():
                continue
            name, itemsize = rt._region_meta.get(uid, ("", 8))
            manifest.record(uid, name, RectSet(coh.written.rects()))
            copied = False
            for store in stores:
                need = coh.written.subtract(coh.valid_set(store.uid))
                for rect in need.rects():
                    for src_uid, frag, t_src in coh.find_source(
                        rect, exclude=store.uid
                    ):
                        nbytes = frag.volume() * itemsize
                        rt._copy(
                            rt._memory_by_uid(src_uid), store, nbytes,
                            max(rt.issue_time, t_src),
                            uid, name, frag, "checkpoint", coh,
                        )
                        scaled = int(nbytes * scale)
                        total += scaled
                        if store.uid != primary_uid:
                            replicated += scaled
                        copied = True
            if copied:
                nregions += 1
        self.manifest = manifest
        rt.profiler.record_checkpoint(total)
        if replicated:
            rt.profiler.record_replication(replicated)
        if rt.event_log is not None:
            rt.event_log.record_checkpoint(total, nregions)
        if self.journal:
            self.journal.clear()
        self.freed.clear()
        return total

    def _recover(self, losses) -> None:
        """Recover from delivered GPU/node losses by journal replay.

        Each round (1) wipes the lost memories' instances and coherence
        validity and charges the modeled detection stall plus the
        recovery delay; (2) re-places the stores over the surviving
        fault domains and restores every protected piece the replay
        will not re-write from the cheapest surviving copy -- raising
        :class:`FaultError` when *all* replicas of a needed piece are
        gone (or, at ``ckpt_replicas=1``, whenever the single node-0
        store is lost); (3) replays every task journaled since the last
        epoch.  Recovery is *re-entrant*: a loss falling due mid-replay
        aborts the pass and restarts from step (1) — the journal's
        numerics are untouched, so replaying it again is safe.
        """
        # Lost memories and re-executed launches: nothing issued so far
        # describes the machine any more.
        self.runtime._invalidate_templates()
        journal, self.journal = self.journal, []
        # Pieces the replay itself re-writes need no restore from a
        # replica (the coverage never over-approximates).
        rewritten = journal_write_coverage(journal, self.freed)
        dead_nodes: set = set()
        self.active = True
        try:
            pending: List[LossSchedule] = list(losses)
            while pending:
                self.runtime.profiler.record_recovery()
                self._apply_losses(pending, dead_nodes)
                self._restore_replicas(rewritten, dead_nodes)
                pending = self._replay_journal(journal)
        finally:
            self.active = False

    def _apply_losses(self, losses, dead_nodes: set) -> None:
        """Wipe lost memories; charge detection + recovery stall.

        The failure detector runs on the simulated clock: a loss at
        ``t`` is *suspected* at the next heartbeat tick and *confirmed*
        ``detection_timeout`` later (:meth:`ChaosConfig
        .detection_times`); the run cannot react before confirmation,
        so the issue clock stalls to the latest confirmation before
        paying the per-loss recovery delay.
        """
        rt = self.runtime
        config = self.chaos.config
        log = rt.event_log
        tl = rt.timeline
        lost: List[int] = []
        confirmed_at = rt.issue_time
        for loss in losses:
            if loss.kind == "gpu":
                procs = rt.scope.processors
                proc = procs[loss.target % len(procs)]
                mems = [proc.memory]
            else:
                mems = [
                    m for m in rt.machine.memories if m.node == loss.target
                ]
                dead_nodes.add(loss.target)
            kind = f"{loss.kind}-loss"
            rt.profiler.record_fault(kind)
            uids = [m.uid for m in mems]
            lost.extend(uids)
            suspected, confirmed = config.detection_times(loss.at_time)
            confirmed_at = max(confirmed_at, confirmed)
            rt.profiler.record_detection(max(0.0, confirmed - loss.at_time))
            if log is not None:
                log.record_fault(
                    kind, uids,
                    detail=f"target={loss.target} at t={loss.at_time:g}",
                )
                log.record_detection(
                    kind, loss.target, loss.at_time, suspected, confirmed
                )
            if tl is not None:
                # Detector state transitions (non-busy category:
                # annotation only, like "allreduce"/"recovery").
                tl.record(
                    "detection", "detector",
                    f"suspect:{kind}[{loss.target}]",
                    loss.at_time, suspected,
                )
                tl.record(
                    "detection", "detector",
                    f"confirm:{kind}[{loss.target}]",
                    suspected, confirmed,
                )
        if config.ckpt_replicas == 1 and rt._host_memory.uid in lost:
            # The single-store contract: at replicas=1 the checkpoint IS
            # node-0 sysmem, and losing it is unconditionally fatal even
            # if copies survive elsewhere.
            raise FaultError(
                "node-0 system memory (the checkpoint store) was lost; "
                "recovery is impossible (replicate the checkpoint with "
                "ckpt_replicas >= 2 to survive store loss)"
            )
        for uid in set(lost):
            rt.instances.lose_memory(uid)
            for coh in rt._coherence.values():
                coh.invalidate(uid)
        t_before = rt.issue_time
        rt.issue_time = max(rt.issue_time, confirmed_at)
        t_confirmed = rt.issue_time
        rt.issue_time += config.recovery_delay * len(losses)
        if tl is not None:
            if t_confirmed > t_before:
                tl.record(
                    "detection", "issue",
                    f"detect-stall:{len(losses)}-loss",
                    t_before, t_confirmed,
                )
            tl.record(
                "recovery", "issue",
                f"recover:{len(losses)}-loss",
                t_confirmed, rt.issue_time,
            )
        busy = rt._proc_busy
        for puid in busy:
            busy[puid] = max(busy[puid], rt.issue_time)

    def _restore_replicas(self, rewritten, dead_nodes: set) -> None:
        """Re-place the stores; restore missing protected pieces.

        Surviving fault domains host the stores for the rest of this
        recovery (a dead node rejoins at the next checkpoint epoch);
        every manifest piece the replay will not re-write is copied
        into each store missing it from the cheapest surviving source,
        charged over the modeled channels.
        """
        rt = self.runtime
        stores = self.place_stores(dead_nodes)
        if not stores:
            raise FaultError(
                "every checkpoint-store fault domain was lost; "
                "recovery is impossible"
            )
        for uid in self.freed:
            self.manifest.drop(uid)
        restored = 0
        steps = self.plan_recovery(rewritten, stores)
        for step in steps:
            rt._copy(
                rt._memory_by_uid(step.src_uid),
                rt._memory_by_uid(step.dst_uid),
                step.nbytes,
                max(rt.issue_time, step.ready),
                step.region_uid, step.region_name, step.rect, "restore",
                rt._coherence[step.region_uid],
            )
            restored += int(step.nbytes * rt.config.effective_comm_scale)
        if steps:
            rt.profiler.record_restore(restored, len(steps))

    def retry(
        self, kind: str, attempt: int, detail: str, what: str,
        lanes: Sequence[str], label: str, at: float,
    ) -> float:
        """The retry rule of a transient ``kind`` fault (copy or alloc).

        Counts and logs the fault of ``attempt``; past
        ``ChaosConfig.max_retries`` the fault is deemed permanent and
        raises :class:`FaultError` naming ``what``.  Otherwise returns
        the exponential backoff pause, recorded as a retry and drawn
        from ``at`` as a ``backoff`` span on each of ``lanes``.  The
        caller draws the fault itself, so each path keeps its place in
        the chaos stream.
        """
        rt = self.runtime
        rt.profiler.record_fault(kind)
        if rt.event_log is not None:
            rt.event_log.record_fault(kind, detail=detail)
        if attempt > self.chaos.config.max_retries:
            raise FaultError(f"{what} still failing after {attempt - 1} retries")
        pause = self.chaos.backoff(attempt)
        rt.profiler.record_retry(pause)
        tl = rt.timeline
        if tl is not None:
            for lane in lanes:
                tl.record(
                    "backoff", lane, f"{label}!backoff{attempt}",
                    at, at + pause,
                )
        return pause

    def plan_recovery(
        self, rewritten: Dict[int, RectSet], stores: Sequence[Memory]
    ) -> List[RestoreStep]:
        """Plan the copies that re-establish every store's replica set.

        For each manifest piece the replay will not re-write (``rewritten``
        by region uid), each store missing it is re-sourced from the
        *cheapest* surviving valid copy; raises :class:`FaultError`
        naming the region and rect when some needed piece is valid in
        no surviving memory.
        """
        coherence = self.runtime._coherence
        meta = self.runtime._region_meta
        steps: List[RestoreStep] = []
        for uid, (name, protected) in self.manifest.pieces.items():
            coh = coherence.get(uid)
            if coh is None:
                continue  # freed since the epoch; nothing can read it
            needed = protected
            replayed = rewritten.get(uid)
            if replayed is not None:
                needed = needed.subtract(replayed)
            if needed.is_empty():
                continue
            _, itemsize = meta.get(uid, (name, 8))
            for store in stores:
                missing = needed.subtract(coh.valid_set(store.uid))
                for rect in missing.rects():
                    steps.extend(
                        self._cover_from_cheapest(
                            uid, name, rect, coh, store, itemsize
                        )
                    )
        return steps

    def _cover_from_cheapest(
        self,
        region_uid: int,
        name: str,
        rect: Rect,
        coh: RegionCoherence,
        store: Memory,
        itemsize: int,
    ) -> List[RestoreStep]:
        """Cover ``rect`` at ``store`` from surviving copies, cheapest first."""
        # Rank every memory that may hold part of ``rect`` by the modeled
        # seconds of one element's transfer to the store over its route
        # (summed latency, narrowest bandwidth; occupancy ignored, ties
        # on memory uid): the greedy cover then prefers e.g. an
        # intra-node sysmem or NVLink-reachable framebuffer over a NIC
        # hop to a remote replica.
        rt = self.runtime
        candidates = []
        for mem_uid in coh.holders(rect):
            if mem_uid == store.uid:
                continue
            _, latency, bandwidth = rt._route(rt._memory_by_uid(mem_uid), store)
            cost = latency + itemsize / bandwidth
            candidates.append((cost, mem_uid, coh.valid[mem_uid]))
        candidates.sort(key=lambda c: (c[0], c[1]))
        remaining = [rect]
        steps: List[RestoreStep] = []
        for _, mem_uid, pieces in candidates:
            if not remaining:
                break
            for piece in pieces:
                nxt: List[Rect] = []
                for want in remaining:
                    part = want.intersect(piece.rect)
                    if part.is_empty():
                        nxt.append(want)
                    else:
                        steps.append(
                            RestoreStep(
                                region_uid, name, part, mem_uid, store.uid,
                                part.volume() * itemsize, piece.ready_time,
                            )
                        )
                        nxt.extend(want.subtract(part))
                remaining = nxt
                if not remaining:
                    break
        if remaining:
            raise FaultError(
                f"all replicas of region {name or region_uid!r} piece "
                f"{remaining[0]} are gone: no surviving memory holds a valid "
                f"copy (checkpoint-protected data was lost in every fault "
                f"domain that held it)"
            )
        return steps

    def _replay_journal(self, journal) -> List[LossSchedule]:
        """Replay the epoch's journal; return losses falling due mid-pass.

        Journal order is *execution* order, not issue order: a deferred
        window member is journaled when its flush runs it, in the order
        of the planned groups (a hoisted reduction ahead of members
        issued before it) -- the order in which coherence saw the
        writes, which is what a replay restores.

        A non-empty return means the pass aborted: the caller re-wipes,
        re-plans from surviving replicas and replays again from the
        epoch (replay never touches numerics, so restarting is safe).
        The in-progress journal is cleared first — replayed tasks
        re-append themselves, and a restarted pass must not duplicate
        the aborted pass's entries.
        """
        rt = self.runtime
        self.journal = []
        for task in journal:
            due = self.chaos.take_losses(rt.issue_time)
            if due:
                return due
            rt.profiler.record_reexecution()
            rt._execute(task, replay=True)
        return []
