"""Resilience 2.0: replicated checkpoint stores and the recovery planner.

PR 4's checkpoint lived in exactly one memory — node-0 sysmem — so that
memory was a single point of failure: ``Runtime._recover`` had to raise
an unconditional :class:`FaultError` the moment it was lost.  This
module removes the single point of failure the way real distributed
runtimes do (Legion resilient-mode checkpointing, checkpoint/restart
for large training jobs): each checkpoint epoch's snapshot pieces are
*replicated* into the sysmems of ``ChaosConfig.ckpt_replicas`` distinct
fault domains, and recovery re-sources every needed piece from the
cheapest surviving replica via the machine model.

Three pieces, all pure policy/planning (the runtime owns the clocks and
issues the actual modeled copies):

:func:`place_stores`
    The replica placement policy: one sysmem per node, ascending node
    id, node 0 first — so ``replicas=1`` reproduces the original
    single-store behaviour bit for bit.

:class:`CheckpointManifest`
    What the last epoch protects: per-region snapshots of the written
    set at checkpoint time.  Recovery needs this to distinguish "piece
    the snapshot must supply" from "piece the journal replay will
    re-write anyway".

:func:`plan_recovery`
    The recovery planner: for every protected piece the replay will
    not re-write, cover it in each surviving store from the cheapest
    surviving source (modeled channel latency + bandwidth).  A piece
    valid in *no* surviving memory raises :class:`FaultError` naming
    the region and rect — the "all replicas gone" condition, and the
    only unrecoverable outcome at ``replicas >= 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.geometry import Rect, RectSet
from repro.legion.coherence import RegionCoherence
from repro.legion.exceptions import FaultError
from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege
from repro.machine import Memory, MemoryKind


# ----------------------------------------------------------------------
# Replica placement
# ----------------------------------------------------------------------
def place_stores(
    machine,
    replicas: int = 1,
    exclude_nodes: Iterable[int] = (),
) -> List[Memory]:
    """Pick checkpoint stores: sysmems of ``replicas`` distinct nodes.

    A node is one fault domain (a node loss takes every memory on it),
    so spreading replicas across nodes is what buys survival.  Policy:
    ascending node id with node 0 first — ``replicas=1`` therefore
    yields exactly the original node-0 store.  Nodes in
    ``exclude_nodes`` (dead in the current recovery) are skipped; the
    effective replica count is ``min(replicas, surviving domains)`` and
    an empty list means no domain can host a store at all.
    """
    excluded = set(exclude_nodes)
    by_node: Dict[int, Memory] = {}
    for mem in machine.memories:
        if mem.kind != MemoryKind.SYSMEM or mem.node in excluded:
            continue
        if mem.node not in by_node:
            by_node[mem.node] = mem
    return [by_node[n] for n in sorted(by_node)][: max(replicas, 1)]


def transfer_cost(machine, src: Memory, dst: Memory, nbytes: int) -> float:
    """Modeled seconds to move ``nbytes`` from ``src`` to ``dst``.

    Planning heuristic only — latency plus bytes over the narrowest
    channel, ignoring occupancy (the runtime's ``_copy`` charges the
    real schedule).  Deterministic, so source selection is too.
    """
    if src.uid == dst.uid:
        return 0.0
    channels = machine.channels_between(src, dst)
    latency = sum(c.latency for c in channels)
    bandwidth = min(c.bandwidth for c in channels)
    return latency + nbytes / bandwidth


# ----------------------------------------------------------------------
# Checkpoint manifest
# ----------------------------------------------------------------------
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
                owner = task.fold_partition or Tiling.create(
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


# ----------------------------------------------------------------------
# Recovery planning
# ----------------------------------------------------------------------
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


def plan_recovery(
    manifest: CheckpointManifest,
    coherence: Dict[int, RegionCoherence],
    rewritten: Dict[int, RectSet],
    stores: Sequence[Memory],
    machine,
    memory_by_uid: Callable[[int], Memory],
    region_meta: Dict[int, Tuple[str, int]],
) -> List[RestoreStep]:
    """Plan the copies that re-establish every store's replica set.

    For each manifest piece the replay will not re-write, each
    surviving store missing it is re-sourced from the *cheapest*
    surviving valid copy (``transfer_cost`` over the machine model;
    ties break on memory uid for determinism).  Raises
    :class:`FaultError` naming the region and rect when some needed
    piece is valid in no surviving memory — all replicas of it are
    gone, the one unrecoverable outcome.
    """
    steps: List[RestoreStep] = []
    for uid, (name, protected) in manifest.pieces.items():
        coh = coherence.get(uid)
        if coh is None:
            continue  # freed since the epoch; nothing can read it
        needed = protected
        replayed = rewritten.get(uid)
        if replayed is not None:
            needed = needed.subtract(replayed)
        if needed.is_empty():
            continue
        _, itemsize = region_meta.get(uid, (name, 8))
        for store in stores:
            missing = needed.subtract(coh.valid_set(store.uid))
            for rect in missing.rects():
                steps.extend(
                    _cover_from_cheapest(
                        uid, name, rect, coh, store, machine,
                        memory_by_uid, itemsize,
                    )
                )
    return steps


def _cover_from_cheapest(
    region_uid: int,
    name: str,
    rect: Rect,
    coh: RegionCoherence,
    store: Memory,
    machine,
    memory_by_uid: Callable[[int], Memory],
    itemsize: int,
) -> List[RestoreStep]:
    """Cover ``rect`` at ``store`` from surviving copies, cheapest first."""
    # Rank every memory that may hold part of ``rect`` by the modeled
    # cost of one element's transfer to the store; the greedy cover
    # then prefers e.g. an intra-node sysmem or NVLink-reachable
    # framebuffer over a NIC hop to a remote replica.
    candidates = []
    for mem_uid in coh.holders(rect):
        if mem_uid == store.uid:
            continue
        cost = transfer_cost(machine, memory_by_uid(mem_uid), store, itemsize)
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
