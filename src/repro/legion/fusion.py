"""Automatic task fusion: planning and merging for the deferred window.

The paper attributes Legate Sparse's single-GPU losses on GMG and the
quantum workload to per-task launch overhead and names task fusion as
the fix (§6.1); the Diffuse follow-up shows the mechanism: buffer
launches in a *deferred window* and merge compatible runs into one task.
This module is that mechanism:
:class:`repro.legion.runtime.Runtime` buffers fusible
:class:`~repro.legion.task.TaskLaunch` objects and, at each flush, calls
:func:`plan_window` to partition the window into groups and :func:`fuse`
to merge each multi-launch group.  (The advisor,
:mod:`repro.analysis.advisor`, reports the groups of a kernel-free dry
run of that same runtime — it has no window of its own.)

Legality rules (checked structurally, per window):

1. *Who joins.*  A launch tagged :class:`~repro.legion.task.Pointwise`
   declares that its kernel touches nothing outside its requirements'
   rects: element-wise launches, scalar reductions over read-only
   tilings or disjoint images (``numeric.reductions``), every generated
   kernel (``distal.registry.launch``, REDUCE ones included), row
   expansion and row gathers.  It enters the window.  Any other launch -- a
   slice write, a random draw, ``scatter_add``, a raw launch -- flushes
   a non-empty window, then runs (``Runtime.launch``): it runs after
   every launch issued before it, as the unfused program does.
2. *One dependence rule, per region* (Diffuse's).  The fused kernel
   runs shard by shard, so shard *i* of a later member runs before
   shard *j > i* of an earlier one.  Every member of a group has the
   same color count, and a region some member writes is reached by
   every member through one disjoint partition -- a tiling with equal
   boundaries, or an image of equal derivation
   (:func:`~repro.legion.partition.derivation`) -- so shard
   *i* of each member depends only on shard *i* of the others.  Two
   images of one derivation in one window have equal rects: a fresh
   image is computed from its source's current data, and the solver
   reuses an image *key partition* (a matrix's value array, cut at the
   rows of a ``pos`` tile, and what is computed from it) only while
   its source is unwritten since (``solver.usable_key``), so an
   element-wise op on such an array shares the shards of the sparse
   kernels that read it.  A
   region no member writes may be read through anything: tiles,
   replicas, aliased halo images.  A launch whose write goes through
   an aliased image or a replica never joins the window (a REDUCE is
   not such a write: rule 4).
   *One color* waives the rule for a read through an image or an
   explicit partition (:func:`_reads_in_place`): every partition then
   reaches the one shard, and such a reader is a barrier segment (rule
   3), which runs after every earlier member and before every later
   one.  So the coarse CG of a V-cycle, on one GPU, plans
   ``p = z + p*beta``, ``A @ p`` and ``p.q`` into one group (rule 5's
   one-color case adds the rest of the body).  Such a read is not
   recorded against its region either, so a later member of the group
   may write what it read: the one shard runs the read first.  A
   replica read is still checked -- its member is aligned, and
   :func:`segments` could run it ahead of the writer.
3. *Segments.*  An *aligned* member (tiles and replicas only) also
   keeps one tile boundary set: its own tiled requirements agree, and
   so does each tiled region it shares with the group's other aligned
   members.  Aligned members over one boundary set form a *segment*
   (:func:`segments`), the unit a generated nest merges.  A member that
   reaches a region through an image or an explicit partition, or
   reduces into one, is a segment of its own and a *barrier*: segments
   run in order of first member between barriers, never across one.
   Two segments between barriers share no written region (its one
   partition would make them one segment), so that reordering moves
   only independent launches.
4. *Region REDUCE members run at group end.*  A launch that reduces
   into a region through a tiling or any image (disjoint or aliased)
   joins the window as a barrier segment, but its kernel, which adds
   straight into the region's array, does not run in its shard: each
   shard queues it, and the runtime runs the queue after the group's
   last shard, in color order, then folds onto each requirement's
   owner tiling -- so every addition lands on what the earlier members
   wrote, in the eager order.  Hence no later member of the group may
   touch a region a member reduces into (its readers go to a later
   group), nor write a region a REDUCE member reads.  A launch that
   also has a scalar reduction, or reduces through a replica or an
   explicit partition, stays out of the window.  Scalar reductions
   fold differently: a group's shards return one partial per member
   reduction, and the runtime folds each value on its own, by its own
   op, in color order -- the value the launch run alone would give --
   over ONE allreduce tree for the group.  A scalar reduction joins
   only over read-only tiles and disjoint images: the norm of an array
   keyed by a ``pos`` image folds its shards' partials in color order
   run alone or fused, since the solver cuts it the same way either
   way.
5. *The reduction constraint.*  A reduction in the window hands out a
   pending future.  A launch that takes such a future as a scalar --
   directly or through lazy ``Future.combine``/``map`` arithmetic; its
   ``after`` edges name the producers by window position -- sits in a
   strictly later group than each of them: across shards the value is
   an allreduce of every shard's partial, which no shard has while the
   group runs.  *One color* is the exception.  There the group's one
   shard holds the whole value -- the fold of one partial is that
   partial -- so a one-color consumer may join its producer's group:
   the shard runs the producer, resolves its future from the partial
   (ready at the shard's finish, as a one-shard fold is), then runs the
   consumer.  Such a consumer *fences* the group's segments
   (:func:`segments`): every segment before it runs first, so no nest
   and no segment reorder crosses the edge, and it opens a segment
   that later aligned members join.  So the coarse CG of a V-cycle
   plans its whole body, ``{x+=, r-=, vdot, norm, p = z + p*beta,
   A @ p, p.q}``, as one group.
6. *Hoisting.*  A reduction writes nothing, so it may run earlier than
   issued: it joins the latest group *before* the current one that
   admits it, provided no launch in between writes a region it reads
   and rule 5 allows it; else the current group; else a new one.
   ``[x+=, r-=, vdot(r,z), p=z+p*beta, norm(r)]`` plans as
   ``{x+=, r-=, vdot, norm} | {p=}``: the norm shares the vdot's
   allreduce and no longer waits behind the p update.

The fused kernel replays each sub-launch's kernel, in issue order
within its segment, on per-shard sub-contexts — the same NumPy ops in
the same order per region and shard, so numerics are bitwise
identical.  Temporaries whose first
access in the group is WRITE_DISCARD and that are read again inside the
group are *elided*: their requirements are marked
:attr:`~repro.legion.task.Requirement.elide` and the runtime skips
instance allocation and staging for them (no coherence traffic, no halo
staging; the temporary never exists as a mapped instance).  A region a
barrier touches is never elided: its output is what the next group
reads.

Everything here is deterministic and depends only on window *structure*
(names, colors, privileges, partition boundaries and derivations,
which arguments share a region, reduction ops and future-dependence
edges), so plans are memoizable.  The runtime keys them -- with their
verdicts and nests -- by the window's fingerprint
(:func:`repro.legion.tracing.window_fingerprint`), which carries all of
that plus shapes and dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.legion.future import Future
from repro.legion.partition import Replicate, Tiling, derivation
from repro.legion.privilege import Privilege
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch

#: Fused task names longer than this are abbreviated (they appear in
#: traces and profiles; determinism matters, brevity helps).
MAX_FUSED_NAME = 96


@dataclass(frozen=True)
class Access:
    """One requirement of a summarized launch, structurally described."""

    region: object  # Region (kept for uid/name; compared by uid only)
    part_kind: str  # "tile" | "rep" | "image" | "other"
    # Tile boundaries, or an image's derivation (source regions by uid:
    # compared within one window only).
    boundaries: Optional[tuple]
    privilege: Privilege
    # Requirement name within the launch.  The dependence analyzer
    # (repro.analysis.depend) resolves Pointwise.expr loads/out against
    # it; "" (the default, for hand-built summaries) simply leaves the
    # kernel opaque.
    name: str = ""


@dataclass(frozen=True)
class LaunchSummary:
    """What the fusion planner needs to know about one launch."""

    name: str
    colors: int
    fusible: bool
    accesses: Tuple[Access, ...]
    # The launch's Pointwise marker (carrying the optional body IR the
    # dependence analyzer classifies).  None on hand-built summaries —
    # treated as an opaque kernel (task-fusible, never body-merged).
    pointwise: Optional[Pointwise] = None
    # The cross-shard op of a scalar reduction, else None.
    reduction: Optional[str] = None
    # Window positions of the reductions whose pending futures the
    # launch takes as scalars (directly or through lazy arithmetic).
    after: Tuple[int, ...] = ()
    # Reaches a region through an image or explicit partition, or
    # reduces into one: a segment of its own, which no segment is
    # reordered across.
    barrier: bool = False


@dataclass(frozen=True)
class GroupPlan:
    """One planned group: window indices + elided local region ids."""

    indices: Tuple[int, ...]
    elide: frozenset  # local region ids (see local_ids)

    @property
    def fused(self) -> bool:
        return len(self.indices) > 1


def summarize(
    name: str,
    colors: int,
    accesses: Iterable[Tuple[object, object, object, Privilege]],
    pointwise: Optional[Pointwise] = None,
    reduction: Optional[str] = None,
    after: Tuple[int, ...] = (),
) -> LaunchSummary:
    """Summarize a launch from ``(req_name, region, partition,
    privilege)`` tuples."""
    out: List[Access] = []
    # A scalar reduction is admitted over read-only tiles and disjoint
    # images alone, a write through a disjoint tiling or image alone, a
    # REDUCE through a tiling or any image (rule 4).
    reducing = reduction is not None
    ok = pointwise is not None
    for req_name, region, partition, privilege in accesses:
        if isinstance(partition, Tiling):
            kind, boundaries = "tile", partition.boundaries
            if reducing and privilege.writes:
                ok = False
        elif isinstance(partition, Replicate):
            kind, boundaries = "rep", None
            if reducing or privilege.writes:
                ok = False
        else:
            boundaries = derivation(partition)
            kind = "other" if boundaries is None else "image"
            if reducing:
                if privilege.writes or kind == "other" or not partition.is_disjoint():
                    ok = False
            elif privilege.writes and (
                kind == "other"
                or not (privilege is Privilege.REDUCE or partition.is_disjoint())
            ):
                ok = False
        out.append(Access(region, kind, boundaries, privilege, req_name))
    barrier = any(
        acc.part_kind in ("image", "other") or acc.privilege is Privilege.REDUCE
        for acc in out
    )
    return LaunchSummary(
        name, int(colors), ok, tuple(out), pointwise, reduction, after, barrier
    )


def summarize_launch(task: TaskLaunch) -> LaunchSummary:
    """Summarize a concrete :class:`TaskLaunch`."""
    return summarize(
        task.name,
        task.color_count,
        ((r.name, r.region, r.partition, r.privilege) for r in task.requirements),
        pointwise=task.pointwise,
        reduction=task.reduction,
        after=task.after,
    )


def fusible(task: TaskLaunch) -> bool:
    """Whether a launch may enter the deferred window at all."""
    return summarize_launch(task).fusible


def local_ids(summaries: Sequence[LaunchSummary]) -> Dict[int, int]:
    """Region uid -> first-occurrence index within the window.

    The renumbering is what makes plans structural: two windows that
    touch different regions in the same pattern get the same plan.
    """
    ids: Dict[int, int] = {}
    for summary in summaries:
        for acc in summary.accesses:
            uid = acc.region.uid
            if uid not in ids:
                ids[uid] = len(ids)
    return ids


def _reads_in_place(acc: Access, colors: int) -> bool:
    """Rule 2's one-color case: a read through an image or an explicit
    partition of a one-color launch, which its barrier segment runs in
    place on the group's one shard."""
    return (
        colors == 1
        and acc.privilege is Privilege.READ
        and acc.part_kind in ("image", "other")
    )


class _GroupState:
    """Mutable legality state of one group while the window is planned."""

    def __init__(self) -> None:
        self.indices: List[int] = []
        # A group that takes no further member: a launch that is not
        # fusible, run on its own.
        self.sealed = False
        self.colors: Optional[int] = None
        # Local region id -> the tile boundaries the group's aligned
        # members use for it (rule 3).
        self.boundaries: Dict[int, Tuple[int, ...]] = {}
        # Local region id -> every (kind, boundaries) partition the
        # group reaches it through (rule 2), one-color reads through an
        # image or explicit partition aside: the one shard runs them in
        # place, so no later write need match them.
        self.parts: Dict[int, set] = {}
        self.written: set = set()  # local region ids written in group
        # Rule 4: local region ids a member reduces into, and those a
        # reducing member reads -- both at the group's end.
        self.reduced: set = set()
        self.reduce_reads: set = set()

    def admits(self, summary: LaunchSummary, ids: Dict[int, int]) -> bool:
        if self.sealed:
            return False
        if self.colors is not None and summary.colors != self.colors:
            return False
        aligned = not summary.barrier
        own = None  # the one boundary set of an aligned launch's tiles
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if lid in self.reduced or (
                acc.privilege.writes and lid in self.reduce_reads
            ):
                return False
            if acc.privilege is Privilege.REDUCE:
                continue
            if aligned and acc.part_kind == "tile":
                if own is None:
                    own = acc.boundaries
                if acc.boundaries != own or self.boundaries.get(lid, own) != own:
                    return False
            if _reads_in_place(acc, summary.colors):
                continue
            if acc.privilege.writes or lid in self.written:
                part = (acc.part_kind, acc.boundaries)
                if any(seen != part for seen in self.parts.get(lid, ())):
                    return False
        return True

    def add(self, index: int, summary: LaunchSummary, ids: Dict[int, int]) -> None:
        self.indices.append(index)
        self.colors = summary.colors
        reduces = any(
            acc.privilege is Privilege.REDUCE for acc in summary.accesses
        )
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.privilege is Privilege.REDUCE:
                self.reduced.add(lid)
                self.written.add(lid)
                continue
            if reduces:
                self.reduce_reads.add(lid)
            if not summary.barrier and acc.part_kind == "tile":
                self.boundaries[lid] = acc.boundaries
            if not _reads_in_place(acc, summary.colors):
                self.parts.setdefault(lid, set()).add(
                    (acc.part_kind, acc.boundaries)
                )
            if acc.privilege.writes:
                self.written.add(lid)


def _elided(
    group: Sequence[int],
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
) -> frozenset:
    """Local ids of temporaries produced and consumed inside the group:
    first access WRITE_DISCARD, read again by a later sub-launch, never
    replicated and never touched by a barrier."""
    if len(group) <= 1:
        return frozenset()
    first: Dict[int, Tuple[int, Privilege]] = {}
    consumed: set = set()
    kept: set = set()
    for index in group:
        summary = summaries[index]
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if summary.barrier or acc.part_kind == "rep":
                kept.add(lid)
            if lid not in first:
                first[lid] = (index, acc.privilege)
            elif acc.privilege.reads and index != first[lid][0]:
                consumed.add(lid)
    return frozenset(
        lid
        for lid, (_idx, privilege) in first.items()
        if privilege is Privilege.WRITE_DISCARD
        and lid in consumed
        and lid not in kept
    )


def produced_reads(
    summaries: Sequence[LaunchSummary],
    indices: Sequence[int],
    ids: Dict[int, int],
) -> frozenset:
    """Reads a fused shard produces itself, as positions among the
    group's requirements (members in order, each's in order): a member
    reads rects an earlier member writes -- the same partition, as rule
    2 has every access to a written region -- and the shard runs the
    writer first, so the runtime stages nothing for the read.  At one
    color a tile is the whole region, so whatever partition a later
    member reads it through (rule 2's one-color case), the read is
    produced too.
    """
    produced = set()
    written: Dict[int, tuple] = {}
    position = 0
    for index in indices:
        writes = {}
        whole = summaries[index].colors == 1
        for acc in summaries[index].accesses:
            lid = ids[acc.region.uid]
            part = (acc.part_kind, acc.boundaries)
            if acc.privilege.reads and lid in written and (
                written[lid] == part or (whole and written[lid][0] == "tile")
            ):
                produced.add(position)
            if acc.privilege.writes:
                writes[lid] = part
            position += 1
        written.update(writes)
    return frozenset(produced)


def _hoist_target(
    groups: List[_GroupState],
    summary: LaunchSummary,
    ids: Dict[int, int],
    floor: int,
) -> Optional[int]:
    """The latest group before the last one that admits a reduction.

    A reduction writes nothing, so moving it ahead of launches that do
    not write what it reads changes no value: the walk goes back from
    the last group, stops at the first group in between that writes a
    region the reduction reads, and never passes ``floor`` (the group
    after its latest future producer).
    """
    reads = {ids[acc.region.uid] for acc in summary.accesses}
    for position in range(len(groups) - 2, floor - 1, -1):
        if not reads.isdisjoint(groups[position + 1].written):
            return None
        if groups[position].admits(summary, ids):
            return position
    return None


def _earliest_group(summary: LaunchSummary, group_of: Sequence[int]) -> int:
    """Rule 5: the first group a launch may join, given the groups of
    the reductions whose futures it takes.  That is the group after the
    latest of them, or at one color that group itself (``admits`` keeps
    a wider producer's group out by its colors)."""
    later = int(summary.colors != 1)
    return max((group_of[j] + later for j in summary.after), default=0)


def plan_window(summaries: Sequence[LaunchSummary]) -> List[GroupPlan]:
    """Partition a window into groups of compatible launches.

    Window members form maximal runs, as issued.  A reduction
    joins the latest earlier group it may hoist into
    (:func:`_hoist_target`), else the current run.  No launch sits
    before the group of a reduction whose future it takes, nor in it
    unless the launch has one color (rule 5).

    Deterministic and purely structural (see module docs), so callers
    may cache the result by the window's structure.
    """
    ids = local_ids(summaries)
    groups: List[_GroupState] = []
    group_of: List[int] = []  # window index -> position in groups
    for index, summary in enumerate(summaries):
        floor = _earliest_group(summary, group_of)
        last = len(groups) - 1
        target = None
        if summary.fusible:
            if summary.reduction is not None:
                target = _hoist_target(groups, summary, ids, floor)
            if (
                target is None
                and last >= floor
                and groups[last].admits(summary, ids)
            ):
                target = last
        if target is None:
            target = last + 1
            state = _GroupState()
            groups.append(state)
            # Not fusible, or internally inconsistent (an aligned launch
            # of mixed boundaries): emitted on its own rather than
            # rejecting the window.
            state.sealed = not (summary.fusible and state.admits(summary, ids))
        groups[target].add(index, summary, ids)
        group_of.append(target)
    plans = []
    for state in groups:
        indices = tuple(state.indices)
        plans.append(GroupPlan(indices, _elided(indices, summaries, ids)))
    return plans


def segments(
    summaries: Sequence[LaunchSummary], indices: Sequence[int]
) -> List[Tuple[int, ...]]:
    """A group's members by tile-boundary set, in order of first member
    between barriers; each barrier a segment of its own, in place.

    Two segments between barriers share no written region (rules 2
    and 3), so running them one after the other instead of interleaved
    as issued reorders independent launches only.  A member that takes
    the future of a reduction in the group (rule 5's one-color case) is
    a fence: the segments before it run first, and it opens the next.
    """
    out: List[Tuple[int, ...]] = []
    by_boundaries: Dict[Optional[Tuple[int, ...]], List[int]] = {}
    group = set(indices)
    for index in indices:
        summary = summaries[index]
        if summary.barrier or not group.isdisjoint(summary.after):
            out.extend(tuple(members) for members in by_boundaries.values())
            by_boundaries = {}
            if summary.barrier:
                out.append((index,))
                continue
        boundaries = next(
            (
                acc.boundaries for acc in summary.accesses
                if acc.part_kind == "tile"
            ),
            None,
        )
        by_boundaries.setdefault(boundaries, []).append(index)
    out.extend(tuple(members) for members in by_boundaries.values())
    return out


def fused_name(names: Sequence[str]) -> str:
    """The deterministic display name of a fused group."""
    joined = "+".join(names)
    if len(joined) > MAX_FUSED_NAME:
        joined = joined[: MAX_FUSED_NAME - 1] + "…"
    return f"fused{{{len(names)}}}:{joined}"


def fuse(
    group: Sequence[TaskLaunch],
    elide_uids: frozenset = frozenset(),
    parts: Sequence[Tuple[Sequence[int], object]] = (),
    produced: frozenset = frozenset(),
) -> TaskLaunch:
    """Merge a planned group into one launch.

    Requirement and scalar names are mangled ``"<i>.<name>"`` by
    sub-launch position; the fused kernel points each sub-launch's own
    :class:`ShardContext` at the shard and runs the sub-kernels in
    issue order, so the arithmetic is the exact unfused sequence.  The
    requirements at the positions in ``produced`` (counted across the
    members, :func:`produced_reads`) are marked
    :attr:`~repro.legion.task.Requirement.produced`.  It
    returns the partials of the member reductions, in issue order; the
    launch carries their ops and pending futures as tuples
    (``Runtime._reduce`` folds each value on its own).

    At one color a member may take the future of a member reduction
    before it (rule 5): the launch's ``settles`` names those scalar
    keys, each member reduction's future is then resolved in the shard
    as soon as its partial exists (:func:`_settle`), and the members
    and nests after it read the value from ``ctx.scalars``.

    ``parts`` says how the kernel runs when not as one replay: one
    ``(positions, nest)`` per segment of the group (:func:`segments`,
    as positions in ``group``), in order.  A segment with a ``nest`` (a
    :class:`repro.distal.codegen.NestSpec` generated for a merge-safe
    segment — see :mod:`repro.analysis.depend`) runs the nest's single
    generated kernel under one combined cost entry; one without
    replays its members.  Requirements, scalars and the fused name are
    identical either way, so mapping, coherence and the event log
    cannot tell the forms apart.  A dry run calls only the launch's
    ``structure`` kernel: the replay of the members that declare one.
    """
    if len(group) == 1 and not elide_uids:
        return group[0]
    requirements: List[Requirement] = []
    scalars: Dict[str, object] = {}
    position = 0
    for i, task in enumerate(group):
        trailing = _reduces(task)
        for req in task.requirements:
            requirements.append(
                Requirement(
                    f"{i}.{req.name}", req.region, req.partition,
                    req.privilege, elide=req.region.uid in elide_uids,
                    produced=position in produced, owner=req.owner,
                    trailing=trailing,
                )
            )
            position += 1
        for key, value in task.scalars.items():
            scalars[f"{i}.{key}"] = value
    settles = _in_shard(group, scalars, requirements)
    runs = [
        (nest.kernel, nest.cost) if nest is not None
        else _replay(group, positions, settles)
        for positions, nest in parts or [(range(len(group)), None)]
    ]
    kernel, cost = (
        runs[0] if len(runs) == 1 else _chain(group, parts, runs, settles)
    )
    ops: List[str] = []
    for task in group:
        ops.extend(task.pointwise.ops if task.pointwise else (task.name,))
    reducing = [task for task in group if task.reduction is not None]
    shaping = [i for i, task in enumerate(group) if task.structure is not None]
    return TaskLaunch(
        name=fused_name([task.name for task in group]),
        requirements=requirements,
        kernel=kernel,
        cost_fn=cost,
        scalars=scalars,
        reduction=tuple(task.reduction for task in reducing) or None,
        pointwise=Pointwise(tuple(ops)),
        future=tuple(task.future for task in reducing) or None,
        structure=_replay(group, shaping)[0] if shaping else None,
        settles=settles,
    )


def _in_shard(
    group: Sequence[TaskLaunch],
    scalars: Dict[str, object],
    requirements: Sequence[Requirement],
) -> frozenset:
    """Rule 5's one-color case: the keys of the fused ``scalars`` whose
    futures wait on a member reduction, which the group's one shard
    resolves before the member that takes them runs.  Over two or more
    colors the planner keeps such a consumer out of the group, so there
    are none."""
    owed = {task.future for task in group if task.reduction is not None}
    if not owed:
        return frozenset()
    keys = frozenset(
        key for key, value in scalars.items()
        if type(value) is Future and value.roots is not None
        and not owed.isdisjoint(value.roots)
    )
    if keys and any(req.partition.color_count != 1 for req in requirements):
        return frozenset()
    return keys


def _reduces(task: TaskLaunch) -> bool:
    """Whether a launch reduces into a region (rule 4)."""
    return any(req.privilege is Privilege.REDUCE for req in task.requirements)


def _replay(
    group: Sequence[TaskLaunch],
    positions: Sequence[int],
    settles: frozenset = frozenset(),
):
    """The (kernel, cost) pair that replays the sub-launches at
    ``positions`` in issue order, each on a :class:`ShardContext` under
    its own names.  A member that reduces into a region is not run: the
    shard queues it, on a copy of its sub-context, on the context's
    ``trailing`` list, which the runtime runs after the last shard.

    With ``settles`` (rule 5's one-color case) each member reduction's
    future is settled from its partial (:func:`_settle`), and a member
    reads its scalars named there from ``ctx.scalars`` when it runs."""
    subs = [
        (
            task,
            [(req.name, f"{i}.{req.name}") for req in task.requirements],
            [(key, f"{i}.{key}") for key in task.scalars],
            {req.name: req.privilege for req in task.requirements},
            _reduces(task),
            [
                (key, f"{i}.{key}") for key in task.scalars
                if f"{i}.{key}" in settles
            ],
        )
        for i, task in ((i, group[i]) for i in positions)
    ]

    # Every shard of one execution gets the same arrays and scalars (the
    # same ``ctx.scalars`` dict), and the runtime costs a shard, then
    # runs it, on one context: each member keeps one sub-context per
    # execution, pointed at a shard's color and rects once per shard.
    # ctx.scalars, ctx, [(task, names, sub, late, refresh)]
    state: list = [None, None, []]

    def sub_contexts(ctx: ShardContext) -> list:
        made = state[2]
        if state[1] is ctx:
            return made
        if state[0] is not ctx.scalars:
            arrays, values = ctx.arrays, ctx.scalars
            made = state[2] = [
                (task, names, ShardContext(
                    ctx.color, ctx.colors,
                    {own: arrays[m] for own, m in names}, {},
                    {own: values[m] for own, m in keys},
                    ctx.config, privileges,
                ), late, refresh)
                for task, names, keys, privileges, late, refresh in subs
            ]
            state[0] = values
        state[1] = ctx
        color, rects = ctx.color, ctx.rects
        for _task, names, sub, _late, _refresh in made:
            sub.color = color
            own_rects = sub.rects
            for own, m in names:
                own_rects[own] = rects[m]
        return made

    def kernel(ctx: ShardContext) -> list:
        partials = []
        for task, _names, sub, late, refresh in sub_contexts(ctx):
            for own, m in refresh:
                sub.scalars[own] = _settled(ctx.scalars[m])
            if late:
                ctx.trailing.append((task.kernel, ShardContext(
                    sub.color, sub.colors, sub.arrays, dict(sub.rects),
                    sub.scalars, sub.config, sub.privileges,
                )))
                continue
            partial = task.kernel(sub)
            if task.reduction is not None:
                partials.append(partial)
                if settles:
                    _settle(task.future, partial, ctx, settles)
        return partials

    def cost(ctx: ShardContext) -> tuple:
        flops = 0.0
        nbytes = 0.0
        for task, _names, sub, _late, _refresh in sub_contexts(ctx):
            f, b = task.cost_fn(sub)
            flops += float(f)
            nbytes += float(b)
        return flops, nbytes

    return kernel, cost


def _settle(future: Future, partial, ctx: ShardContext, settles) -> None:
    """Rule 5's one-color case: resolve a member reduction's future from
    its one partial, which is its fold, ready at the shard's finish --
    what ``Runtime._reduce`` would resolve it to after the shard -- and
    put the values that completes into ``ctx.scalars``, where the
    members and nests after it read them."""
    if future.roots is None:  # its segment's replay settled it
        return
    future.resolve(partial, ctx.finish)
    scalars = ctx.scalars
    for key in settles:
        value = scalars[key]
        if type(value) is Future and value.roots is None:
            scalars[key] = value.value


def _settled(value):
    """A scalar a member takes, which an earlier member of its shard
    must have settled by now."""
    if type(value) is Future:
        raise RuntimeError(
            "a fused member runs before the reduction whose future it "
            "takes: only a one-color group resolves one in its shard"
        )
    return value


def _chain(group: Sequence[TaskLaunch], parts, runs, settles: frozenset):
    """The (kernel, cost) pair of a group of several segments: their
    ``runs`` one after the other, costs summed.  Each run returns its
    own reductions' partials; the group's go back in issue order.  With
    ``settles``, each is settled (:func:`_settle`) before the next run."""
    reducing = [i for i, task in enumerate(group) if task.reduction is not None]
    slot = {position: k for k, position in enumerate(reducing)}
    slots = [
        [slot[i] for i in positions if i in slot] for positions, _nest in parts
    ]

    def kernel(ctx: ShardContext) -> list:
        partials = [None] * len(reducing)
        for (run, _cost), where in zip(runs, slots):
            for k, partial in zip(where, run(ctx) or ()):
                partials[k] = partial
                if settles:
                    _settle(group[reducing[k]].future, partial, ctx, settles)
        return partials

    def cost(ctx: ShardContext) -> tuple:
        flops = 0.0
        nbytes = 0.0
        for _run, part_cost in runs:
            f, b = part_cost(ctx)
            flops += float(f)
            nbytes += float(b)
        return flops, nbytes

    return kernel, cost
