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

1. Launches tagged :class:`~repro.legion.task.Pointwise` participate:
   element-wise ones, and scalar reductions whose operands are all
   read-only tilings (the marker says the kernel touches exactly its
   shard's rects; ``numeric.reductions`` sets it).  Any other launch
   runs at once, ordered against the window by a *hazard test*
   (``Runtime.pass_window``): the window is flushed first only if the
   launch touches a region a member writes, writes (REDUCE included) a
   region a member touches, or takes a scalar a member reduction still
   owes.  Otherwise it *passes*: it runs ahead of the members, which
   stay deferred -- independent launches reordered, so no value moves.
2. Within a group every launch has the same color count, and alignment
   is *per region*: a launch joins when each tiled region it shares
   with the group has the tile boundaries the group already uses for
   it (its own tiled requirements agreeing among themselves: shard *i*
   touches the same rows of each).  Members over different boundary
   sets therefore share no tiled region; they are the group's
   *segments* (:func:`segments`), which the fused kernel runs one
   after the other, in order of first member.
3. Writes go through tilings only, and a replicated (broadcast) read is
   admitted only for regions no launch in the group writes — otherwise
   per-shard sub-launch ordering would observe partial updates and the
   fused result would not be bitwise identical to the unfused chain.
4. No REDUCE privileges (folds have cross-shard structure).  Scalar
   reductions have none: a group's shards return one partial per member
   reduction, and the runtime folds each value on its own, by its own
   op, in color order -- the value the launch run alone would give --
   over ONE allreduce tree for the group.
5. *The reduction constraint.*  A reduction in the window hands out a
   pending future.  A launch that takes such a future as a scalar --
   directly or through lazy ``Future.combine``/``map`` arithmetic; its
   ``after`` edges name the producers by window position -- sits in a
   strictly later group than each of them.
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
staging; the temporary never exists as a mapped instance).

Everything here is deterministic and depends only on window *structure*
(names, colors, privileges, partition boundaries, which arguments
share a region, reduction ops and future-dependence edges), so plans
are memoizable.  The runtime keys them -- with their verdicts and
nests -- by the window's fingerprint
(:func:`repro.legion.tracing.window_fingerprint`), which carries all of
that plus shapes and dtypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.legion.partition import Replicate, Tiling
from repro.legion.privilege import Privilege
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch

#: Fused task names longer than this are abbreviated (they appear in
#: traces and profiles; determinism matters, brevity helps).
MAX_FUSED_NAME = 96


@dataclass(frozen=True)
class Access:
    """One requirement of a summarized launch, structurally described."""

    region: object  # Region (kept for uid/name; compared by uid only)
    part_kind: str  # "tile" | "rep" | "other"
    boundaries: Optional[Tuple[int, ...]]
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
    # A reduction is admitted over read-only tiles alone.
    reducing = reduction is not None
    ok = pointwise is not None
    for req_name, region, partition, privilege in accesses:
        if isinstance(partition, Tiling):
            out.append(
                Access(region, "tile", partition.boundaries, privilege, req_name)
            )
            if reducing and privilege.writes:
                ok = False
        elif isinstance(partition, Replicate):
            out.append(Access(region, "rep", None, privilege, req_name))
            if reducing or privilege.writes:
                ok = False
        else:
            out.append(Access(region, "other", None, privilege, req_name))
            ok = False
    return LaunchSummary(
        name, int(colors), ok, tuple(out), pointwise, reduction, after
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


class _GroupState:
    """Mutable legality state of one group while the window is planned."""

    def __init__(self) -> None:
        self.indices: List[int] = []
        # A group that takes no further member: a launch that is not
        # fusible, run on its own.
        self.sealed = False
        self.colors: Optional[int] = None
        # Local region id -> the tile boundaries the group uses for it.
        self.boundaries: Dict[int, Tuple[int, ...]] = {}
        self.written: set = set()  # local region ids written in group
        self.rep_read: set = set()  # local region ids replicate-read

    def admits(self, summary: LaunchSummary, ids: Dict[int, int]) -> bool:
        if self.sealed:
            return False
        if self.colors is not None and summary.colors != self.colors:
            return False
        own = None  # the one boundary set of the launch's own tiles
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "tile":
                if own is None:
                    own = acc.boundaries
                if acc.boundaries != own or self.boundaries.get(lid, own) != own:
                    return False
            elif acc.part_kind == "rep":
                if lid in self.written:
                    return False
            else:
                return False
            if acc.privilege.writes and lid in self.rep_read:
                return False
        return True

    def add(self, index: int, summary: LaunchSummary, ids: Dict[int, int]) -> None:
        self.indices.append(index)
        self.colors = summary.colors
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "tile":
                self.boundaries[lid] = acc.boundaries
            elif acc.part_kind == "rep":
                self.rep_read.add(lid)
            if acc.privilege.writes:
                self.written.add(lid)


def _elided(
    group: Sequence[int],
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
) -> frozenset:
    """Local ids of temporaries produced and consumed inside the group:
    first access WRITE_DISCARD, read again by a later sub-launch, never
    replicated."""
    if len(group) <= 1:
        return frozenset()
    first: Dict[int, Tuple[int, Privilege]] = {}
    consumed: set = set()
    replicated: set = set()
    for index in group:
        for acc in summaries[index].accesses:
            lid = ids[acc.region.uid]
            if acc.part_kind == "rep":
                replicated.add(lid)
            if lid not in first:
                first[lid] = (index, acc.privilege)
            elif acc.privilege.reads and index != first[lid][0]:
                consumed.add(lid)
    return frozenset(
        lid
        for lid, (_idx, privilege) in first.items()
        if privilege is Privilege.WRITE_DISCARD
        and lid in consumed
        and lid not in replicated
    )


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


def plan_window(summaries: Sequence[LaunchSummary]) -> List[GroupPlan]:
    """Partition a window into groups of compatible launches.

    Element-wise launches form maximal runs, as issued.  A reduction
    joins the latest earlier group it may hoist into
    (:func:`_hoist_target`), else the current run.  No launch sits in
    or before the group of a reduction whose future it takes.

    Deterministic and purely structural (see module docs), so callers
    may cache the result by the window's structure.
    """
    ids = local_ids(summaries)
    groups: List[_GroupState] = []
    group_of: List[int] = []  # window index -> position in groups
    for index, summary in enumerate(summaries):
        floor = max((group_of[j] + 1 for j in summary.after), default=0)
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
            # Not fusible, or internally inconsistent (mixed boundaries
            # within one launch): emitted on its own rather than
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
    """A group's members by tile-boundary set, in order of first member.

    A planned group aligns per region (rule 2), so two segments share
    no tiled region -- only replicated operands, which nothing in the
    group writes (rule 3): running the segments one after the other
    instead of interleaved as issued reorders independent launches.
    """
    by_boundaries: Dict[Optional[Tuple[int, ...]], List[int]] = {}
    for index in indices:
        boundaries = next(
            (
                acc.boundaries for acc in summaries[index].accesses
                if acc.part_kind == "tile"
            ),
            None,
        )
        by_boundaries.setdefault(boundaries, []).append(index)
    return [tuple(members) for members in by_boundaries.values()]


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
) -> TaskLaunch:
    """Merge a planned group into one launch.

    Requirement and scalar names are mangled ``"<i>.<name>"`` by
    sub-launch position; the fused kernel points each sub-launch's own
    :class:`ShardContext` at the shard and runs the sub-kernels in
    issue order, so the arithmetic is the exact unfused sequence.  It
    returns the partials of the member reductions, in issue order; the
    launch carries their ops and pending futures as tuples
    (``Runtime._reduce`` folds each value on its own).

    ``parts`` says how the kernel runs when not as one replay: one
    ``(positions, nest)`` per segment of the group (:func:`segments`,
    as positions in ``group``), in order.  A segment with a ``nest`` (a
    :class:`repro.distal.codegen.NestSpec` generated for a merge-safe
    segment — see :mod:`repro.analysis.depend`) runs the nest's single
    generated kernel under one combined cost entry; one without
    replays its members.  Requirements, scalars and the fused name are
    identical either way, so mapping, coherence and the event log
    cannot tell the forms apart.
    """
    if len(group) == 1 and not elide_uids:
        return group[0]
    requirements: List[Requirement] = []
    scalars: Dict[str, object] = {}
    for i, task in enumerate(group):
        for req in task.requirements:
            requirements.append(
                Requirement(
                    f"{i}.{req.name}", req.region, req.partition,
                    req.privilege, elide=req.region.uid in elide_uids,
                )
            )
        for key, value in task.scalars.items():
            scalars[f"{i}.{key}"] = value
    runs = [
        (nest.kernel, nest.cost) if nest is not None
        else _replay(group, positions)
        for positions, nest in parts or [(range(len(group)), None)]
    ]
    kernel, cost = runs[0] if len(runs) == 1 else _chain(group, parts, runs)
    ops: List[str] = []
    for task in group:
        ops.extend(task.pointwise.ops if task.pointwise else (task.name,))
    reducing = [task for task in group if task.reduction is not None]
    return TaskLaunch(
        name=fused_name([task.name for task in group]),
        requirements=requirements,
        kernel=kernel,
        cost_fn=cost,
        scalars=scalars,
        reduction=tuple(task.reduction for task in reducing) or None,
        pointwise=Pointwise(tuple(ops)),
        future=tuple(task.future for task in reducing) or None,
    )


def _replay(group: Sequence[TaskLaunch], positions: Sequence[int]):
    """The (kernel, cost) pair that replays the sub-launches at
    ``positions`` in issue order, each on a :class:`ShardContext` under
    its own names."""
    subs = [
        (
            task,
            [(req.name, f"{i}.{req.name}") for req in task.requirements],
            [(key, f"{i}.{key}") for key in task.scalars],
            {req.name: req.privilege for req in task.requirements},
        )
        for i, task in ((i, group[i]) for i in positions)
    ]

    def sub_contexts(ctx: ShardContext):
        arrays, rects, values = ctx.arrays, ctx.rects, ctx.scalars
        for task, names, keys, privileges in subs:
            yield task, ShardContext(
                ctx.color, ctx.colors,
                {own: arrays[m] for own, m in names},
                {own: rects[m] for own, m in names},
                {own: values[m] for own, m in keys},
                ctx.config, privileges,
            )

    def kernel(ctx: ShardContext) -> list:
        partials = []
        for task, sub in sub_contexts(ctx):
            partial = task.kernel(sub)
            if task.reduction is not None:
                partials.append(partial)
        return partials

    def cost(ctx: ShardContext) -> tuple:
        flops = 0.0
        nbytes = 0.0
        for task, sub in sub_contexts(ctx):
            f, b = task.cost_fn(sub)
            flops += float(f)
            nbytes += float(b)
        return flops, nbytes

    return kernel, cost


def _chain(group: Sequence[TaskLaunch], parts, runs):
    """The (kernel, cost) pair of a group of several segments: their
    ``runs`` one after the other, costs summed.  Each run returns its
    own reductions' partials; the group's go back in issue order."""
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
