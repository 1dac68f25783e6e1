"""Kernel-fusion legality: dependence analysis over fused-group bodies.

PR 3's deferred window merges compatible element-wise launches into one
*task* but still replays every sub-kernel body in issue order — one
launch overhead is paid, yet the intermediates are written and re-read
and the cost model charges per kernel.  "Composing Distributed
Computations Through Task and Kernel Fusion" (Yadav et al.) shows the
remaining win comes from merging the kernel *bodies*; "Data-Centric
Python" (Ziogas et al.) shows how far generated NumPy-level loop nests
can be pushed.  Merging bodies is only safe when a static analysis
proves the combined nest is bitwise-identical to issue-order replay.

This module is that analysis.  It operates on the same
:class:`~repro.legion.fusion.LaunchSummary` sequences the fusion
planner consumes — names, privileges, partition boundaries, which
arguments share a region — plus each launch's body IR: the postfix
:attr:`~repro.legion.task.Pointwise.expr` programs the ufunc/lazy
layers attach (ops resolving through :mod:`repro.numeric.optable`) and
the DISTAL :class:`~repro.distal.ir.Assignment` statements generated
kernels carry.  From a fused group's accesses it builds per-group
def-use chains and region-overlap facts, then classifies the group:

* **merge-safe** — a single combined loop nest (one generated kernel,
  one cost entry, intermediates as in-nest temporaries; see
  :func:`repro.distal.codegen.generate_nest`) is provably
  bitwise-identical to issue-order replay; or
* **replay-only** — with a machine-readable reason (:data:`REASONS`).

Legality rules (all must hold for merge-safe):

1.  *Known bodies only.*  Every sub-launch carries a well-formed body
    IR whose ops resolve through the shared op table — the nest then
    runs the exact same NumPy callables in the exact same order as
    replay.  Hand-built kernels, ``clip``/``astype``/``where`` lambdas
    and malformed programs are ``opaque-kernel``.
2.  *No reduction reordering.*  A body carrying a DISTAL statement
    with reduction variables (index vars appearing only on the RHS)
    accumulates in a loop order the combined nest would not preserve:
    ``reduction-reorder``.
3.  *No replicated operands.*  A broadcast (whole-region) operand is
    shape-incompatible with a tile-sized nest variable:
    ``replicated-operand``.
4.  *Compatible iteration spaces.*  Every launch has the same color
    count, so one fused shard runs every member's shard:
    ``iteration-space-mismatch``.  (The window planner already
    enforces this for its own groups; direct callers may classify
    hand-built ones.)  Tile boundaries need not agree across the group:
    the planner aligns a group per region, and :func:`classify` splits
    it into *segments* by boundary set
    (:func:`repro.legion.fusion.segments`), applies rules 1-3, 5 and 6
    to each segment on its own, and reports them on
    :attr:`Verdict.segments`.  Segments share no tiled region, so each
    merge-safe one becomes a nest of its own and the fused kernel runs
    nests and replays one after the other, in order of first member.
    A group none of whose segments has two members has no body to
    merge: ``one-launch-segments``.
5.  *No read-after-write through a non-elided region.*  A value
    flowing between sub-launches through a region that stays mapped
    (not elided) is externally visible between the two kernels; the
    nest must keep it an instance-backed array, which defeats the
    one-cost-entry merged model: ``raw-through-unelided-region``.
    RAW through *elided* temporaries is the merge-safe case — the
    value becomes an in-nest variable.  WAR and WAW need no edge
    restrictions: nest statements execute in issue order over whole
    shard rects, exactly like replay.
6.  *Reductions run as the nest's epilogue.*  A scalar reduction in the
    group (:mod:`repro.legion.fusion` admits read-only ones) is no nest
    statement: the nest runs the element-wise members, then each
    reduction's per-shard partial (``optable.PARTIALS``) over views of
    what the nest stored, in issue order.  That is the issue-order
    result only when no element-wise member issued *after* a reduction
    writes a region it reads: ``write-after-reduction``.  Rules 2-5
    apply to the element-wise members alone (a reduction reading an
    in-group write reads it from the region, so it is no rule-5 edge,
    and a temporary it reads is always stored); rule 1 applies to the
    reductions as well.

The analysis is purely structural — it reads only summaries, never the
runtime — so its verdicts are cached per window signature.  The advisor
does not re-run it: ``Advice.fusion_groups`` is the ``fusion_log`` of a
dry run, and its merge lints quote the verdicts that run's flushes kept
on their groups.

For merge-safe groups executed by the runtime,
:func:`build_nest_plan` lowers the concrete
:class:`~repro.legion.task.TaskLaunch` group into a :class:`NestPlan`
— programs with loads resolved to in-nest variables or external views,
per-statement output dtypes and store decisions, deduplicated
read/write traffic lists — which
:func:`repro.distal.codegen.generate_nest` turns into ONE exec'd
NumPy source per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.legion.fusion import GroupPlan, LaunchSummary, segments
from repro.legion.privilege import Privilege
from repro.legion.task import Pointwise, TaskLaunch
from repro.numeric import optable

#: Machine-readable replay-only reasons, with the rule each encodes.
REASONS: Dict[str, str] = {
    "disabled": (
        "kernel fusion is off (RuntimeConfig.kernel_fusion=False); the "
        "group replays sub-kernels in issue order"
    ),
    "opaque-kernel": (
        "a sub-launch has no (or a malformed) body IR — hand-built "
        "kernels, clip/astype/where lambdas — so the nest cannot prove "
        "it runs the same callables in the same order"
    ),
    "reduction-reorder": (
        "a sub-launch's DISTAL statement carries reduction variables; "
        "a combined nest would reorder its accumulation"
    ),
    "replicated-operand": (
        "a sub-launch reads a replicated (whole-region) operand, which "
        "is shape-incompatible with a tile-sized nest variable"
    ),
    "iteration-space-mismatch": (
        "sub-launches disagree on color counts, so no fused shard runs "
        "one shard of each"
    ),
    "one-launch-segments": (
        "every sub-launch iterates tile boundaries of its own (the group "
        "aligns per region, over disjoint regions), so no two bodies "
        "share a loop nest"
    ),
    "raw-through-unelided-region": (
        "a value flows between sub-launches through a region that "
        "stays mapped (not elided) — externally visible between the "
        "two kernels"
    ),
    "write-after-reduction": (
        "an element-wise sub-launch issued after an in-group scalar "
        "reduction writes a region the reduction reads, so the "
        "reduction cannot run as the nest's epilogue"
    ),
}

#: Program step kinds a well-formed Pointwise.expr may contain.
_STEP_KINDS = ("load", "scalar", "un", "bin")


@dataclass(frozen=True)
class DependEdge:
    """One def-use fact inside a fused group.

    ``kind`` is ``"raw"`` (read-after-write), ``"war"``
    (write-after-read) or ``"waw"`` (write-after-write); producer and
    consumer are (window-local sub-launch position, launch name);
    ``elided`` says whether the region carrying the edge is an elided
    in-group temporary.
    """

    kind: str
    lid: int  # window-local region id (fusion.local_ids)
    region: str  # region display name ("" when unnamed)
    producer: Tuple[int, str]
    consumer: Tuple[int, str]
    elided: bool

    def describe(self) -> str:
        """Human-readable edge, for lint messages."""
        name = self.region or f"region#{self.lid}"
        return (
            f"{self.kind.upper()} on {name}: "
            f"{self.producer[1]}[{self.producer[0]}] -> "
            f"{self.consumer[1]}[{self.consumer[0]}]"
        )


@dataclass(frozen=True)
class Verdict:
    """The classification of one :class:`GroupPlan`.

    ``merge_safe`` groups may execute as a single combined loop nest;
    otherwise ``reason`` names the blocking rule (a :data:`REASONS`
    key, or ``None`` for single-launch groups where merging is moot)
    and ``detail`` pinpoints the blocking launch or dependence edge.
    ``edges`` holds every def-use fact found, blocking or not.
    """

    merge_safe: bool
    reason: Optional[str]
    detail: str
    edges: Tuple[DependEdge, ...] = ()
    # A group over several tile-boundary sets: the window indices of
    # each segment with the segment's own verdict, in order of first
    # member.  The group is then merge-safe when a segment is and none
    # is blocked; a blocked group still runs its merge-safe segments as
    # nests.  Empty for a group of one segment (the verdict is its own).
    segments: Tuple[Tuple[Tuple[int, ...], "Verdict"], ...] = ()

    @property
    def blocked(self) -> bool:
        """True when a fused group cannot be body-merged."""
        return not self.merge_safe and self.reason is not None


def kernel_ir(
    summary: LaunchSummary,
) -> Tuple[Optional[Tuple[Tuple[str, str], ...]], Optional[str], str]:
    """Validate one launch's body IR: ``(program, out, problem)``.

    Returns the postfix program and output requirement name when the
    IR is well-formed (``problem == ""``): every step kind is known,
    loads name declared accesses, un/bin ops resolve through the op
    table, stack discipline yields exactly one value, and ``out``
    names a written access.  A scalar reduction's program is its
    operand loads followed by ``("part", name)`` with ``name`` in
    ``optable.PARTIALS``, and its ``out`` is None.  Otherwise
    ``(None, None, problem)`` with a description — the launch is an
    opaque kernel.
    """
    pw = summary.pointwise
    if pw is None:
        return None, None, f"launch {summary.name!r} has no Pointwise marker"
    if pw.expr is None or (pw.out is None and summary.reduction is None):
        ops = "+".join(pw.ops) or summary.name
        return None, None, f"kernel {ops!r} exposes no body IR"
    by_name = {acc.name: acc for acc in summary.accesses}
    program = pw.expr
    part = None
    if summary.reduction is not None:
        # A reduction's program ends in its per-shard partial and
        # stores nothing.
        if not program or program[-1][0] != "part" or pw.out is not None:
            return None, None, (
                f"reduction {summary.name!r}: IR does not end in a partial"
            )
        part = program[-1][1]
        if part not in optable.PARTIALS:
            return None, None, (
                f"reduction {summary.name!r}: unknown partial {part!r}"
            )
        program = program[:-1]
    else:
        out_acc = by_name.get(pw.out)
        if out_acc is None or not out_acc.privilege.writes:
            return None, None, (
                f"launch {summary.name!r}: IR output {pw.out!r} is not a "
                f"written region argument"
            )
    depth = 0
    for step in program:
        if (
            not isinstance(step, tuple)
            or len(step) != 2
            or step[0] not in _STEP_KINDS
        ):
            return None, None, (
                f"launch {summary.name!r}: malformed IR step {step!r}"
            )
        kind, arg = step
        if kind == "load":
            if arg not in by_name:
                return None, None, (
                    f"launch {summary.name!r}: IR loads unknown "
                    f"argument {arg!r}"
                )
            depth += 1
        elif kind == "scalar":
            depth += 1
        elif kind == "un":
            if not optable.is_unop(arg) or depth < 1:
                return None, None, (
                    f"launch {summary.name!r}: unknown or misplaced "
                    f"unary op {arg!r}"
                )
        else:  # bin
            if not optable.is_binop(arg) or depth < 2:
                return None, None, (
                    f"launch {summary.name!r}: unknown or misplaced "
                    f"binary op {arg!r}"
                )
            depth -= 1
    if part is not None:
        # The partial consumes every loaded view.
        if depth < 1 or any(kind != "load" for kind, _ in program):
            return None, None, (
                f"reduction {summary.name!r}: partial {part!r} takes "
                f"operand views only"
            )
        return pw.expr, None, ""
    if depth != 1:
        return None, None, (
            f"launch {summary.name!r}: IR leaves {depth} values on the "
            f"stack (expected 1)"
        )
    return pw.expr, pw.out, ""


def classify_statement(statement) -> Optional[str]:
    """The replay-only reason a DISTAL statement imposes, or ``None``.

    A statement with reduction variables (index vars appearing only on
    the RHS, e.g. ``j`` in ``y(i)=A(i,j)*x(j)``) accumulates across an
    inner loop whose order a combined nest would not preserve —
    ``"reduction-reorder"``.  Pure element-wise statements
    (``y(i)=a(i)*b(i)``) impose nothing.
    """
    if statement is None:
        return None
    reduction_vars = getattr(statement, "reduction_vars", None)
    if reduction_vars:
        return "reduction-reorder"
    return None


def def_use(
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
    indices: Sequence[int],
) -> Tuple[DependEdge, ...]:
    """Every RAW/WAR/WAW fact between distinct sub-launches of a group.

    Edges are region-granular (the runtime's aliasing unit): two
    requirements alias exactly when they share a region uid.  Edges
    within one sub-launch (in-place updates) are not dependences — a
    statement's reads complete before its write, by NumPy assignment
    semantics, in both the replay and the nest.
    """
    edges: List[DependEdge] = []
    last_write: Dict[int, Tuple[int, int, str]] = {}  # lid -> (pos, idx, name)
    readers: Dict[int, List[Tuple[int, int, str]]] = {}
    for pos, index in enumerate(indices):
        summary = summaries[index]
        seen_here: set = set()
        for acc in summary.accesses:
            lid = ids[acc.region.uid]
            rname = getattr(acc.region, "name", "") or ""
            if acc.privilege.reads:
                writer = last_write.get(lid)
                if writer is not None and writer[0] != pos:
                    edges.append(
                        DependEdge(
                            "raw", lid, rname,
                            (writer[0], writer[2]),
                            (pos, summary.name),
                            False,  # elision patched by classify()
                        )
                    )
                readers.setdefault(lid, []).append((pos, index, summary.name))
            if acc.privilege.writes:
                prev = last_write.get(lid)
                if prev is not None and prev[0] != pos:
                    edges.append(
                        DependEdge(
                            "waw", lid, rname,
                            (prev[0], prev[2]), (pos, summary.name), False,
                        )
                    )
                for rpos, _ridx, rnm in readers.get(lid, ()):
                    if rpos != pos and (lid, rpos, pos) not in seen_here:
                        seen_here.add((lid, rpos, pos))
                        edges.append(
                            DependEdge(
                                "war", lid, rname,
                                (rpos, rnm), (pos, summary.name), False,
                            )
                        )
                last_write[lid] = (pos, index, summary.name)
    return tuple(edges)


def classify(
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
    plan: GroupPlan,
) -> Verdict:
    """Classify one planned group: merge-safe or replay-only.

    Checks the legality rules in a deterministic order (module docs);
    the first violated rule names the verdict, so a reason is stable
    across runs.  Single-launch groups return a non-blocked,
    non-merge-safe verdict (``reason is None``): there is nothing to
    merge.  A group over several tile-boundary sets is classified
    segment by segment (rule 4).
    """
    indices = plan.indices
    if len(indices) <= 1:
        return Verdict(False, None, "single launch; nothing to merge")

    # Rule 4: one color count.
    colors = {summaries[i].colors for i in indices}
    if len(colors) > 1:
        return Verdict(
            False, "iteration-space-mismatch",
            f"group spans {len(colors)} color counts",
        )
    parts = segments(summaries, indices)
    if len(parts) == 1:
        return _classify_segment(summaries, ids, plan)
    verdicts = tuple(
        _classify_segment(
            summaries, ids,
            GroupPlan(
                part,
                plan.elide & {
                    ids[acc.region.uid]
                    for i in part for acc in summaries[i].accesses
                },
            ),
        )
        for part in parts
    )
    edges = tuple(edge for verdict in verdicts for edge in verdict.edges)
    blocked = next((v for v in verdicts if v.blocked), None)
    if blocked is not None:
        reason, detail = blocked.reason, blocked.detail
    elif any(v.merge_safe for v in verdicts):
        reason = None
        detail = "; ".join(v.detail for v in verdicts if v.merge_safe)
    else:
        reason = "one-launch-segments"
        detail = (
            f"{len(parts)} launches over {len(parts)} distinct tile "
            f"boundary sets"
        )
    return Verdict(
        reason is None, reason, detail, edges, tuple(zip(parts, verdicts))
    )


def _classify_segment(
    summaries: Sequence[LaunchSummary],
    ids: Dict[int, int],
    plan: GroupPlan,
) -> Verdict:
    """Rules 1-3, 5 and 6 over the members of one segment."""
    indices = plan.indices
    if len(indices) <= 1:
        return Verdict(False, None, "single launch; nothing to merge")

    # Rules 1 + 2: every body known, no reduction-carrying statements.
    for index in indices:
        summary = summaries[index]
        reason = classify_statement(
            summary.pointwise.statement if summary.pointwise else None
        )
        if reason is not None:
            statement = summary.pointwise.statement
            return Verdict(
                False, reason,
                f"launch {summary.name!r} carries statement "
                f"{statement.key()!r} with reduction var(s) "
                f"{', '.join(str(v) for v in statement.reduction_vars)}",
            )
        _program, _out, problem = kernel_ir(summary)
        if problem:
            return Verdict(False, "opaque-kernel", problem)

    # Rule 6: scalar reductions run after the nest's statements.
    statements = tuple(i for i in indices if summaries[i].reduction is None)
    for red in indices:
        if summaries[red].reduction is not None:
            reads = {ids[acc.region.uid] for acc in summaries[red].accesses}
            for index in statements:
                if index < red:
                    continue
                for acc in summaries[index].accesses:
                    if acc.privilege.writes and ids[acc.region.uid] in reads:
                        return Verdict(
                            False, "write-after-reduction",
                            f"launch {summaries[index].name!r} writes "
                            f"{acc.region.name or acc.name or 'a region'!r} "
                            f"after reduction {summaries[red].name!r} "
                            f"read it",
                        )

    # Rule 3: no replicated operands.
    for index in indices:
        summary = summaries[index]
        for acc in summary.accesses:
            if acc.part_kind == "rep":
                return Verdict(
                    False, "replicated-operand",
                    f"launch {summary.name!r} replicates "
                    f"{acc.region.name or acc.name or 'an operand'!r}",
                )

    # Rule 5: RAW only through elided temporaries.
    edges = tuple(
        DependEdge(
            e.kind, e.lid, e.region, e.producer, e.consumer,
            e.lid in plan.elide,
        )
        for e in def_use(summaries, ids, statements)
    )
    for edge in edges:
        if edge.kind == "raw" and not edge.elided:
            return Verdict(
                False, "raw-through-unelided-region",
                f"blocking edge {edge.describe()} (region stays mapped)",
                edges,
            )

    return Verdict(
        True, None,
        f"{len(indices)} statements merge into one nest "
        f"({len(plan.elide)} temporar"
        f"{'y' if len(plan.elide) == 1 else 'ies'} become nest values)",
        edges,
    )


def classify_window(
    summaries: Sequence[LaunchSummary],
    plans: Sequence[GroupPlan],
    ids: Optional[Dict[int, int]] = None,
) -> List[Verdict]:
    """Classify every planned group of a window (convenience)."""
    from repro.legion import fusion

    if ids is None:
        ids = fusion.local_ids(summaries)
    return [classify(summaries, ids, plan) for plan in plans]


def verdict_label(plan: GroupPlan, verdict: Verdict, kernel_fusion: bool) -> str:
    """The fusion-log label of a group: how it will (or did) execute.

    ``"single"`` for one-launch groups, ``"merged"`` for merge-safe
    groups under ``RuntimeConfig.kernel_fusion``, else
    ``"replay:<reason>"``.  ``Runtime.fusion_log`` (and with it
    ``Advice.fusion_groups``) records exactly this string.
    """
    if not plan.fused:
        return "single"
    if not kernel_fusion:
        return "replay:disabled"
    if verdict.merge_safe:
        return "merged"
    return f"replay:{verdict.reason or 'opaque-kernel'}"


# ----------------------------------------------------------------------
# Lowering merge-safe groups to nest plans (runtime side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NestStep:
    """One statement of a combined loop nest, loads resolved.

    ``program`` is the sub-launch's postfix body with every step
    lowered for the nest: ``("view", mangled)`` reads an external
    region through the fused context, ``("var", j)`` reuses step
    ``j``'s in-nest value (a RAW through an in-group write),
    ``("scalar", mangled)`` reads a fused scalar argument, and
    ``("un"/"bin", op)`` apply canonical op-table callables.  The
    computed value is cast to ``dtype`` — the bitwise-exact emulation
    of replay's ``out[...] = expr`` store — and written to ``out``
    unless the backing region is a dead elided temporary
    (``store=False``: the array never materializes at all).
    """

    index: int
    name: str
    program: Tuple[Tuple[str, object], ...]
    out: str  # mangled requirement name
    out_uid: int
    dtype: str  # np.dtype().str — round-trips through np.dtype()
    store: bool
    elided: bool
    # Flops per output element, matching the sub-launch's own cost
    # model exactly (fill: 0; ufunc: 1; lazy chain: max(ops, 1)) so a
    # merged group reports the same modeled flops as replay.
    weight: float


@dataclass(frozen=True)
class NestTail:
    """One scalar reduction of a nest's epilogue: the per-shard partial
    ``optable.PARTIALS[part]`` over views of the (mangled) operands,
    taken after every statement has stored."""

    index: int
    name: str
    part: str
    operands: Tuple[str, ...]


@dataclass(frozen=True)
class NestPlan:
    """A merge-safe group lowered for code generation.

    ``reads`` lists the mangled names of external inputs (deduplicated
    by region — a region read by three statements is charged once) and
    ``charged_writes`` the mangled outputs that remain instance-backed
    traffic; together they are the merged cost model's byte side, which
    is what makes merged modeled compute strictly cheaper than replay's
    per-kernel accounting whenever statements share operands or elide
    temporaries.
    """

    steps: Tuple[NestStep, ...]
    reads: Tuple[str, ...]
    charged_writes: Tuple[str, ...]
    # The group's scalar reductions, in issue order: the nest's kernel
    # returns their partials (charged like the reductions run alone).
    tails: Tuple[NestTail, ...] = ()

    @property
    def temps_eliminated(self) -> int:
        """Dead elided temporaries that never materialize anywhere."""
        return sum(1 for step in self.steps if not step.store)

    def key(self) -> tuple:
        """Hashable identity of the generated source (memoization)."""
        return (
            tuple(
                (
                    s.name, s.program, s.out, s.dtype, s.store, s.weight,
                )
                for s in self.steps
            ),
            self.reads,
            self.charged_writes,
            self.tails,
        )


def build_nest_plan(
    group: Sequence[TaskLaunch],
    elide_uids: frozenset,
    dead_uids: frozenset = frozenset(),
    positions: Optional[Sequence[int]] = None,
) -> NestPlan:
    """Lower a merge-safe group of concrete launches to a nest plan.

    Callers must have classified the group merge-safe first (the
    runtime does; see ``Runtime._flush``).  For one segment of a group
    aligned per region, ``group`` holds the segment's launches and
    ``positions`` where each sits in the fused group (what its names
    are mangled by); by default the group is the whole fused group.  ``elide_uids`` are the
    region uids the fusion plan elides; ``dead_uids`` the subset also
    freed before the flush — their stores are provably unobservable
    (no instance *and* no later host read), so the nest skips them
    entirely and the temporary exists only as a nest value.

    Requirement/scalar names are mangled ``"<i>.<name>"`` exactly as
    :func:`repro.legion.fusion.fuse` mangles them, so the generated
    kernel runs against the fused launch's context unchanged.
    """
    steps: List[NestStep] = []
    producer: Dict[int, int] = {}  # region uid -> producing step index
    reads: List[str] = []
    seen_reads: set = set()
    charged: List[str] = []
    seen_writes: set = set()
    # Member reductions are no nest statements: they run as the
    # epilogue, on views of what the statements stored -- so whatever
    # they read is stored, dead temporary or not.
    tails: List[NestTail] = []
    kept: set = set()
    members = list(zip(positions or range(len(group)), group))
    for i, task in members:
        pw = task.pointwise
        if pw is None or pw.expr is None or (
            pw.out is None and task.reduction is None
        ):
            raise ValueError(
                f"build_nest_plan: sub-launch {task.name!r} has no body "
                f"IR (classify the group first)"
            )
        if task.reduction is not None:
            kept.update(req.region.uid for req in task.requirements)
            tails.append(
                NestTail(
                    i, task.name, pw.expr[-1][1],
                    tuple(f"{i}.{arg}" for _kind, arg in pw.expr[:-1]),
                )
            )
    for i, task in members:
        if task.reduction is not None:
            continue
        pw = task.pointwise
        by_name = {req.name: req for req in task.requirements}
        out_req = by_name[pw.out]
        program: List[Tuple[str, object]] = []
        ops = 0
        for kind, arg in pw.expr:
            if kind == "load":
                uid = by_name[arg].region.uid
                if uid in producer:
                    program.append(("var", producer[uid]))
                else:
                    mangled = f"{i}.{arg}"
                    program.append(("view", mangled))
                    if uid not in seen_reads:
                        seen_reads.add(uid)
                        reads.append(mangled)
            elif kind == "scalar":
                program.append(("scalar", f"{i}.{arg}"))
            else:
                ops += 1
                program.append((kind, optable.canonical(arg)))
        out_uid = out_req.region.uid
        elided = out_uid in elide_uids
        store = out_uid in kept or not (elided and out_uid in dead_uids)
        # Per-element flops mirroring the sub cost models exactly: a
        # fill moves bytes but computes nothing; everything else is
        # charged one flop per op per element, floored at one pass.
        weight = 0.0 if ops == 0 and pw.ops == ("fill",) else float(max(ops, 1))
        steps.append(
            NestStep(
                index=i,
                name=task.name,
                program=tuple(program),
                out=f"{i}.{pw.out}",
                out_uid=out_uid,
                dtype=np.dtype(out_req.region.data.dtype).str,
                store=store,
                elided=elided,
                weight=weight,
            )
        )
        producer[out_uid] = i
        if store and out_uid not in seen_writes:
            seen_writes.add(out_uid)
            charged.append(f"{i}.{pw.out}")
    return NestPlan(tuple(steps), tuple(reads), tuple(charged), tuple(tails))
