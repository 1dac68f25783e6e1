"""Plan advisor: lints over a kernel-free dry run of the real runtime.

The dynamic half of :mod:`repro.analysis` (PR 1) validates an execution
*after* it ran, from its event log.  This module answers the same kind
of question *before* any kernel executes — without a model of the
runtime.  :func:`trace` runs the program on a real
:class:`~repro.legion.runtime.Runtime` with a
:class:`~repro.analysis.plan.PlanTrace` attached, which makes it a **dry
run**: constraints are solved, the deferred window plans and fuses,
launches map, stage, fold, allreduce, checkpoint, spill and charge both
clocks exactly as always, and only the kernels are skipped.
:func:`analyze` then builds its report from that run's own records:

* **partition choices** per launch, from the requirements
  ``Runtime.launch`` received;
* **communication volume** per channel class (NVLink / NIC), from the
  run's :class:`~repro.analysis.events.EventLog` (``Advice.predicted``);
* **per-memory peak footprint**, from the run's instance manager;
* **modeled elapsed, kernel and copy time**, from its clocks and
  :class:`~repro.legion.profiler.Profiler`;
* **fusion groups and kernel-merge verdicts**, from its ``fusion_log``
  and the verdicts its window flushes computed.

On top of that it runs a lint battery: implicit densification,
format-conversion round-trips, broadcast-inducing constraints, capacity
overflow and spill, dead/redundant writes and staging, fused groups,
kernel-merge verdicts and checkpoint/recovery cost.

Agreement with a real run holds by construction — there is one mapper,
one window and one copy engine, and the advisor owns none of them
(``tests/analysis/test_dry_run.py`` diffs a dry run against a real run
of the same program; a structural test keeps this module from importing
the solver, coherence, instance or fusion layers).  What a dry run
cannot know is what kernels compute: scalar reductions yield
placeholders (NaN, so solvers run to ``maxiter``), and sparse structure
a kernel produces (a Galerkin product, a COO→CSR assembly) is empty, so
launches over it are counted exactly but timed approximately.

Entry points: :func:`trace` / :func:`analyze` / :func:`advise` as a
library, ``python -m repro.analysis advise prog.py`` as a CLI.

Unlike the rest of :mod:`repro.analysis`, this module sits *above* the
runtime — which is why the package ``__init__`` only exposes it lazily
(the runtime imports the package).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.events import CopyEvent, EventLog
from repro.analysis.plan import PlanGroup, PlanTrace
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.privilege import Privilege
from repro.machine import (
    Machine,
    MachineScope,
    MemoryKind,
    ProcessorKind,
    laptop,
    summit,
)


def _compile_cache_stats() -> Dict[str, int]:
    # Lazy: repro.distal.codegen is import-heavy and only needed when a
    # report is actually built.
    from repro.distal.codegen import compile_cache_stats

    return compile_cache_stats()


# ----------------------------------------------------------------------
# Lint thresholds (all byte thresholds compare *scaled* bytes)
# ----------------------------------------------------------------------
# Implicit densification: always reported; escalates to an error when
# the materialized dense array reaches this many bytes.
DENSIFY_ERROR_BYTES = 1 << 30
# Replicated (broadcast) read operands are flagged once the extra volume
# (operand bytes x (colors - 1)) reaches this threshold.
BROADCAST_WARN_BYTES = 8 << 20
# A fragment staged into the same memory this many times or more is
# reported as redundant staging (data ping-pong).
RESTAGE_WARN_COUNT = 4
RESTAGE_WARN_BYTES = 1 << 20
# Peak footprint at or above this fraction of a memory's budget
# (capacity - reservation) is flagged even when it fits.
PRESSURE_WARN_FRACTION = 0.85
# Keep at most this many findings per rule (volume guard).
MAX_FINDINGS_PER_RULE = 16


# ----------------------------------------------------------------------
# Report types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One lint result; ``error`` findings make the CLI exit non-zero."""

    severity: str  # "error" | "warning" | "note"
    rule: str
    message: str

    def format(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclass
class OpReport:
    """Aggregated launches with identical name + partition choices."""

    name: str
    count: int
    colors: int
    partitions: Dict[str, str]  # arg name -> partition description


@dataclass
class MemoryReport:
    """Peak footprint of one memory in the dry run."""

    memory: str
    kind: str
    node: int
    peak_bytes: int
    capacity: int
    reserved_bytes: int

    @property
    def budget(self) -> int:
        return max(self.capacity - self.reserved_bytes, 0)

    @property
    def pressure(self) -> float:
        return self.peak_bytes / self.budget if self.budget > 0 else float("inf")


@dataclass
class Advice:
    """The advisor's full static report for one traced program."""

    plan_name: str
    machine: str
    processors: str
    launches: int
    regions: int
    ops: List[OpReport] = field(default_factory=list)
    traffic: Dict[str, Dict[str, float]] = field(default_factory=dict)
    memories: List[MemoryReport] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    # The dry run's clocks: its horizon (issue clock, processors and
    # channels), the profiler's summed kernel seconds, and the
    # bandwidth seconds of its inter-memory copies (copy_seconds).
    modeled_elapsed_seconds: float = 0.0
    est_kernel_seconds: float = 0.0
    est_copy_seconds: float = 0.0
    comm_scale: float = 1.0
    # The dry run's event log.
    predicted: EventLog = field(default_factory=EventLog)
    # The dry run's ``Runtime.fusion_log``: (sub-launch names, elided
    # temporaries, kernel-fusion verdict label) per group its deferred
    # window flushed, in execution order.  The label is
    # ``repro.analysis.depend.verdict_label`` — "single", "merged" or
    # "replay:<reason>".  Empty with fusion disabled.
    fusion_groups: List[Tuple[Tuple[str, ...], int, str]] = field(
        default_factory=list
    )
    # Windows flushed by a launch that cannot join them: a non-fusible
    # launch, or a solve whose image reads a pending write
    # (``Profiler.hazard_flushes``).
    hazard_flushes: int = 0
    # Process-wide codegen reuse counters
    # (:func:`repro.distal.codegen.compile_cache_stats`), reported next
    # to the runtime's fast-path cache counters so a profile/advise
    # pair shows host-side caching end to end.
    caches: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def to_dict(self) -> dict:
        """JSON-ready summary (``--json``)."""
        return {
            "plan": self.plan_name,
            "machine": self.machine,
            "processors": self.processors,
            "launches": self.launches,
            "regions": self.regions,
            "ops": [
                {
                    "name": op.name,
                    "count": op.count,
                    "colors": op.colors,
                    "partitions": op.partitions,
                }
                for op in self.ops
            ],
            "traffic": self.traffic,
            "memories": [
                {
                    "memory": m.memory,
                    "kind": m.kind,
                    "node": m.node,
                    "peak_bytes": m.peak_bytes,
                    "capacity": m.capacity,
                    "reserved_bytes": m.reserved_bytes,
                    "pressure": m.pressure,
                }
                for m in self.memories
            ],
            "findings": [
                {"severity": f.severity, "rule": f.rule, "message": f.message}
                for f in self.findings
            ],
            "modeled_elapsed_seconds": self.modeled_elapsed_seconds,
            "est_kernel_seconds": self.est_kernel_seconds,
            "est_copy_seconds": self.est_copy_seconds,
            "comm_scale": self.comm_scale,
            "fusion_groups": [
                {"names": list(names), "elided": elided, "verdict": verdict}
                for names, elided, verdict in self.fusion_groups
            ],
            "hazard_flushes": self.hazard_flushes,
            "caches": self.caches,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def format_text(self) -> str:
        """Human-readable report (the default CLI output)."""
        lines = [
            f"advisor report: {self.plan_name}",
            f"machine: {self.machine}",
            f"scope: {self.processors}",
            f"plan: {self.launches} launches, {self.regions} regions",
            "",
            "partition choices:",
        ]
        for op in self.ops:
            lines.append(f"  {op.name} x{op.count}  colors={op.colors}")
            if op.partitions:
                parts = "  ".join(
                    f"{arg}:{desc}" for arg, desc in op.partitions.items()
                )
                lines.append(f"      {parts}")
        lines.append("")
        lines.append("predicted traffic (per channel class):")
        if self.traffic:
            for cls in ("nvlink", "nic"):
                if cls not in self.traffic:
                    continue
                t = self.traffic[cls]
                lines.append(
                    f"  {cls:7s} {int(t['copies']):6d} copies  "
                    f"{_fmt_bytes(t['bytes'])}  "
                    f"(x{self.comm_scale:g} scaled: "
                    f"{_fmt_bytes(t['scaled_bytes'])})"
                )
        else:
            lines.append("  (no inter-memory copies predicted)")
        lines.append("")
        lines.append("predicted peak memory:")
        for m in self.memories:
            lines.append(
                f"  {m.memory:16s} {_fmt_bytes(m.peak_bytes)} of "
                f"{_fmt_bytes(m.budget)} budget "
                f"({_fmt_bytes(m.capacity)} - {_fmt_bytes(m.reserved_bytes)} "
                f"reserved), pressure {m.pressure:.0%}"
            )
        lines.append("")
        lines.append(
            f"time estimate: elapsed {self.modeled_elapsed_seconds:.3e}s "
            f"(kernels {self.est_kernel_seconds:.3e}s, "
            f"copies {self.est_copy_seconds:.3e}s)"
        )
        lines.append("")
        compile_stats = self.caches.get("compile")
        if compile_stats:
            lines.append(
                "kernel compile cache: "
                f"{int(compile_stats.get('hits', 0))} hits / "
                f"{int(compile_stats.get('misses', 0))} misses"
            )
            lines.append("")
        merged = [g for g in self.fusion_groups if len(g[0]) > 1]
        if merged:
            away = sum(len(names) - 1 for names, _, _ in merged)
            elided = sum(e for _, e, _ in merged)
            nests = sum(1 for _, _, v in merged if v == "merged")
            lines.append(
                f"task fusion: {len(merged)} fused group(s) predicted "
                f"({away} launches merged away, {elided} temporaries "
                f"elided; {nests} merge into a single loop nest)"
            )
        if self.fusion_groups:
            lines.append(
                f"deferred window: {self.hazard_flushes} flushed by a "
                f"launch that cannot join it"
            )
            lines.append("")
        if self.findings:
            lines.append("findings:")
            for f in self.findings:
                lines.append(f"  {f.format()}")
        else:
            lines.append("findings: none")
        lines.append(
            f"summary: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.findings) - len(self.errors) - len(self.warnings)} "
            f"note(s)"
        )
        return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}TiB"


# ----------------------------------------------------------------------
# The report builder: reads a finished dry run, maps nothing itself
# ----------------------------------------------------------------------
class _Report:
    """The findings and aggregates of one analysis of a dry run."""

    def __init__(self, plan: PlanTrace):
        self.plan = plan
        self.runtime = plan.runtime
        self.config = plan.config
        self.machine: Machine = plan.scope.machine
        self.log: EventLog = self.runtime.event_log
        self.findings: List[Finding] = []
        self._finding_counts: Counter = Counter()

    def _finding(self, severity: str, rule: str, message: str) -> None:
        self._finding_counts[rule] += 1
        if self._finding_counts[rule] == MAX_FINDINGS_PER_RULE + 1:
            self.findings.append(
                Finding("note", rule, "further findings suppressed")
            )
        if self._finding_counts[rule] <= MAX_FINDINGS_PER_RULE:
            self.findings.append(Finding(severity, rule, message))

    def traffic(self) -> Dict[str, Dict[str, float]]:
        """Copies and bytes per channel class, from the run's log."""
        memories = {m.uid: m for m in self.machine.memories}
        scale = self.config.effective_comm_scale
        traffic: Dict[str, Dict[str, float]] = {}
        for ev in self.log.events:
            if not isinstance(ev, CopyEvent):
                continue
            # The runtime logs inter-memory copies only.
            same_node = (
                memories[ev.src_memory].node == memories[ev.dst_memory].node
            )
            cls = "nvlink" if same_node else "nic"
            entry = traffic.setdefault(
                cls, {"copies": 0, "bytes": 0.0, "scaled_bytes": 0.0}
            )
            entry["copies"] += 1
            entry["bytes"] += ev.nbytes
            entry["scaled_bytes"] += ev.nbytes * scale
        return traffic

    def op_reports(self) -> List[OpReport]:
        """The plan's launches, grouped by name and partition choices."""
        groups: Dict[tuple, OpReport] = {}
        for op in self.plan.ops:
            partitions = {arg.name: arg.partition for arg in op.args}
            key = (op.name, op.colors, tuple(partitions.items()))
            report = groups.get(key)
            if report is None:
                groups[key] = report = OpReport(
                    name=op.name, count=0, colors=op.colors,
                    partitions=partitions,
                )
            report.count += 1
        return sorted(groups.values(), key=lambda r: -r.count)

    def memory_reports(self) -> List[MemoryReport]:
        """Peak footprint of every memory the run mapped into."""
        instances = self.runtime.instances
        reports = []
        for memory in self.machine.memories:
            peak = instances.peak_bytes(memory)
            if peak <= 0:
                continue
            reports.append(
                MemoryReport(
                    memory=_mem_name(memory),
                    kind=memory.kind.value,
                    node=memory.node,
                    peak_bytes=int(peak),
                    capacity=int(memory.capacity),
                    reserved_bytes=int(instances.state(memory).reserved_bytes),
                )
            )
        return reports


def copy_seconds(profiler, machine: Machine) -> float:
    """Bandwidth seconds of every inter-memory byte a run's
    :class:`~repro.legion.profiler.Profiler` counted (latency and
    queueing are in the elapsed time, not here).  A NIC copy is counted
    on both endpoints' NICs."""
    cfg = machine.config
    return (
        profiler.copy_bytes.get("nvlink", 0) / cfg.nvlink_bandwidth
        + profiler.copy_bytes.get("nic", 0) / (2.0 * cfg.nic_bandwidth)
    )


def _mem_name(memory) -> str:
    kind = "fb" if memory.kind == MemoryKind.FRAMEBUFFER else "sysmem"
    return f"{kind}[{memory.uid}]@node{memory.node}"


# ----------------------------------------------------------------------
# Lint passes over the plan and the dry run's records
# ----------------------------------------------------------------------
def _lint_notes(report: _Report) -> None:
    """Densification and conversion-churn findings from library notes."""
    scale = report.config.data_scale
    ancestry: Dict[int, List[str]] = {}  # object id -> format chain
    seen_conversions: Counter = Counter()
    for note in report.plan.notes:
        info = note.info
        if note.category == "densify":
            nbytes = float(info.get("nbytes", 0)) * scale
            severity = "error" if nbytes >= DENSIFY_ERROR_BYTES else "warning"
            report._finding(
                severity, "densify",
                f"{info.get('where', 'operation')} materializes a dense "
                f"{info.get('shape')} array ({_fmt_bytes(nbytes)} scaled) "
                f"from a {info.get('fmt', '?')} matrix — implicit "
                f"densification becomes allocation + broadcast at scale",
            )
        elif note.category == "convert":
            src_fmt = info.get("src_fmt", "?")
            dst_fmt = info.get("dst_fmt", "?")
            src_id = info.get("src_id")
            dst_id = info.get("dst_id")
            chain = ancestry.get(src_id, [src_fmt]) + [dst_fmt]
            if dst_id is not None:
                ancestry[dst_id] = chain
            if len(chain) >= 3 and chain[-1] in chain[:-1]:
                report._finding(
                    "warning", "convert-roundtrip",
                    f"format round-trip {' -> '.join(chain)} "
                    f"({_fmt_bytes(float(info.get('nbytes', 0)) * scale)} "
                    f"scaled) — each hop is a full conversion kernel/sort",
                )
            seen_conversions[(src_id, dst_fmt)] += 1
            if seen_conversions[(src_id, dst_fmt)] == 2:
                report._finding(
                    "warning", "convert-repeated",
                    f"the same matrix is converted {src_fmt} -> {dst_fmt} "
                    f"repeatedly — hoist the conversion out of the loop",
                )


def _lint_dead_writes(report: _Report) -> None:
    """WRITE_DISCARD over an unread previous write = dead computation."""
    pending: Dict[int, Tuple[int, str]] = {}  # region uid -> (op idx, name)
    for idx, op in enumerate(report.plan.ops):
        # Reads first (WRITE observes previous contents; REDUCE
        # accumulates onto them), then writes.
        for arg in op.args:
            if arg.privilege.reads or arg.privilege == Privilege.REDUCE:
                pending.pop(arg.uid, None)
        for arg in op.args:
            priv = arg.privilege
            if not priv.writes or priv == Privilege.REDUCE:
                continue
            if priv == Privilege.WRITE_DISCARD and arg.uid in pending:
                prev_idx, prev_name = pending[arg.uid]
                report._finding(
                    "warning", "dead-write",
                    f"op {op.name!r} (launch #{idx}) discards region "
                    f"{arg.region!r} written by {prev_name!r} "
                    f"(launch #{prev_idx}) that nothing read — the earlier "
                    f"write (and its copies) is dead",
                )
            pending[arg.uid] = (idx, op.name)


def _lint_broadcast(report: _Report) -> None:
    """Replicated read operands big enough to matter."""
    for op in report.plan.ops:
        if op.colors <= 1:
            continue
        for arg in op.args:
            if not arg.partition.startswith("replicate"):
                continue
            if not arg.privilege.reads:
                continue
            extra = arg.nbytes * (op.colors - 1) * report.config.data_scale
            if extra >= BROADCAST_WARN_BYTES:
                report._finding(
                    "warning", "broadcast",
                    f"op {op.name!r}: argument {arg.name!r} "
                    f"(region {arg.region!r}, {_fmt_bytes(arg.nbytes)}) is "
                    f"replicated to {op.colors} shards — "
                    f"{_fmt_bytes(extra)} of extra transfer/footprint; "
                    f"consider an alignment or image constraint instead",
                )


def _lint_restaging(report: _Report) -> None:
    """The same fragment staged into the same memory many times."""
    counts: Counter = Counter()
    volumes: Counter = Counter()
    names: Dict[tuple, str] = {}
    for ev in report.log.events:
        if not isinstance(ev, CopyEvent) or ev.why != "stage":
            continue
        key = (ev.region, ev.rect, ev.dst_memory)
        counts[key] += 1
        volumes[key] += ev.nbytes
        names[key] = ev.region_name
    for key, count in counts.most_common():
        if count < RESTAGE_WARN_COUNT:
            break
        total = volumes[key] * report.config.effective_comm_scale
        if total < RESTAGE_WARN_BYTES:
            continue
        region, rect, dst = key
        report._finding(
            "note", "restage",
            f"region {names[key]!r} fragment {rect} staged into memory "
            f"{dst} {count} times ({_fmt_bytes(total)} scaled total) — "
            f"it is invalidated between uses (writer/reader ping-pong)",
        )


def _lint_capacity_pressure(
    report: _Report, memories: List[MemoryReport]
) -> None:
    """Overflow, what graceful degradation paid, and near-full memories."""
    error = report.plan.error
    if error is not None:
        # The dry run died where a real run would, with the runtime's
        # own account of the task, region and memory.
        hint = (
            "" if report.config.spill
            else " (config.spill would degrade this to spill traffic)"
        )
        report._finding("error", "capacity", f"{error}{hint}")
    profiler = report.runtime.profiler
    if profiler.evictions or profiler.spills:
        # Would-be OOMs that config.spill relieved: the run completes
        # but pays eviction/spill traffic — a warning, not an error.
        report._finding(
            "warning", "spill",
            f"a memory exceeded its budget; graceful degradation evicted "
            f"{profiler.evictions} clean instance(s) "
            f"({_fmt_bytes(profiler.eviction_bytes)}) and spilled "
            f"{_fmt_bytes(profiler.spill_bytes)} to system memory in "
            f"{profiler.spills} copies (runtime policy: LRU clean "
            f"eviction, then dirty spill)",
        )
    for memory in memories:
        if memory.budget > 0 and memory.pressure >= PRESSURE_WARN_FRACTION:
            report._finding(
                "warning", "memory-pressure",
                f"memory {memory.memory} peaks at "
                f"{_fmt_bytes(memory.peak_bytes)} of "
                f"{_fmt_bytes(memory.budget)} budget "
                f"({memory.pressure:.0%}) — allocator churn territory "
                f"(threshold {PRESSURE_WARN_FRACTION:.0%})",
            )


def _lint_fusion(report: _Report) -> None:
    """Report the groups the deferred window fused in the dry run —
    the entries of its ``fusion_log``, so a statement of fact."""
    for names, elided, _verdict in report.runtime.fusion_log:
        if len(names) <= 1:
            continue
        extra = (
            f", eliding {elided} temporar{'y' if elided == 1 else 'ies'}"
            if elided else ""
        )
        report._finding(
            "note", "fusible",
            f"{len(names)} launches will fuse into one task"
            f"{extra}: {' + '.join(names)}",
        )


def _merge_savings(report: _Report, group: PlanGroup) -> float:
    """Modeled compute body-merging one fused group saves.

    Replay charges every sub-kernel's full traffic; a merged nest
    reads each external operand once and writes each output once,
    with in-group temporaries flowing as nest values.  The delta —
    at data scale, over the scope's memory bandwidth — is what the
    ``kernel-merge-applied`` lint reports.
    """
    replay_bytes = 0.0
    merged_bytes = 0.0
    produced: set = set()
    counted: set = set()
    for op in group.members:
        for arg in op.args:
            nbytes = arg.nbytes
            replay_bytes += nbytes
            if op.reduction is not None:
                # The nest's epilogue: charged as on its own.
                merged_bytes += nbytes
                continue
            uid = arg.uid
            if (
                arg.privilege.reads
                and uid not in produced
                and ("r", uid) not in counted
            ):
                counted.add(("r", uid))
                merged_bytes += nbytes
            if arg.privilege.writes:
                if ("w", uid) not in counted:
                    counted.add(("w", uid))
                    merged_bytes += nbytes
                produced.add(uid)
    saved = max(replay_bytes - merged_bytes, 0.0)
    if not saved:
        return 0.0
    proc = report.plan.scope.processors[0]
    return proc.kernel_time(0.0, saved * report.config.data_scale)


def _lint_kernel_merge(report: _Report) -> None:
    """Report per-group kernel-fusion verdicts from the dependence pass.

    ``kernel-merge-applied`` (info): the group is merge-safe and ran as
    one generated loop nest, with the modeled compute the merge saves.
    ``kernel-merge-blocked`` (warning): the dependence analyzer proved
    the group must replay, naming the blocking rule and the concrete
    launch/edge behind it — the verdict the runtime's own flush
    computed.
    """
    for group in report.plan.groups:
        names = " + ".join(group.names)
        if group.label == "merged":
            report._finding(
                "note", "kernel-merge-applied",
                f"{len(group.members)} kernels merge into one loop "
                f"nest ({names}); modeled compute saved: "
                f"{_merge_savings(report, group):.3e}s",
            )
        elif group.reason is not None:
            report._finding(
                "warning", "kernel-merge-blocked",
                f"group ({names}) replays sub-kernels: "
                f"[{group.reason}] {group.detail}",
            )


def _lint_resilience(report: _Report) -> None:
    """The resilience pass: predicted checkpoint cost and fault lints.

    Reads the chaos config of the dry run and asks its recovery
    component (``Runtime.recovery``) for the fault domains and the
    written bytes an epoch would snapshot:

    * ``unprotected-run`` (warning) — losses scheduled with
      ``checkpoint_every=0``: no epoch bounds the journal, so a loss
      replays the whole run.
    * ``under-replicated`` (warning) — node losses with a single
      checkpoint store (``ckpt_replicas=1``: losing node 0 is
      unconditionally fatal), or more replicas requested than the
      machine has sysmem fault domains.
    * ``resilience`` (note) — predicted snapshot + replication bytes
      per checkpoint epoch and the estimated worst-case recovery cost
      (detection latency + restart delay + replica restore + replay of
      a full epoch's launches).
    """
    chaos = getattr(report.config, "chaos", None)
    if chaos is None:
        return
    machine = report.machine
    runtime = report.runtime
    domains = len(runtime.recovery.domains)
    replicas = getattr(chaos, "ckpt_replicas", 1)
    effective = min(replicas, domains) if domains else 0
    node_losses = [l for l in chaos.losses if l.kind == "node"]

    # Predicted per-epoch snapshot: the written volume at end of plan
    # (what a steady-state epoch must protect), scaled like the
    # runtime's checkpoint copies.
    snap_bytes = (
        runtime.recovery.written_bytes() * report.config.effective_comm_scale
    )
    repl_bytes = snap_bytes * max(effective - 1, 0)

    if chaos.losses and chaos.checkpoint_every == 0:
        report._finding(
            "warning", "unprotected-run",
            f"{len(chaos.losses)} loss(es) scheduled with "
            f"checkpoint_every=0: no checkpoint epoch bounds the "
            f"journal, so any loss replays the entire run (and at "
            f"ckpt_replicas=1 a node-0 loss is fatal with nothing "
            f"snapshotted at all)",
        )
    if node_losses and replicas == 1:
        report._finding(
            "warning", "under-replicated",
            f"{len(node_losses)} node loss(es) scheduled with "
            f"ckpt_replicas=1: the single node-0 checkpoint store is a "
            f"single point of failure — losing its node is "
            f"unconditionally fatal; set ckpt_replicas >= 2 to survive "
            f"store loss",
        )
    if replicas > domains > 0:
        report._finding(
            "warning", "under-replicated",
            f"ckpt_replicas={replicas} exceeds the machine's {domains} "
            f"sysmem fault domain(s); effective replication is only "
            f"{effective}",
        )
    if chaos.checkpoint_every > 0 or chaos.losses:
        detect = getattr(chaos, "heartbeat_period", 0.0) + getattr(
            chaos, "detection_timeout", 0.0
        )
        launches = max(len(report.plan.ops), 1)
        # Replay re-times kernels and launch overhead (it skips only
        # the numerics), so a replayed launch costs about what the
        # original did.
        per_launch = (
            runtime.profiler.kernel_seconds / launches
            + report.config.launch_overhead
        )
        epoch = chaos.checkpoint_every or launches
        nic_bw = machine.config.nic_bandwidth
        restore = snap_bytes / nic_bw if nic_bw else 0.0
        worst = detect + chaos.recovery_delay + restore + epoch * per_launch
        report._finding(
            "note", "resilience",
            f"checkpoint epoch snapshots ~{_fmt_bytes(int(snap_bytes))} "
            f"x{max(effective, 1)} replica store(s) "
            f"(~{_fmt_bytes(int(repl_bytes))} replication traffic); "
            f"worst-case recovery ~{worst:.3e}s (detection {detect:.1e}s "
            f"+ restart {chaos.recovery_delay:.1e}s + replica restore + "
            f"replay of <= {epoch} launches)",
        )


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def parse_machine(spec: str) -> Machine:
    """Parse a CLI machine spec: ``summit:N``, ``summit``, ``laptop``."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "laptop":
        return laptop()
    if name == "summit":
        nodes = int(arg) if arg else 1
        return summit(nodes=nodes)
    raise ValueError(
        f"unknown machine {spec!r} (expected laptop or summit[:nodes])"
    )


_KINDS = {
    "gpu": ProcessorKind.GPU,
    "cpu": ProcessorKind.CPU_SOCKET,
    "core": ProcessorKind.CPU_CORE,
}


def _make_scope(machine, kind, procs, per_node) -> MachineScope:
    proc_kind = _KINDS[kind] if isinstance(kind, str) else kind
    if proc_kind is None:
        proc_kind = ProcessorKind.GPU
    available = machine.procs(proc_kind)
    count = procs if procs is not None else len(available)
    return machine.scope(proc_kind, count, per_node)


def dry_run(body, scope: MachineScope, config=None, name: str = "trace") -> PlanTrace:
    """Run ``body()`` on a fresh runtime with a :class:`PlanTrace`
    attached — a dry run: everything but the kernels happens — and
    return the trace (its ``runtime`` is the finished run).

    An :class:`OutOfMemoryError` ends the run where a real one would
    die; it is kept on ``plan.error`` and becomes the ``capacity``
    finding.  Anything else the program raises propagates.
    """
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope

    runtime = Runtime(scope, config or RuntimeConfig.legate(validate=False))
    plan = PlanTrace(name=name).bind(runtime)
    try:
        with runtime_scope(runtime):
            plan.result = body()
    except OutOfMemoryError as exc:
        plan.error = exc
    return plan


def trace(
    fn,
    *args,
    machine: Optional[Machine] = None,
    kind=ProcessorKind.GPU,
    procs: Optional[int] = None,
    per_node: Optional[int] = None,
    config=None,
    name: Optional[str] = None,
    **kwargs,
) -> PlanTrace:
    """Dry-run ``fn(*args, **kwargs)`` against a machine (no kernel
    executes); see :func:`dry_run`."""
    scope = _make_scope(machine or laptop(), kind, procs, per_node)
    return dry_run(
        lambda: fn(*args, **kwargs), scope, config,
        name or getattr(fn, "__name__", "trace"),
    )


def analyze(plan: PlanTrace) -> Advice:
    """Report on a finished dry run and run the lint battery over it."""
    if plan.runtime is None:
        raise ValueError("plan is unbound: trace via advisor.trace()")
    report = _Report(plan)
    runtime = plan.runtime
    scope = plan.scope
    config = plan.config
    memories = report.memory_reports()
    _lint_notes(report)
    _lint_dead_writes(report)
    _lint_broadcast(report)
    _lint_restaging(report)
    _lint_capacity_pressure(report, memories)
    _lint_fusion(report)
    _lint_kernel_merge(report)
    _lint_resilience(report)

    machine = scope.machine
    severity_rank = {"error": 0, "warning": 1, "note": 2}
    findings = sorted(
        report.findings, key=lambda f: severity_rank.get(f.severity, 3)
    )
    nodes = {p.node for p in scope.processors}
    return Advice(
        plan_name=plan.name,
        machine=(
            f"{machine.config.nodes} node(s), "
            f"{len(machine.processors)} processors"
        ),
        processors=(
            f"{len(scope.processors)} x {scope.kind.value} "
            f"across {len(nodes)} node(s)"
        ),
        launches=len(plan.ops),
        regions=len({arg.uid for op in plan.ops for arg in op.args}),
        ops=report.op_reports(),
        traffic=report.traffic(),
        memories=memories,
        findings=findings,
        modeled_elapsed_seconds=runtime.elapsed(),
        est_kernel_seconds=runtime.profiler.kernel_seconds,
        est_copy_seconds=copy_seconds(runtime.profiler, machine),
        comm_scale=config.effective_comm_scale,
        predicted=report.log,
        fusion_groups=list(runtime.fusion_log),
        hazard_flushes=runtime.profiler.hazard_flushes,
        caches={"compile": _compile_cache_stats()},
    )


def advise(
    fn,
    *args,
    machine: Optional[Machine] = None,
    kind=ProcessorKind.GPU,
    procs: Optional[int] = None,
    per_node: Optional[int] = None,
    config=None,
    **kwargs,
) -> Advice:
    """Dry-run ``fn`` and analyze the run in one call."""
    plan = trace(
        fn, *args, machine=machine, kind=kind, procs=procs,
        per_node=per_node, config=config, **kwargs
    )
    return analyze(plan)
