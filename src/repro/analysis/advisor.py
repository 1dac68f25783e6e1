"""Static plan advisor: ahead-of-execution analysis of sparse programs.

The dynamic half of :mod:`repro.analysis` (PR 1) validates an execution
*after* it ran, from its event log.  This module is the static half: it
takes a :class:`~repro.analysis.plan.PlanTrace` — recorded by abstract
interpretation of the program in deferred mode, or alongside a real run
— and *predicts* what the runtime would do on a given machine, before
any kernel executes:

* **partition choices** per launch, by running the actual constraint
  solver (:func:`repro.constraints.solver.solve_partitions`) over the
  recorded stores/constraints and replaying the runtime's key-partition
  reuse rule (§4.1);
* **communication volume** per channel class (intra-memory / NVLink /
  NIC), by replaying the mapper's coherence protocol — the same
  missing/find-source walk :meth:`Runtime.launch` performs — into a
  predicted :class:`~repro.analysis.events.EventLog`;
* **per-memory peak footprint**, by replaying instance mapping through
  a fresh :class:`~repro.legion.instance.InstanceManager` against the
  target machine's capacities and framebuffer reservations.

On top of the predicted execution it runs a lint battery: implicit
densification, format-conversion round-trips, broadcast-inducing
constraints, capacity overflow, dead/redundant writes and staging, and
fusible adjacent launches (groundwork for task fusion).

Because the predictor replays the *same* solver and coherence code the
runtime executes, its predicted copies agree exactly with the recorded
event log of a real run (``tests/analysis/test_advisor_agreement.py``).

Entry points: :func:`trace` / :func:`analyze` / :func:`advise` as a
library, ``python -m repro.analysis advise prog.py`` as a CLI.

Unlike the rest of :mod:`repro.analysis`, this module sits *above* the
runtime layers and imports them freely — which is why the package
``__init__`` only exposes it lazily (the runtime imports the package).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import depend
from repro.analysis.costmodel import for_task_name
from repro.analysis.events import EventLog, ReqAccess
from repro.analysis.formatsel import FormatAdvice, advise_formats
from repro.analysis.plan import PlanFree, PlanNote, PlanOp, PlanRegion, PlanTrace
from repro.constraints.solver import solve_partitions
from repro.legion import fusion
from repro.legion.coherence import RegionCoherence
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.instance import InstanceManager
from repro.legion.partition import (
    ExplicitPartition,
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
)
from repro.legion.privilege import Privilege
from repro.legion.task import ShardContext
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
# Configuration and report types
# ----------------------------------------------------------------------
@dataclass
class AdvisorConfig:
    """Lint thresholds (all byte thresholds compare *scaled* bytes)."""

    # Implicit densification: always reported; escalates to an error
    # when the materialized dense array reaches this many bytes.
    densify_error_bytes: int = 1 << 30
    # Replicated (broadcast) read operands are flagged once the extra
    # volume (operand bytes x (colors - 1)) reaches this threshold.
    broadcast_warn_bytes: int = 8 << 20
    # A fragment staged into the same memory this many times or more is
    # reported as redundant staging (data ping-pong).
    restage_warn_count: int = 4
    restage_warn_bytes: int = 1 << 20
    # Peak footprint at or above this fraction of a memory's budget
    # (capacity - reservation) is flagged even when it fits.
    pressure_warn_fraction: float = 0.85
    # Keep at most this many findings per rule (volume guard).
    max_findings_per_rule: int = 16
    # Auto-format pass (repro.analysis.formatsel): walk the plan's SpMV
    # launches, replay ELL / SELL-C-sigma / HYB candidates through the
    # machine model, and report ranked per-operand recommendations plus
    # the format lint battery.  Off by default; ``advise --autoformat``
    # turns it on.  With the pass enabled, an unamortized conversion is
    # an *error* — the flag asks "should this plan run under
    # RuntimeConfig.autoformat?", and the answer must gate CI.
    autoformat: bool = False


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
    flops: float = 0.0
    bytes: float = 0.0
    kernel_seconds: float = 0.0


@dataclass
class MemoryReport:
    """Predicted peak footprint of one memory on the target machine."""

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
    est_kernel_seconds: float = 0.0
    est_copy_seconds: float = 0.0
    comm_scale: float = 1.0
    # The predicted event stream (what the agreement tests compare
    # against a real run's recorded log).
    predicted: EventLog = field(default_factory=EventLog)
    # Predicted fusion groups, in execution order: (sub-launch names,
    # elided temporaries, kernel-fusion verdict label) per group the
    # runtime's deferred window will form.  The label is
    # ``repro.analysis.depend.verdict_label`` — "single", "merged" or
    # "replay:<reason>".  Empty when the analyzed config has fusion
    # disabled.  The fusion agreement test compares this against
    # ``Runtime.fusion_log`` entry for entry.
    fusion_groups: List[Tuple[Tuple[str, ...], int, str]] = field(
        default_factory=list
    )
    # Ranked per-operand format recommendations from the static
    # auto-format pass (empty unless AdvisorConfig.autoformat is on).
    format_advice: List[FormatAdvice] = field(default_factory=list)
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
                    "flops": op.flops,
                    "bytes": op.bytes,
                    "kernel_seconds": op.kernel_seconds,
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
            "est_kernel_seconds": self.est_kernel_seconds,
            "est_copy_seconds": self.est_copy_seconds,
            "comm_scale": self.comm_scale,
            "fusion_groups": [
                {"names": list(names), "elided": elided, "verdict": verdict}
                for names, elided, verdict in self.fusion_groups
            ],
            "format_advice": [fa.to_dict() for fa in self.format_advice],
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
            for cls in ("intra", "nvlink", "nic"):
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
            f"rough time estimate: kernels {self.est_kernel_seconds:.3e}s + "
            f"copies {self.est_copy_seconds:.3e}s"
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
            lines.append("")
        if self.format_advice:
            lines.append("format advice (static auto-format pass):")
            for fa in self.format_advice:
                lines.append(
                    f"  {fa.operand} ({fa.current_fmt}, "
                    f"{fa.rows}x{fa.cols}, nnz {fa.nnz}, row mean "
                    f"{fa.row_mean:.1f} / max {fa.row_max}) over "
                    f"{fa.ops_observed} SpMV launch(es):"
                )
                for cand in fa.decision.candidates:
                    tags = []
                    if cand.fmt == fa.recommended_fmt:
                        tags.append("<- recommended")
                    if cand.fmt == fa.current_fmt:
                        tags.append("(current)")
                    if not cand.bitwise_safe:
                        tags.append("(not bitwise-safe)")
                    be = (
                        f"break-even {cand.break_even_ops:g} ops"
                        if cand.fmt != fa.current_fmt
                        else ""
                    )
                    lines.append(
                        f"    {cand.fmt:5s} {cand.op_seconds:.3e}s/op  "
                        f"{be:22s} {' '.join(tags)}".rstrip()
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


def describe_partition(partition) -> str:
    """A short human-readable label for a partition choice."""
    if isinstance(partition, Replicate):
        return f"replicate x{partition.color_count}"
    if isinstance(partition, Tiling):
        return f"tile x{partition.color_count}"
    if isinstance(partition, ImageByRange):
        return f"image(range) x{partition.color_count}"
    if isinstance(partition, ImageByCoordinate):
        return f"image(coord) x{partition.color_count}"
    if isinstance(partition, ExplicitPartition):
        return f"explicit x{partition.color_count}"
    return type(partition).__name__


# ----------------------------------------------------------------------
# The predictor: replays the plan through solver + mapper, statically
# ----------------------------------------------------------------------
class _Predictor:
    """Replays a plan against a machine scope without running kernels.

    The replay mirrors :meth:`Runtime.launch` operation for operation —
    same shard-to-processor assignment (``procs[color % len(procs)]``),
    same per-requirement staging walk, same fold/allreduce structure —
    so the predicted :class:`EventLog` is copy-for-copy comparable with
    a recorded one.
    """

    def __init__(self, plan: PlanTrace, scope: MachineScope, config, options):
        self.plan = plan
        self.scope = scope
        self.machine: Machine = scope.machine
        self.procs = scope.processors
        self.config = config
        self.options = options
        self.instances = InstanceManager(
            reserved_fb_bytes=config.reserved_fb_bytes,
            coalesce_slack=config.coalesce_slack,
            coalescing=config.coalescing,
            data_scale=config.data_scale,
            inflight_window=config.inflight_pool_window,
        )
        self.log = EventLog(name=f"advise:{plan.name}")
        self.findings: List[Finding] = []
        self._finding_counts: Counter = Counter()
        self.coherence: Dict[int, RegionCoherence] = {}
        self.regions: Dict[int, object] = {}
        self.mem_by_uid = {m.uid: m for m in self.machine.memories}
        self.host_memory = next(
            m for m in self.machine.memories if m.kind == MemoryKind.SYSMEM
        )
        self.traffic: Dict[str, Dict[str, float]] = {}
        self.op_groups: Dict[tuple, OpReport] = {}
        # (op, solution, launch_colors) per replayed task op, in order.
        self.task_ops: List[Tuple[PlanOp, Dict[int, object], int]] = []
        # Deferred-window simulation: the same summaries and planner the
        # runtime uses (repro.legion.fusion), driven by the plan stream
        # plus its "sync" notes, so predicted groups agree exactly with
        # Runtime.fusion_log.
        self._sim_window: List[fusion.LaunchSummary] = []
        # Future of each reduction in the simulated window -> its
        # window position (Runtime._window_roots, by identity).
        self._sim_roots: Dict[Any, int] = {}
        self.fusion_groups: List[Tuple[Tuple[str, ...], int, str]] = []
        # One record per *fused* predicted group, for the kernel-merge
        # lints: names, verdict label, replay-only reason/detail, and
        # the modeled compute a merged nest saves (deduplicated reads +
        # never-rewritten temporaries vs per-kernel accounting).
        self.merge_reports: List[dict] = []
        self._oom_memories: set = set()
        # memory uid -> estimated scaled bytes the runtime would spill
        # (LRU evictions that relieved a would-be OOM under config.spill).
        self._spill_bytes: Counter = Counter()
        self._tick_count = 0.0
        self.est_kernel_seconds = 0.0

    # -- helpers -------------------------------------------------------
    def _tick(self) -> float:
        self._tick_count += 1.0
        return self._tick_count

    def _finding(self, severity: str, rule: str, message: str) -> None:
        self._finding_counts[rule] += 1
        if self._finding_counts[rule] == self.options.max_findings_per_rule + 1:
            self.findings.append(
                Finding("note", rule, "further findings suppressed")
            )
        if self._finding_counts[rule] <= self.options.max_findings_per_rule:
            self.findings.append(Finding(severity, rule, message))

    def _coh(self, region) -> RegionCoherence:
        coh = self.coherence.get(region.uid)
        if coh is None:
            # Region created before the trace began: conservatively treat
            # its contents as host-resident (attach semantics).
            coh = RegionCoherence()
            self.coherence[region.uid] = coh
            if region.rect.volume() > 0:
                coh.mark_valid(self.host_memory.uid, region.rect, 0.0)
        return coh

    def _mem_scale(self, region):
        if region.mem_scale is not None:
            return region.mem_scale
        return self.plan.mem_scale_by_extent.get(region.shape[0])

    def _account(self, src_uid: int, dst_uid: int, nbytes: int) -> None:
        src = self.mem_by_uid[src_uid]
        dst = self.mem_by_uid[dst_uid]
        if src.uid == dst.uid:
            cls = "intra"
        elif src.node == dst.node:
            cls = "nvlink"
        else:
            cls = "nic"
        entry = self.traffic.setdefault(
            cls, {"copies": 0, "bytes": 0.0, "scaled_bytes": 0.0}
        )
        entry["copies"] += 1
        entry["bytes"] += nbytes
        entry["scaled_bytes"] += nbytes * self.config.effective_comm_scale

    # -- replay --------------------------------------------------------
    def run(self) -> None:
        """Replay every plan event (with key partitions reset to the
        state at trace start, then restored)."""
        stores = self.plan.stores()
        saved = [(store, store.key_partition) for store in stores]
        for store in stores:
            store.key_partition = None
        try:
            for event in self.plan.events:
                if isinstance(event, PlanOp):
                    self._replay_op(event)
                elif isinstance(event, PlanRegion):
                    self._replay_region(event)
                elif isinstance(event, PlanFree):
                    self._replay_free(event)
                elif isinstance(event, PlanNote) and event.category == "sync":
                    # The runtime flushes its deferred window at every
                    # sync point (wait/barrier/host read/scope exit);
                    # mirror the split.  Frees do NOT flush.
                    self._close_sim_window()
                # Other PlanNotes are consumed by the lint passes.
            self._close_sim_window()
        finally:
            for store, key in saved:
                store.key_partition = key

    def _replay_region(self, event: PlanRegion) -> None:
        region = event.region
        self.regions[region.uid] = region
        coh = RegionCoherence()
        self.coherence[region.uid] = coh
        if event.attached and region.rect.volume() > 0:
            coh.mark_valid(self.host_memory.uid, region.rect, self._tick())

    def _replay_free(self, event: PlanFree) -> None:
        self.coherence.pop(event.region_uid, None)
        self.instances.free_region(event.region_uid)

    # -- deferred-window simulation ------------------------------------
    def _sim_launch(self, op: PlanOp, requirements, launch_colors) -> None:
        """Feed one replayed launch through the simulated fusion window.

        Mirrors :meth:`Runtime.launch` exactly: fusible launches buffer
        (overflow flushes), everything else flushes and runs eagerly
        (and does not appear in the fusion log).  A launch's ``after``
        edges name the reductions it awaited when recorded that are
        still in the simulated window.
        """
        roots = self._sim_roots
        summary = fusion.summarize(
            op.name,
            launch_colors,
            requirements,
            pointwise=op.pointwise,
            reduction=op.reduction,
            after=tuple(sorted({roots[f] for f in op.awaits if f in roots})),
        )
        if not summary.fusible:
            self._close_sim_window()
            return
        if op.reduction is not None:
            roots[op.future] = len(self._sim_window)
        self._sim_window.append(summary)
        if len(self._sim_window) >= self.config.fusion_window:
            self._close_sim_window()

    def _close_sim_window(self) -> None:
        if not self._sim_window:
            return
        window, self._sim_window = self._sim_window, []
        self._sim_roots.clear()
        local = fusion.local_ids(window)
        kernel_fusion = bool(getattr(self.config, "kernel_fusion", False))
        for group in fusion.plan_window(window):
            names = tuple(window[i].name for i in group.indices)
            # The same classifier the runtime's flush runs, on the same
            # summaries — verdicts agree with Runtime.fusion_log.
            verdict = depend.classify(window, local, group)
            label = depend.verdict_label(group, verdict, kernel_fusion)
            self.fusion_groups.append((names, len(group.elide), label))
            if group.fused:
                self.merge_reports.append(
                    self._merge_report(window, group, verdict, label)
                )

    def _merge_report(self, window, group, verdict, label) -> dict:
        """Model what body-merging one fused group saves (or why not).

        Replay charges every sub-kernel's full traffic; a merged nest
        reads each external operand once and writes each output once,
        with in-group temporaries flowing as nest values.  The delta —
        at data scale, over the scope's memory bandwidth — is the
        modeled compute the ``kernel-merge-applied`` lint reports.
        """
        replay_bytes = 0.0
        merged_bytes = 0.0
        produced: set = set()
        counted: set = set()
        for idx in group.indices:
            summary = window[idx]
            for acc in summary.accesses:
                nbytes = (
                    acc.region.rect.volume() * acc.region.data.dtype.itemsize
                )
                replay_bytes += nbytes
                if summary.reduction is not None:
                    # The nest's epilogue: charged as on its own.
                    merged_bytes += nbytes
                    continue
                uid = acc.region.uid
                if (
                    acc.privilege.reads
                    and uid not in produced
                    and ("r", uid) not in counted
                ):
                    counted.add(("r", uid))
                    merged_bytes += nbytes
                if acc.privilege.writes:
                    if ("w", uid) not in counted:
                        counted.add(("w", uid))
                        merged_bytes += nbytes
                    produced.add(uid)
        saved = max(replay_bytes - merged_bytes, 0.0)
        scale = self.config.data_scale
        seconds = (
            self.procs[0].kernel_time(0.0, saved * scale) if saved else 0.0
        )
        return {
            "names": tuple(window[i].name for i in group.indices),
            "label": label,
            "reason": verdict.reason,
            "detail": verdict.detail,
            "saved_bytes": saved,
            "saved_seconds": seconds,
        }

    def _replay_op(self, op: PlanOp) -> None:
        if op.requirements is not None:
            # Fill path: concrete requirements, no solve, no key update.
            requirements = list(op.requirements)
            solution = None
            fold_partition = None
        else:
            stores = [store for _, store, _ in op.args]
            try:
                solution = solve_partitions(
                    stores,
                    op.constraints,
                    op.colors,
                    reuse_partitions=self.config.reuse_partitions,
                    exact_images=self.config.exact_images,
                )
            except Exception as exc:
                self._finding(
                    "error", "constraints",
                    f"op {op.name!r}: constraint solving failed: {exc}",
                )
                return
            requirements = []
            fold_partition = None
            for name, store, privilege in op.args:
                partition = solution[store.region.uid]
                requirements.append((name, store.region, partition, privilege))
                if privilege == Privilege.REDUCE and fold_partition is None:
                    if isinstance(store.key_partition, Tiling) and (
                        store.key_partition.color_count == op.colors
                    ):
                        fold_partition = store.key_partition
                    else:
                        fold_partition = Tiling.create(store.region, op.colors)

        launch_colors = max(
            (part.color_count for _, _, part, _ in requirements), default=1
        )
        self._sim_launch(op, requirements, launch_colors)
        self._aggregate(op, requirements, launch_colors)
        self._launch(op, requirements, fold_partition, launch_colors)

        if solution is not None:
            # Mirror AutoTask.execute's key-partition updates so later
            # launches reuse partitions exactly like the runtime (§4.1).
            for _, store, privilege in op.args:
                if not privilege.writes:
                    continue
                partition = solution[store.region.uid]
                if privilege == Privilege.REDUCE:
                    store.set_key_partition(fold_partition)
                elif isinstance(partition, Tiling):
                    store.set_key_partition(partition)
            self.task_ops.append((op, solution, launch_colors))
            self._lint_broadcast(op, solution, launch_colors)

    def _launch(self, op, requirements, fold_partition, launch_colors) -> None:
        launch_id = self.log.record_task(op.name, launch_colors)
        privileges = {name: priv for name, _, _, priv in requirements}
        scalar_values = {
            key: getattr(val, "value", val) for key, val in op.scalars.items()
        }
        reduce_writes: Dict[str, List[Tuple[Any, Any]]] = {}

        for color in range(launch_colors):
            proc = self.procs[color % len(self.procs)]
            memory = proc.memory
            arrays: Dict[str, Any] = {}
            rects: Dict[str, Any] = {}
            for name, region, partition, privilege in requirements:
                rect = partition.rect(color)
                arrays[name] = region.data
                rects[name] = rect
                if rect.is_empty():
                    continue
                self._ensure(memory, region, rect)
                if privilege.reads:
                    for piece in partition.pieces(color):
                        self._stage(region, memory, piece)

            flops, nbytes = self._shard_cost(
                op, color, launch_colors, arrays, rects, scalar_values,
                privileges,
            )
            scale = self.config.data_scale
            shard_seconds = proc.kernel_time(
                float(flops) * scale, float(nbytes) * scale
            )
            self.est_kernel_seconds += shard_seconds
            self._record_shard_cost(
                op, requirements, launch_colors, flops, nbytes, shard_seconds
            )

            tick = self._tick()
            for name, region, _partition, privilege in requirements:
                rect = rects[name]
                if rect.is_empty() or not privilege.writes:
                    continue
                if privilege == Privilege.REDUCE:
                    reduce_writes.setdefault(name, []).append((rect, memory))
                else:
                    self._coh(region).mark_written(memory.uid, rect, tick)

            self.log.record_shard(
                launch_id, op.name, color, proc.uid, memory.uid,
                [
                    ReqAccess(
                        name, region.uid, region.name, rects[name],
                        privilege.value,
                        tuple(partition.pieces(color))
                        if privilege.reads else (),
                    )
                    for name, region, partition, privilege in requirements
                ],
                tick, tick,
            )

        for name, region, _partition, _privilege in requirements:
            if name in reduce_writes:
                self._fold(
                    op, region, fold_partition, reduce_writes[name],
                    launch_colors, launch_id,
                )

        if op.reduction is not None:
            self.log.record_allreduce(op.reduction, launch_colors)

    def _shard_cost(
        self, op, color, colors, arrays, rects, scalar_values, privileges
    ) -> Tuple[float, float]:
        """One shard's (flops, bytes), via the recorded cost function."""
        if op.cost_fn is None:
            return 0.0, 0.0
        try:
            ctx = ShardContext(
                color, colors, arrays, rects, scalar_values, self.config,
                privileges,
            )
            flops, nbytes = op.cost_fn(ctx)
            return float(flops), float(nbytes)
        except Exception:
            # A cost function may touch values the deferred trace never
            # produced; fall back to the registered kernel model, if any.
            model = for_task_name(op.name)
            if model is not None:
                rect = next(
                    (r for r in rects.values() if not r.is_empty()), None
                )
                if rect is not None:
                    nnz = rect.volume()
                    est = model.evaluate(nnz, nnz, nnz)
                    return est["flops"], est["bytes"]
            return 0.0, 0.0

    def _record_shard_cost(self, op, requirements, colors, flops, nbytes, seconds):
        key = self._group_key(op, requirements, colors)
        report = self.op_groups[key]
        report.flops += flops
        report.bytes += nbytes
        report.kernel_seconds += seconds

    def _ensure(self, memory, region, rect) -> None:
        try:
            self.instances.ensure(
                memory, region.uid, rect, region.itemsize,
                scale=self._mem_scale(region),
            )
            return
        except OutOfMemoryError as exc:
            first = exc
        if getattr(self.config, "spill", False):
            # The runtime would relieve the pressure instead of dying:
            # model its policy (pool drain, then LRU eviction) and count
            # the evicted bytes as estimated spill traffic.  Evicting
            # clean vs. spilling dirty is a coherence distinction the
            # static replay cannot make, so every evicted byte is
            # (pessimistically) charged as spill.
            state = self.instances.state(memory)
            state.drain_pool()
            freed = state.evict_lru(first.requested)
            try:
                self.instances.ensure(
                    memory, region.uid, rect, region.itemsize,
                    scale=self._mem_scale(region),
                )
                self._spill_bytes[memory.uid] += int(freed)
                return
            except OutOfMemoryError:
                pass  # even a drained memory cannot hold it: hard OOM
        if memory.uid not in self._oom_memories:
            self._oom_memories.add(memory.uid)
            hint = (
                "" if getattr(self.config, "spill", False)
                else " (config.spill would degrade this to spill traffic)"
            )
            self._finding(
                "error", "capacity",
                f"memory {_mem_name(memory)} overflows while mapping "
                f"region {region.name!r}: {first}{hint}",
            )

    def _stage(self, region, memory, rect) -> None:
        """The mapper's staging walk: derive the copies a shard needs."""
        coh = self._coh(region)
        for piece in coh.missing(memory.uid, rect):
            for src_uid, frag, _t in coh.find_source(piece, exclude=memory.uid):
                nbytes = frag.volume() * region.itemsize
                self.log.record_copy(
                    region.uid, region.name, frag, src_uid, memory.uid, nbytes
                )
                self._account(src_uid, memory.uid, nbytes)
                coh.mark_valid(memory.uid, frag, self._tick())

    def _fold(
        self, op, region, fold_partition, writes, launch_colors, launch_id
    ) -> None:
        owner = fold_partition or Tiling.create(region, launch_colors)
        coh = self._coh(region)
        for color in range(owner.color_count):
            proc = self.procs[color % len(self.procs)]
            memory = proc.memory
            tile = owner.rect(color)
            if tile.is_empty():
                continue
            for rect, src_mem in writes:
                overlap = tile.intersect(rect)
                if overlap.is_empty():
                    continue
                nbytes = overlap.volume() * region.itemsize
                if src_mem.uid != memory.uid:
                    self.log.record_copy(
                        region.uid, region.name, overlap,
                        src_mem.uid, memory.uid, nbytes, why="fold",
                    )
                    self._account(src_mem.uid, memory.uid, nbytes)
            coh.mark_written(memory.uid, tile, self._tick())
            self.log.record_fold(
                launch_id, op.name, region.uid, region.name, tile, memory.uid
            )

    # -- aggregation ---------------------------------------------------
    def _group_key(self, op, requirements, colors) -> tuple:
        return (
            op.name, colors,
            tuple(
                (name, describe_partition(part))
                for name, _, part, _ in requirements
            ),
        )

    def _aggregate(self, op, requirements, colors) -> None:
        key = self._group_key(op, requirements, colors)
        report = self.op_groups.get(key)
        if report is None:
            self.op_groups[key] = report = OpReport(
                name=op.name, count=0, colors=colors,
                partitions={
                    name: describe_partition(part)
                    for name, _, part, _ in requirements
                },
            )
        report.count += 1

    # -- lints run during replay --------------------------------------
    def _lint_broadcast(self, op, solution, colors) -> None:
        if colors <= 1:
            return
        for name, store, privilege in op.args:
            partition = solution[store.region.uid]
            if not isinstance(partition, Replicate) or not privilege.reads:
                continue
            extra = store.region.nbytes * (colors - 1) * self.config.data_scale
            if extra >= self.options.broadcast_warn_bytes:
                self._finding(
                    "warning", "broadcast",
                    f"op {op.name!r}: argument {name!r} "
                    f"(region {store.region.name!r}, "
                    f"{_fmt_bytes(store.region.nbytes)}) is replicated to "
                    f"{colors} shards — {_fmt_bytes(extra)} of extra "
                    f"transfer/footprint; consider an alignment or image "
                    f"constraint instead",
                )


def _mem_name(memory) -> str:
    kind = "fb" if memory.kind == MemoryKind.FRAMEBUFFER else "sysmem"
    return f"{kind}[{memory.uid}]@node{memory.node}"


# ----------------------------------------------------------------------
# Post-replay lint passes over the plan + predicted execution
# ----------------------------------------------------------------------
def _lint_notes(predictor: _Predictor, plan: PlanTrace) -> None:
    """Densification and conversion-churn findings from library notes."""
    options = predictor.options
    scale = predictor.config.data_scale
    ancestry: Dict[int, List[str]] = {}  # object id -> format chain
    seen_conversions: Counter = Counter()
    for note in plan.notes:
        info = note.info
        if note.category == "densify":
            nbytes = float(info.get("nbytes", 0)) * scale
            severity = (
                "error" if nbytes >= options.densify_error_bytes else "warning"
            )
            predictor._finding(
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
                predictor._finding(
                    "warning", "convert-roundtrip",
                    f"format round-trip {' -> '.join(chain)} "
                    f"({_fmt_bytes(float(info.get('nbytes', 0)) * scale)} "
                    f"scaled) — each hop is a full conversion kernel/sort",
                )
            seen_conversions[(src_id, dst_fmt)] += 1
            if seen_conversions[(src_id, dst_fmt)] == 2:
                predictor._finding(
                    "warning", "convert-repeated",
                    f"the same matrix is converted {src_fmt} -> {dst_fmt} "
                    f"repeatedly — hoist the conversion out of the loop",
                )


def _lint_dead_writes(predictor: _Predictor, plan: PlanTrace) -> None:
    """WRITE_DISCARD over an unread previous write = dead computation."""
    pending: Dict[int, Tuple[int, str]] = {}  # region uid -> (op idx, name)
    for idx, op in enumerate(plan.ops):
        accesses: List[Tuple[object, Privilege]] = []
        if op.requirements is not None:
            accesses = [(region, priv) for _, region, _, priv in op.requirements]
        else:
            accesses = [(store.region, priv) for _, store, priv in op.args]
        # Reads first (WRITE observes previous contents; REDUCE
        # accumulates onto them), then writes.
        for region, priv in accesses:
            if priv.reads or priv == Privilege.REDUCE:
                pending.pop(region.uid, None)
        for region, priv in accesses:
            if not priv.writes or priv == Privilege.REDUCE:
                continue
            if priv == Privilege.WRITE_DISCARD and region.uid in pending:
                prev_idx, prev_name = pending[region.uid]
                predictor._finding(
                    "warning", "dead-write",
                    f"op {op.name!r} (launch #{idx}) discards region "
                    f"{region.name!r} written by {prev_name!r} "
                    f"(launch #{prev_idx}) that nothing read — the earlier "
                    f"write (and its copies) is dead",
                )
            if priv in (Privilege.WRITE, Privilege.WRITE_DISCARD):
                pending[region.uid] = (idx, op.name)


def _lint_restaging(predictor: _Predictor) -> None:
    """The same fragment staged into the same memory many times."""
    options = predictor.options
    counts: Counter = Counter()
    volumes: Counter = Counter()
    names: Dict[tuple, str] = {}
    for ev in predictor.log.events:
        if getattr(ev, "kind", "") != "copy" or ev.why != "stage":
            continue
        key = (ev.region, ev.rect, ev.dst_memory)
        counts[key] += 1
        volumes[key] += ev.nbytes
        names[key] = ev.region_name
    for key, count in counts.most_common():
        if count < options.restage_warn_count:
            break
        total = volumes[key] * predictor.config.effective_comm_scale
        if total < options.restage_warn_bytes:
            continue
        region, rect, dst = key
        predictor._finding(
            "note", "restage",
            f"region {names[key]!r} fragment {rect} staged into memory "
            f"{dst} {count} times ({_fmt_bytes(total)} scaled total) — "
            f"it is invalidated between uses (writer/reader ping-pong)",
        )


def _lint_capacity_pressure(predictor: _Predictor) -> None:
    options = predictor.options
    for memory in predictor.machine.memories:
        peak = predictor.instances.peak_bytes(memory)
        if peak <= 0:
            continue
        state = predictor.instances.state(memory)
        budget = memory.capacity - state.reserved_bytes
        if budget <= 0:
            continue
        if memory.uid in predictor._oom_memories:
            continue  # already an error
        if memory.uid in predictor._spill_bytes:
            # Would-be OOMs that config.spill relieves: the run completes
            # but pays eviction/spill traffic — a warning, not an error.
            spilled = predictor._spill_bytes[memory.uid]
            predictor._finding(
                "warning", "spill",
                f"memory {_mem_name(memory)} exceeds its "
                f"{_fmt_bytes(budget)} budget; graceful degradation "
                f"evicts/spills an estimated {_fmt_bytes(spilled)} "
                f"(runtime policy: LRU clean eviction, then dirty spill "
                f"to system memory)",
            )
            continue
        if peak / budget >= options.pressure_warn_fraction:
            predictor._finding(
                "warning", "memory-pressure",
                f"memory {_mem_name(memory)} peaks at {_fmt_bytes(peak)} of "
                f"{_fmt_bytes(budget)} budget ({peak / budget:.0%}) — "
                f"allocator churn territory "
                f"(threshold {options.pressure_warn_fraction:.0%})",
            )


def _lint_fusion(predictor: _Predictor) -> None:
    """Report the exact groups the deferred window will (or would) fuse.

    The groups come from the predictor's window simulation, which runs
    the runtime's own planner (:func:`repro.legion.fusion.plan_window`)
    over the plan stream — so with fusion enabled these findings are a
    statement of fact, not a heuristic: the runtime's ``fusion_log``
    will contain exactly these groups.
    """
    enabled = bool(getattr(predictor.config, "fusion", False))
    for names, elided, _verdict in predictor.fusion_groups:
        if len(names) <= 1:
            continue
        verb = (
            "will fuse" if enabled
            else "would fuse (config.fusion is disabled)"
        )
        extra = f", eliding {elided} temporar{'y' if elided == 1 else 'ies'}" if elided else ""
        predictor._finding(
            "note", "fusible",
            f"{len(names)} launches {verb} into one task"
            f"{extra}: {' + '.join(names)}",
        )


def _lint_kernel_merge(predictor: _Predictor) -> None:
    """Report per-group kernel-fusion verdicts from the dependence pass.

    ``kernel-merge-applied`` (info): the group is merge-safe and will
    execute as one generated loop nest, with the modeled compute the
    merge saves.  ``kernel-merge-blocked`` (warning): the dependence
    analyzer proved the group must replay, naming the blocking rule and
    the concrete launch/edge behind it.  Groups replaying only because
    ``config.kernel_fusion`` is off are not user-actionable per group
    and produce no finding.
    """
    if not bool(getattr(predictor.config, "kernel_fusion", False)):
        return
    for report in predictor.merge_reports:
        names = " + ".join(report["names"])
        if report["label"] == "merged":
            saved = report["saved_seconds"]
            predictor._finding(
                "note", "kernel-merge-applied",
                f"{len(report['names'])} kernels merge into one loop "
                f"nest ({names}); modeled compute saved: {saved:.3e}s",
            )
        elif report["reason"] is not None:
            predictor._finding(
                "warning", "kernel-merge-blocked",
                f"group ({names}) replays sub-kernels: "
                f"[{report['reason']}] {report['detail']}",
            )


def _lint_resilience(predictor: _Predictor) -> None:
    """The resilience pass: predicted checkpoint cost and fault lints.

    Reads the chaos config the plan would run under and the predictor's
    replayed coherence (the written sets an epoch would snapshot):

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
    chaos = getattr(predictor.config, "chaos", None)
    if chaos is None:
        return
    machine = predictor.machine
    domains = len(
        {m.node for m in machine.memories if m.kind == MemoryKind.SYSMEM}
    )
    replicas = getattr(chaos, "ckpt_replicas", 1)
    effective = min(replicas, domains) if domains else 0
    node_losses = [l for l in chaos.losses if l.kind == "node"]

    # Predicted per-epoch snapshot: the written volume at end of plan
    # (what a steady-state epoch must protect), scaled like the
    # runtime's checkpoint copies.
    snap_bytes = 0.0
    for uid, coh in predictor.coherence.items():
        if coh.written.is_empty():
            continue
        itemsize = getattr(predictor.regions.get(uid), "itemsize", 8)
        snap_bytes += coh.written.volume() * itemsize
    snap_bytes *= predictor.config.effective_comm_scale
    repl_bytes = snap_bytes * max(effective - 1, 0)

    if chaos.losses and chaos.checkpoint_every == 0:
        predictor._finding(
            "warning", "unprotected-run",
            f"{len(chaos.losses)} loss(es) scheduled with "
            f"checkpoint_every=0: no checkpoint epoch bounds the "
            f"journal, so any loss replays the entire run (and at "
            f"ckpt_replicas=1 a node-0 loss is fatal with nothing "
            f"snapshotted at all)",
        )
    if node_losses and replicas == 1:
        predictor._finding(
            "warning", "under-replicated",
            f"{len(node_losses)} node loss(es) scheduled with "
            f"ckpt_replicas=1: the single node-0 checkpoint store is a "
            f"single point of failure — losing its node is "
            f"unconditionally fatal; set ckpt_replicas >= 2 to survive "
            f"store loss",
        )
    if replicas > domains > 0:
        predictor._finding(
            "warning", "under-replicated",
            f"ckpt_replicas={replicas} exceeds the machine's {domains} "
            f"sysmem fault domain(s); effective replication is only "
            f"{effective}",
        )
    if chaos.checkpoint_every > 0 or chaos.losses:
        detect = getattr(chaos, "heartbeat_period", 0.0) + getattr(
            chaos, "detection_timeout", 0.0
        )
        launches = max(len(predictor.task_ops), 1)
        # Replay re-times kernels and launch overhead (it skips only
        # the numerics), so a replayed launch costs about what the
        # original did.
        per_launch = (
            predictor.est_kernel_seconds / launches
            + predictor.config.launch_overhead
        )
        epoch = chaos.checkpoint_every or launches
        nic_bw = machine.config.nic_bandwidth
        restore = snap_bytes / nic_bw if nic_bw else 0.0
        worst = detect + chaos.recovery_delay + restore + epoch * per_launch
        predictor._finding(
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


def trace(
    fn,
    *args,
    machine: Optional[Machine] = None,
    kind=ProcessorKind.GPU,
    procs: Optional[int] = None,
    per_node: Optional[int] = None,
    config=None,
    deferred: bool = True,
    name: Optional[str] = None,
    **kwargs,
) -> PlanTrace:
    """Trace ``fn`` into a plan against a machine, without executing
    kernels (``deferred=True``) or alongside real execution."""
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope

    machine = machine or laptop()
    scope = _make_scope(machine, kind, procs, per_node)
    # Alongside mode pairs the plan with a real validated run whose
    # event log the copy-agreement tests compare per-op — fusion stays
    # off there so the comparison is launch-for-launch.  Deferred mode
    # analyzes the default (fusion-enabled) runtime.
    config = config or RuntimeConfig.legate(
        validate=not deferred, fusion=deferred
    )
    runtime = Runtime(scope, config)
    plan = PlanTrace(
        name=name or getattr(fn, "__name__", "trace"), deferred=deferred
    )
    plan.bind(runtime)
    runtime.plan_trace = plan
    try:
        with runtime_scope(runtime):
            plan.result = fn(*args, **kwargs)
    finally:
        runtime.plan_trace = None
    return plan


def analyze(
    plan: PlanTrace,
    scope: Optional[MachineScope] = None,
    config=None,
    options: Optional[AdvisorConfig] = None,
) -> Advice:
    """Statically predict the plan's execution and run the lint battery."""
    scope = scope or plan.scope
    config = config or plan.config
    if scope is None or config is None:
        raise ValueError(
            "plan is unbound: pass scope= and config= or trace via "
            "advisor.trace()"
        )
    options = options or AdvisorConfig()
    predictor = _Predictor(plan, scope, config, options)
    predictor.run()
    _lint_notes(predictor, plan)
    _lint_dead_writes(predictor, plan)
    _lint_restaging(predictor)
    _lint_capacity_pressure(predictor)
    _lint_fusion(predictor)
    _lint_kernel_merge(predictor)
    _lint_resilience(predictor)

    format_advice: List[FormatAdvice] = []
    if options.autoformat:
        # The pass answers "should this plan run under
        # RuntimeConfig.autoformat?" — so unamortized conversions
        # escalate to errors (autoformat_on) and gate the CLI exit code.
        format_advice, format_lints = advise_formats(
            plan, scope, config, autoformat_on=True
        )
        for severity, rule, message in format_lints:
            predictor._finding(severity, rule, message)

    machine = scope.machine
    cfg = machine.config
    memories = []
    for memory in machine.memories:
        peak = predictor.instances.peak_bytes(memory)
        if peak <= 0:
            continue
        state = predictor.instances.state(memory)
        memories.append(
            MemoryReport(
                memory=_mem_name(memory),
                kind=memory.kind.value,
                node=memory.node,
                peak_bytes=int(peak),
                capacity=int(memory.capacity),
                reserved_bytes=int(state.reserved_bytes),
            )
        )

    est_copy = 0.0
    class_bandwidth = {
        "intra": cfg.intra_memory_bandwidth,
        "nvlink": cfg.nvlink_bandwidth,
        "nic": cfg.nic_bandwidth,
    }
    for cls, entry in predictor.traffic.items():
        est_copy += entry["scaled_bytes"] / class_bandwidth[cls]

    severity_rank = {"error": 0, "warning": 1, "note": 2}
    findings = sorted(
        predictor.findings, key=lambda f: severity_rank.get(f.severity, 3)
    )
    ops = sorted(
        predictor.op_groups.values(), key=lambda r: -r.count
    )
    nodes = {p.node for p in scope.processors}
    return Advice(
        plan_name=plan.name,
        machine=f"{cfg.nodes} node(s), {len(machine.processors)} processors",
        processors=(
            f"{len(scope.processors)} x {scope.kind.value} "
            f"across {len(nodes)} node(s)"
        ),
        launches=len(plan.ops),
        regions=sum(1 for e in plan.events if isinstance(e, PlanRegion)),
        ops=ops,
        traffic=predictor.traffic,
        memories=memories,
        findings=findings,
        est_kernel_seconds=predictor.est_kernel_seconds,
        est_copy_seconds=est_copy,
        comm_scale=config.effective_comm_scale,
        predicted=predictor.log,
        # The simulation always runs (the lint reports hypothetical
        # groups either way), but only a fusion-enabled runtime actually
        # forms them — an agreement comparison against a fusion-off run
        # should see none.
        fusion_groups=(
            list(predictor.fusion_groups)
            if getattr(config, "fusion", False)
            else []
        ),
        format_advice=format_advice,
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
    options: Optional[AdvisorConfig] = None,
    **kwargs,
) -> Advice:
    """Trace ``fn`` in deferred mode and analyze it in one call."""
    plan = trace(
        fn, *args, machine=machine, kind=kind, procs=procs,
        per_node=per_node, config=config, deferred=True, **kwargs
    )
    return analyze(plan, options=options)
