"""Dry-run capture: what the advisor keeps of a kernel-free run.

Attaching a :class:`PlanTrace` to a runtime (:meth:`PlanTrace.bind`)
makes that runtime a **dry run**: constraints are solved, the deferred
window plans and fuses, launches map, stage, fold, allreduce, checkpoint,
spill and charge both clocks exactly as always — only ``task.kernel`` is
never called.  Scalar reductions fold *placeholder* partials
(:meth:`PlanTrace.deferred_scalar`: NaN for norms/dots so convergence
loops run to ``maxiter``; 0 for counting reductions so sizing code stays
well-defined) and their futures resolve at the real modeled time.

The advisor (:mod:`repro.analysis.advisor`) then reads the run's own
event log, profiler, instance manager, coherence and ``fusion_log``.
What those do not keep, the trace records as the run goes:

* one :class:`PlanOp` per issued launch, taken in ``Runtime.launch``
  where requirements are concrete — op name, colors and per argument
  the region's identity and size, the privilege and the partition
  choice;
* one :class:`PlanGroup` per fused group the window flushes, with the
  dependence pass's verdict for the kernel-merge lints;
* library annotations (:class:`PlanNote`: "this op densified", "this op
  converted formats").

None of these holds a ``Store`` or a ``Region``, so a traced program
frees its temporaries exactly as an untraced one does.

This module imports nothing from :mod:`repro.legion`,
:mod:`repro.constraints` or :mod:`repro.distal`: the runtime passes its
launch/group objects in and the trace reads them by attribute, so the
runtime can import this module without cycles (the same rule as the
rest of :mod:`repro.analysis`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.events import EventLog

_PARTITION_LABELS = {
    "Replicate": "replicate",
    "Tiling": "tile",
    "ImageByRange": "image(range)",
    "ImageByCoordinate": "image(coord)",
    "ExplicitPartition": "explicit",
}


def describe_partition(partition) -> str:
    """A short human-readable label for a partition choice."""
    kind = type(partition).__name__
    label = _PARTITION_LABELS.get(kind)
    if label is None:
        return kind
    return f"{label} x{partition.color_count}"


class PlanArg:
    """One requirement of a recorded launch, without its region."""

    __slots__ = (
        "name", "uid", "region", "shape", "itemsize", "privilege", "partition",
    )

    def __init__(self, req):
        region = req.region
        self.name: str = req.name
        self.uid: int = region.uid
        self.region: str = region.name
        self.shape: Tuple[int, ...] = region.shape
        self.itemsize: int = region.itemsize
        self.privilege = req.privilege
        self.partition: str = describe_partition(req.partition)

    @property
    def nbytes(self) -> int:
        """Logical size of the whole region in bytes."""
        return math.prod(self.shape) * self.itemsize


class PlanOp:
    """One launch as issued (before the window fuses it)."""

    __slots__ = ("name", "colors", "args", "reduction")

    def __init__(self, task):
        self.name: str = task.name
        self.colors: int = task.color_count
        self.args: List[PlanArg] = [PlanArg(req) for req in task.requirements]
        self.reduction: Optional[str] = task.reduction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanOp({self.name!r}, colors={self.colors})"


class PlanGroup:
    """One fused group a window flush executed, with the dependence
    pass's verdict: ``label`` is the fusion-log label, ``reason`` and
    ``detail`` say what blocked a body merge (``reason`` None when the
    group merged)."""

    __slots__ = ("members", "label", "reason", "detail")

    def __init__(self, group, tasks):
        self.members: List[PlanOp] = [PlanOp(task) for task in tasks]
        self.label: str = group.label
        self.reason: Optional[str] = group.verdict.reason
        self.detail: str = group.verdict.detail

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(op.name for op in self.members)


class PlanNote:
    """A library annotation: densification, format conversion, etc."""

    __slots__ = ("category", "info")

    def __init__(self, category: str, info: Dict[str, Any]):
        self.category = category
        self.info = info


class PlanTrace:
    """What one dry run recorded beside its runtime's own logs."""

    def __init__(self, name: str = "trace"):
        self.name = name
        self.ops: List[PlanOp] = []
        self.groups: List[PlanGroup] = []
        self.notes: List[PlanNote] = []
        # The dry run itself (bind()).
        self.runtime = None
        # What the traced program returned, or the OutOfMemoryError
        # that ended it (advisor.dry_run).
        self.result: Any = None
        self.error: Optional[Exception] = None

    # ------------------------------------------------------------------
    def bind(self, runtime) -> "PlanTrace":
        """Make ``runtime`` a dry run recorded by this trace.

        The run keeps an event log for the advisor's copy lints; its
        ``config.validate`` stays as given, so nothing is poisoned and
        no stale-read assertion runs unless asked for.
        """
        self.runtime = runtime
        runtime.plan_trace = self
        if runtime.event_log is None:
            runtime.event_log = EventLog(name=f"advise:{self.name}")
        return self

    @property
    def config(self):
        """The dry run's :class:`~repro.legion.runtime.RuntimeConfig`."""
        return self.runtime.config

    @property
    def scope(self):
        """The dry run's machine scope."""
        return self.runtime.scope

    # ------------------------------------------------------------------
    # Recording (called from the runtime and the format classes)
    # ------------------------------------------------------------------
    def record_launch(self, task) -> None:
        """Record a launch as ``Runtime.launch`` receives it."""
        self.ops.append(PlanOp(task))

    def record_group(self, group, tasks) -> None:
        """Record a fused group as ``Runtime._flush`` executes it."""
        self.groups.append(PlanGroup(group, tasks))

    def record_note(self, category: str, **info) -> None:
        """Record a library annotation (densify, convert, ...)."""
        self.notes.append(PlanNote(category, info))

    # ------------------------------------------------------------------
    # Placeholder policy for skipped scalar reductions
    # ------------------------------------------------------------------
    def deferred_scalar(self, task_name: str) -> float:
        """The placeholder value a skipped scalar reduction returns.

        NaN for norms/dots: any ``float(x) <= tol`` convergence branch
        is False, so iterative solvers run to ``maxiter`` — the
        conservative (maximal) plan.  Counting reductions return 0 so
        ``int(...)`` sizing of two-pass assembly stays well-defined.
        """
        lowered = task_name.lower()
        if "count" in lowered or "nnz" in lowered:
            return 0.0
        return math.nan

    def placeholder(self, task):
        """What every shard of a skipped reducing launch "returns": one
        placeholder, or for a fused group one per member reduction —
        the values ``Runtime.launch`` put on the members' pending
        futures."""
        if type(task.reduction) is str:
            return self.deferred_scalar(task.name)
        return [future.value for future in task.future]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanTrace({self.name!r}, {len(self.ops)} ops, "
            f"{len(self.groups)} fused groups, {len(self.notes)} notes)"
        )
