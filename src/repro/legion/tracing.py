"""Traces: a loop body's launches captured once, replayed on both clocks.

The paper attributes the GMG and quantum workloads' single-GPU gap to
Legate's per-task launching overheads and points to *dynamic tracing*
(Lee et al., SC '18) and task fusion as the fix.  This module is the
tracing half.  A :class:`Trace` scope watches the launches *issued*
inside it; once a body has been captured, a later body whose launches
match it position by position replays it:

* on the **modeled** clock a replayed launch is charged
  ``RuntimeConfig.trace_replay_fraction`` of the launch overhead (Legion
  replays the memoized dependence analysis instead of redoing it);
* on the **host** clock the runtime skips what the capturing iteration
  already derived.  Each trace position owns a :class:`LaunchSlot`
  holding the launch's *templates*: the constraint-solve plan
  (``AutoTask.execute``), the window-admission verdict
  (``Runtime.launch``), the deferred window's planned groups and their
  generated nests (``Runtime._flush``) and the requirement-major row
  shapes, privileges and batched-write verdict (``Runtime._execute_task``).

Usage (idiomatic Legion tracing; ``cg`` and the GMG V-cycles do this
themselves)::

    trace = runtime.trace("cg-iteration", key=(n,))
    for it in range(iters):
        with trace:
            ...   # the loop body: the same launches each time

**Ownership.**  The runtime owns its traces: ``Runtime.trace(name,
key)`` hands out the one trace of that id (created on first use, a
bounded registry, dropped by ``reset_for_program``).  ``Trace(rt,
name)`` builds a private one.  A scope opened while another is active
*joins* it, so ``cg`` -> ``vcycle`` -> coarse ``cg`` is one trace per
outer iteration.

**Matching** is by a structural *fingerprint* per position — task
name, color count, body IR and, per requirement, privilege, region
shape and dtype, partition geometry and the region's first-use index
within the body (which pins aliasing inside a launch and the dataflow
between launches) — never by task name alone.  Matching happens when a
launch is *issued*, so a scope boundary never flushes the deferred
window: launches still deferred when the scope closes keep their tags
and execute, discounted, whenever the program next flushes.  The first
mismatch runs the rest of the body dynamically at full cost and the
trace re-captures; a trace whose body diverges every time (data-
dependent inner iteration counts) backs off and stops recording for a
while.  A body that ends early — the convergence check returned — is a
prefix of the capture and leaves it alone.

**What a template may hold**: ints, tuples, rects, plans and generated
nests — never a ``Region`` or ``Partition`` (a region kept alive by a
template never reaches its destructor; see ``SolveMemo``).  Templates
are structural, so they are valid wherever their fingerprint matches;
the runtime additionally bumps a *template epoch* on recovery, memory
loss, pressure relief and ``reset_for_program``, and a trace captured
under another epoch re-captures (Legion's physical traces are
invalidated by the same events).  Journal replay after a loss never
goes through a trace: recovery launches are charged in full and the
open body diverges.

Kernels always execute and numerics are untouched; with
``trace_replay_fraction=1.0`` a traced run is bit-for-bit the untraced
one (event log, modeled seconds, LRU order), which is how the templates
are tested.  The speedup is measured in ``benchmarks/test_tracing.py``
and by the ``gmg_small_tasks`` workload of ``bench/``.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.legion.partition import (
    ExplicitPartition,
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
)
from repro.legion.task import TaskLaunch

if TYPE_CHECKING:  # pragma: no cover
    from repro.legion.runtime import Runtime

# Slot uids and body serials: one process-wide sequence, never reused.
_serial = count(1)


class LaunchSlot:
    """One captured trace position: its fingerprint and host templates."""

    __slots__ = (
        "uid", "born", "fingerprint", "solve_plan", "fusible", "exec",
        "windows",
    )

    def __init__(self, fingerprint: Optional[tuple], born: int) -> None:
        self.uid = next(_serial)
        # Serial of the body that created the slot: a launch tagged by
        # a later body is a replay.
        self.born = born
        self.fingerprint = fingerprint
        # constraints.solver.solution_plan recipe (AutoTask.execute).
        self.solve_plan: Optional[tuple] = None
        # Whether the launch enters the deferred window (Runtime.launch).
        self.fusible: Optional[bool] = None
        # Execution template of the launch run on its own
        # (Runtime._execute_task).
        self.exec: Any = None
        # Windows that start at this position: slot uids of the
        # window's launches -> its planned groups (Runtime._flush).
        self.windows: Optional[Dict[tuple, list]] = None


def launch_fingerprint(task: TaskLaunch, ids: Dict[int, int]) -> Optional[tuple]:
    """The structural fingerprint of a solved launch, or None.

    ``ids`` numbers regions by first use within the trace body.  None
    means a partition kind whose geometry the fingerprint cannot pin.
    """
    rows = []
    for req in task.requirements:
        region = req.region
        uid = region.uid
        lid = ids.get(uid)
        if lid is None:
            lid = ids[uid] = len(ids)
        part = req.partition
        kind = type(part)
        if kind is Tiling:
            geometry: Any = part.boundaries
            if part.region is not region:
                geometry = (part.region.uid, geometry)
        elif kind is Replicate:
            geometry = part.color_count
        elif kind is ImageByCoordinate:
            geometry = part.tables()
        elif kind is ImageByRange or kind is ExplicitPartition:
            geometry = ("rects", tuple(part._rects))
        else:
            return None
        rows.append(
            (req.name, req.privilege, lid, region.shape, region.dtype, geometry)
        )
    fold = task.fold_partition
    return (
        task.name,
        task.pointwise,
        task.reduction,
        None if fold is None else getattr(fold, "boundaries", fold.color_count),
        tuple(rows),
    )


class Trace:
    """Capture-then-replay scope for a repeated launch sequence."""

    # Consecutive divergent bodies before the trace stops recording,
    # and the longest it stays off (bodies; doubles per further miss).
    BACKOFF_AFTER = 3
    MAX_SLEEP = 32

    def __init__(self, runtime: "Runtime", name: str = "trace"):
        self.runtime = runtime
        self.name = name
        self._captured: Optional[List[LaunchSlot]] = None
        self._body: Optional[List[LaunchSlot]] = None
        # Region uid -> first-use index within the open body.
        self.ids: Dict[int, int] = {}
        self._serial = 0
        self._epoch = -1
        self._diverged = False
        self._failed = False
        self._streak = 0
        self._sleep = 0
        self.replays = 0
        self.captures = 0
        self.divergences = 0
        self.backoffs = 0
        # Executed launches charged at the replay fraction.
        self.replayed_launches = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "Trace":
        rt = self.runtime
        if rt._trace is not None:
            # Joins the open scope: its body simply continues.
            rt._trace_depth += 1
            return self
        rt._trace = self
        rt._trace_depth = 1
        self._begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        rt = self.runtime
        owner = rt._trace
        if owner is None:  # reset_for_program closed the scope
            return
        if exc_type is not None:
            owner._failed = True
        rt._trace_depth -= 1
        if rt._trace_depth == 0:
            rt._trace = None
            owner._end()

    def _begin(self) -> None:
        self._failed = False
        self._diverged = False
        self.ids = {}
        if self._sleep:
            self._sleep -= 1
            self._body = None
            return
        epoch = self.runtime._template_epoch
        if self._epoch != epoch:
            # Captured under another template epoch: capture afresh.
            self._captured = None
            self._epoch = epoch
        self._serial = next(_serial)
        self._body = []

    def _end(self) -> None:
        body, self._body = self._body, None
        if body is None or self._failed:
            return
        if self.runtime._template_epoch != self._epoch:
            # The epoch moved under the body: nothing of it is kept.
            self._captured = None
            return
        captured = self._captured
        if captured is None:
            self._captured = body
            self.captures += 1
        elif self._diverged:
            # Re-capture (Legion would abort the trace; we degrade
            # gracefully).  Slots matched before the mismatch carry over.
            self._captured = body
            self.captures += 1
            self.divergences += 1
            self._streak += 1
            if self._streak >= self.BACKOFF_AFTER:
                self._sleep = min(
                    2 ** (self._streak - self.BACKOFF_AFTER), self.MAX_SLEEP
                )
                self.backoffs += 1
        elif len(body) == len(captured):
            self.replays += 1
            self._streak = 0

    # ------------------------------------------------------------------
    @property
    def recording(self) -> bool:
        """Whether a body is open and being matched or captured."""
        return self._body is not None

    def advance(self, fingerprint: Optional[tuple]) -> LaunchSlot:
        """The slot of the next position of the open body.

        The captured slot when the fingerprint matches it (a replay);
        otherwise the body has diverged and a fresh slot is recorded.
        """
        body = self._body
        captured = self._captured
        if captured is not None and not self._diverged:
            pos = len(body)
            if fingerprint is not None and pos < len(captured):
                slot = captured[pos]
                if slot.fingerprint == fingerprint:
                    body.append(slot)
                    return slot
            self._diverged = True
        slot = LaunchSlot(fingerprint, self._serial)
        body.append(slot)
        return slot

    def tag(self, task: TaskLaunch, slot: LaunchSlot) -> None:
        """Attach a position's slot to the launch issued at it."""
        task.slot = slot
        task.body = self._serial
        if slot.born != self._serial:
            task.replayed_in = self

    def issue(self, task: TaskLaunch) -> None:
        """Match a solved launch (one ``AutoTask.execute`` did not
        already match before its solve) against the next position."""
        if self._body is not None:
            self.tag(task, self.advance(launch_fingerprint(task, self.ids)))

    def diverge(self) -> None:
        """The rest of the open body runs dynamically (recovery)."""
        self._diverged = True

    @property
    def is_captured(self) -> bool:
        """Whether a launch sequence has been recorded."""
        return self._captured is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, captured={self.is_captured}, "
            f"replays={self.replays}, captures={self.captures})"
        )
