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
* on the **host** clock a replay takes the path any launch takes: its
  solve plan, window verdict and launch shape come from the template of
  its structural key (:class:`repro.legion.fastpath.Template`), and its
  window's groups and nests from the window-plan cache, whether a trace
  is open or not.  A trace only matches positions.

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

**Matching** is by a structural *fingerprint* per position: the
launch's template key — task name, color count, body IR and, per
argument, privilege, region shape and dtype and partition geometry
(before an ``AutoTask`` solve: key partitions and constraints), with
regions numbered within the launch — and each argument region's
first-use index within the body (which pins the dataflow between
launches); never by task name alone.  Matching happens when a
launch is *issued*, so a scope boundary never flushes the deferred
window: launches still deferred when the scope closes keep their tags
and execute, discounted, whenever the program next flushes.  The first
mismatch runs the rest of the body dynamically at full cost and the
trace re-captures; a trace whose body diverges every time (data-
dependent inner iteration counts) backs off and stops recording for a
while.  A body that ends early — the convergence check returned — is a
prefix of the capture and leaves it alone.

The runtime bumps a *template epoch* on recovery, memory loss,
pressure relief and ``reset_for_program``, and a trace captured under
another epoch re-captures (Legion's physical traces are invalidated by
the same events).  Journal replay after a loss never goes through a
trace: recovery launches are charged in full and the open body
diverges.

Kernels always execute and numerics are untouched; with
``trace_replay_fraction=1.0`` a traced run is bit-for-bit the untraced
one (event log, modeled seconds, LRU order).  The speedup is measured
in ``benchmarks/test_tracing.py`` and by the ``gmg_small_tasks``
workload of ``bench/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.legion.partition import (
    ExplicitPartition,
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Tiling,
    derivation,
)
from repro.legion.task import TaskLaunch

if TYPE_CHECKING:  # pragma: no cover
    from repro.legion.runtime import Runtime


def launch_fingerprint(
    task: TaskLaunch, ids: Dict[int, int], derived: bool = False
) -> Optional[tuple]:
    """The structural fingerprint of a solved launch, or None.

    ``ids`` numbers regions by first use: within the launch (``{}``,
    the template key of a launch with no pre-solve key) or within a
    window (:func:`window_fingerprint`).  An image is pinned by its
    rects, or with ``derived`` by its derivation
    (:func:`~repro.legion.partition.derivation`, source
    regions numbered through ``ids``).  None means a partition kind
    whose geometry the fingerprint cannot pin.
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
        elif kind is ImageByCoordinate or kind is ImageByRange:
            geometry = derivation(part, ids) if derived else None
            if geometry is None:
                geometry = (
                    part.tables() if kind is ImageByCoordinate
                    else ("rects", tuple(part._rects))
                )
        elif kind is ExplicitPartition:
            geometry = ("rects", tuple(part._rects))
        else:
            return None
        owner = req.owner
        if owner is not None:
            # Where a REDUCE folds: part of what the launch does.
            geometry = (
                geometry, getattr(owner, "boundaries", owner.color_count)
            )
        rows.append(
            (req.name, req.privilege, lid, region.shape, region.dtype, geometry)
        )
    return (
        task.name,
        task.pointwise,
        task.reduction,
        tuple(rows),
    )


def window_fingerprint(window: List[TaskLaunch]) -> Optional[tuple]:
    """The structural key of a deferred window, or None.

    Each launch's :func:`launch_fingerprint`, with regions numbered by
    first use within the window and images by derivation, and its
    future-dependence edges (``after``), which the plan depends on and
    no launch fingerprint carries.  Equal keys get the same planned
    groups and nests (``Runtime._plan_window``): the plan reads images
    only through their derivations and the disjointness of written
    ones, which every window member has (``fusion.summarize``).  A
    group's launch shape, which holds rects, is checked against the
    window's images on each use (``Runtime._flush``).
    """
    ids: Dict[int, int] = {}
    key = []
    for task in window:
        fingerprint = launch_fingerprint(task, ids, derived=True)
        if fingerprint is None:
            return None
        key.append((fingerprint, task.after))
    return tuple(key)


class Trace:
    """Capture-then-replay scope for a repeated launch sequence."""

    # Consecutive divergent bodies before the trace stops recording,
    # and the longest it stays off (bodies; doubles per further miss).
    BACKOFF_AFTER = 3
    MAX_SLEEP = 32

    def __init__(self, runtime: "Runtime", name: str = "trace"):
        self.runtime = runtime
        self.name = name
        # A fingerprint per position (None matches nothing): of the
        # captured body and of the open one.
        self._captured: Optional[List[Optional[tuple]]] = None
        self._body: Optional[List[Optional[tuple]]] = None
        # Region uid -> first-use index within the open body.
        self._ids: Dict[int, int] = {}
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
        self._ids = {}
        if self._sleep:
            self._sleep -= 1
            self._body = None
            return
        epoch = self.runtime._template_epoch
        if self._epoch != epoch:
            # Captured under another template epoch: capture afresh.
            self._captured = None
            self._epoch = epoch
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
            # gracefully).  Positions before the mismatch carry over.
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

    def issue(self, task: TaskLaunch) -> None:
        """Match a launch against the next position of the open body.

        Its fingerprint is its template's key with the body's first-use
        index of each argument region.  A match is a replay; a mismatch
        diverges the body, which records the rest as it comes.
        """
        body = self._body
        if body is None:
            return
        fingerprint = None
        if task.template is not None:
            ids = self._ids
            fingerprint = (
                task.template.key,
                tuple(
                    ids.setdefault(req.region.uid, len(ids))
                    for req in task.requirements
                ),
            )
        captured = self._captured
        if captured is not None and not self._diverged:
            pos = len(body)
            if (
                fingerprint is not None
                and pos < len(captured)
                and captured[pos] == fingerprint
            ):
                task.replayed_in = self
            else:
                self._diverged = True
        body.append(fingerprint)

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
