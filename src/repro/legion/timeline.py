"""Legion-Prof-style timeline: a span for every modeled activity.

The figure experiments answer *how fast*; this module answers *where the
time went*.  When :class:`~repro.legion.runtime.RuntimeConfig` is built
with ``profile=True`` (or ``REPRO_PROFILE=1`` in the environment), the
runtime records every modeled activity as a :class:`Span` —

* ``task``  — one shard kernel on one processor,
* ``issue`` — per-launch overhead on the Python issue clock (fused
  groups show as one span for the whole merged launch),
* ``copy`` / ``spill`` / ``checkpoint`` — inter-memory traffic on the
  channel(s) it occupies,
* ``retry`` / ``backoff`` — a doomed copy attempt holding the wire and
  the exponential pause before the retry (chaos injection),
* ``resize`` — intra-memory instance migrations,
* ``fold``  — REDUCE-privilege read-modify-write folds on owner tiles,
* ``allreduce`` — the scalar tree reduction (abstract ``network``
  resource; allreduces may overlap and carry no occupancy),
* ``evict`` — zero-width markers for clean-instance drops,
* ``recovery`` — the post-loss restart delay on the issue clock,
* ``detection`` — the failure detector's suspected → confirmed
  transitions and the issue-clock stall waiting for confirmation
  (non-busy: annotation only, like ``recovery``),

each tagged ``(category, resource, name, start, finish, nbytes,
flops)`` on the simulated clock.  Profiling is off by default and costs
exactly one ``is not None`` check per record site when disabled.

On top of the span log the class offers per-resource utilization and
gap analysis, critical-path extraction (the chain of activities whose
finish times produced ``Runtime.elapsed()`` — see
:meth:`Timeline.critical_path`), Chrome-trace/Perfetto JSON export
(load the file in ``chrome://tracing`` or https://ui.perfetto.dev) and
an ASCII summary.  ``python -m repro.analysis profile <spans.json>``
drives all of it offline from a saved log.

Span invariants the test suite enforces (``tests/legion/test_timeline.py``):

* spans of the *busy* categories never overlap on one resource — the
  per-resource sum of durations equals the union (busy) time;
* per channel, the latest span finish equals ``Channel.busy_until``;
  per processor, the latest ``task``/``fold`` finish equals the
  processor clock;
* the critical path starts at 0, is contiguous, and ends bit-for-bit
  at ``Runtime.elapsed()``.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

# Categories whose spans occupy their resource: at most one such span
# per resource at any simulated instant.  Everything else (backoff
# pauses, eviction markers, recovery stalls, overlappable allreduces)
# annotates the timeline without occupancy.
BUSY_CATEGORIES = frozenset(
    {"task", "issue", "copy", "retry", "resize", "fold", "spill", "checkpoint"}
)


@dataclass(frozen=True)
class Span:
    """One modeled activity on one resource of the simulated machine."""

    category: str
    resource: str
    name: str
    start: float
    finish: float
    nbytes: int = 0
    flops: float = 0.0

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.finish - self.start


@dataclass(frozen=True)
class PathStep:
    """One link of a critical path: a span, or an attributed wait gap."""

    kind: str  # a span category, or "wait" for a dependence gap
    name: str
    resource: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        """Step length in simulated seconds."""
        return self.finish - self.start


@dataclass
class CriticalPath:
    """A contiguous chain of steps from t=0 to the clock horizon."""

    steps: List[PathStep] = field(default_factory=list)

    @property
    def start(self) -> float:
        """Where the path begins (0.0 for a full-program path)."""
        return self.steps[0].start if self.steps else 0.0

    @property
    def finish(self) -> float:
        """Where the path ends — the horizon it was extracted for."""
        return self.steps[-1].finish if self.steps else 0.0

    @property
    def length(self) -> float:
        """Total path time; equals the horizon minus the start exactly."""
        return self.finish - self.start

    def time_by_kind(self) -> Dict[str, float]:
        """Path time attributed per step kind (task, copy, wait, ...)."""
        out: Dict[str, float] = {}
        for step in self.steps:
            out[step.kind] = out.get(step.kind, 0.0) + step.duration
        return out


@dataclass
class ResourceUsage:
    """Utilization summary for one resource."""

    busy: float = 0.0  # union of busy-category spans
    busy_sum: float = 0.0  # plain sum of busy-category durations
    spans: int = 0
    nbytes: int = 0
    first_start: float = 0.0
    last_finish: float = 0.0
    gaps: List[Tuple[float, float]] = field(default_factory=list)


class Timeline:
    """The span recorder one profiling runtime appends to."""

    def __init__(self, name: str = "", meta: Optional[Dict[str, Any]] = None):
        self.name = name
        self.meta: Dict[str, Any] = dict(meta or {})
        # Column store: one parallel list per Span field.  Recording
        # appends seven primitives instead of constructing a Span
        # object, and save() serializes the columns directly; Span
        # objects only materialize lazily via the ``spans`` property
        # when an analysis pass actually needs them.
        self._cols: Tuple[list, ...] = ([], [], [], [], [], [], [])
        self._spans_cache: Optional[List[Span]] = None
        # The latest sync-point clock the owning runtime observed
        # (Runtime.elapsed()/barrier() note it here) so offline
        # analysis of a saved log uses the exact program horizon.
        self.horizon = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        resource: str,
        name: str,
        start: float,
        finish: float,
        nbytes: int = 0,
        flops: float = 0.0,
    ) -> None:
        """Append one span (times on the simulated clock)."""
        cols = self._cols
        cols[0].append(category)
        cols[1].append(resource)
        cols[2].append(name)
        cols[3].append(start)
        cols[4].append(finish)
        cols[5].append(int(nbytes))
        cols[6].append(float(flops))
        self._spans_cache = None

    @property
    def spans(self) -> List[Span]:
        """The recorded spans, materialized (and cached) on demand."""
        cache = self._spans_cache
        if cache is None:
            cache = [Span(*row) for row in zip(*self._cols)]
            self._spans_cache = cache
        return cache

    def note_horizon(self, t: float) -> None:
        """Record a sync-point clock reading (keeps the max)."""
        if t > self.horizon:
            self.horizon = t

    def __len__(self) -> int:
        return len(self._cols[0])

    def resources(self) -> List[str]:
        """Every resource that recorded at least one span, sorted."""
        return sorted(set(self._cols[1]))

    # ------------------------------------------------------------------
    # Utilization and gap analysis
    # ------------------------------------------------------------------
    def utilization(self) -> Dict[str, ResourceUsage]:
        """Per-resource busy time, span counts, bytes and idle gaps.

        ``busy`` is the *union* of busy-category spans; ``busy_sum`` is
        their plain sum.  The two are equal exactly when no resource is
        double-booked — the span-conservation invariant.
        """
        by_resource: Dict[str, List[Span]] = {}
        out: Dict[str, ResourceUsage] = {}
        for span in self.spans:
            if span.category in BUSY_CATEGORIES:
                by_resource.setdefault(span.resource, []).append(span)
        for resource, spans in by_resource.items():
            spans.sort(key=lambda s: (s.start, s.finish))
            usage = ResourceUsage(
                spans=len(spans),
                nbytes=sum(s.nbytes for s in spans),
                first_start=spans[0].start,
                last_finish=max(s.finish for s in spans),
            )
            # The union adds each span's duration less what an earlier
            # span already covers -- the very terms of the plain sum
            # when nothing overlaps, so the two are then equal to the
            # bit -- and collects the idle gaps between intervals.
            cur_finish = spans[0].start
            for span in spans:
                usage.busy_sum += span.duration
                if span.start >= cur_finish:
                    if span.start > cur_finish:
                        usage.gaps.append((cur_finish, span.start))
                    usage.busy += span.duration
                    cur_finish = span.finish
                elif span.finish > cur_finish:
                    usage.busy += span.finish - cur_finish
                    cur_finish = span.finish
            usage.gaps.sort(key=lambda g: g[0] - g[1])  # largest first
            out[resource] = usage
        return out

    # ------------------------------------------------------------------
    # Critical path
    # ------------------------------------------------------------------
    def critical_path(self, horizon: Optional[float] = None) -> CriticalPath:
        """The activity chain whose finish times produced ``horizon``.

        Every modeled start time is the max over its dependences' finish
        times, so the dependence edge into any instant ``t`` is exactly
        a span finishing at ``t``: the path is extracted by walking the
        clock backward from the horizon — at each point following the
        span that finishes there (ties broken toward the latest start,
        the binding dependence), and attributing any gap down to the
        next span finish as ``wait`` (launch gaps, shard overheads,
        backoff pauses).  The result is contiguous from 0 to the
        horizon, so its length equals ``Runtime.elapsed()`` *exactly* —
        no floating-point re-summation.
        """
        spans = sorted(
            (s for s in self.spans if s.finish > s.start),
            key=lambda s: s.finish,
        )
        finishes = [s.finish for s in spans]
        if horizon is None:
            horizon = self.horizon or (finishes[-1] if finishes else 0.0)
        steps: List[PathStep] = []
        cur = horizon
        while cur > 0.0:
            lo = bisect.bisect_left(finishes, cur)
            hi = bisect.bisect_right(finishes, cur)
            ending_here = [s for s in spans[lo:hi] if s.start < cur]
            if ending_here:
                span = max(ending_here, key=lambda s: s.start)
                steps.append(
                    PathStep(
                        span.category, span.name, span.resource, span.start, cur
                    )
                )
                cur = span.start
                continue
            if lo == 0:
                steps.append(PathStep("wait", "start", "", 0.0, cur))
                break
            prev_finish = finishes[lo - 1]
            steps.append(PathStep("wait", "dependence", "", prev_finish, cur))
            cur = prev_finish
        steps.reverse()
        return CriticalPath(steps)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The span log as a Chrome-trace (Perfetto-loadable) object.

        One process, one thread per resource, complete (``"ph": "X"``)
        events with microsecond timestamps.
        """
        resources = self.resources()
        tid = {r: i + 1 for i, r in enumerate(resources)}
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 0,
                "name": "process_name",
                "args": {"name": f"repro:{self.name or 'runtime'}"},
            }
        ]
        for resource in resources:
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": tid[resource],
                    "name": "thread_name",
                    "args": {"name": resource},
                }
            )
        for span in self.spans:
            events.append(
                {
                    "name": span.name or span.category,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": tid[span.resource],
                    "args": {"nbytes": span.nbytes, "flops": span.flops},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def save(self, path: str) -> None:
        """Write the native span log (lossless; see :meth:`load`)."""
        payload = {
            "version": 1,
            "name": self.name,
            "meta": self.meta,
            "horizon": self.horizon,
            # Serialized straight from the column store: identical
            # row-major [category, resource, name, start, finish,
            # nbytes, flops] rows, no Span materialization.
            "spans": [list(row) for row in zip(*self._cols)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "Timeline":
        """Read a span log written by :meth:`save`."""
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != 1:
            raise ValueError(f"unsupported span-log version {payload.get('version')!r}")
        timeline = cls(name=payload.get("name", ""), meta=payload.get("meta"))
        timeline.horizon = float(payload.get("horizon", 0.0))
        for cat, res, name, start, finish, nbytes, flops in payload["spans"]:
            timeline.record(
                cat, res, name, float(start), float(finish), int(nbytes), flops
            )
        return timeline

    # ------------------------------------------------------------------
    # ASCII summary
    # ------------------------------------------------------------------
    def format_ascii(
        self,
        horizon: Optional[float] = None,
        top: int = 3,
        max_rows: int = 24,
    ) -> str:
        """A one-screen profile: utilization, gaps, critical path.

        At large scale (192 GPUs means hundreds of channels) the table
        keeps the ``max_rows`` busiest resources and summarizes the rest.
        """
        usage = self.utilization()
        if horizon is None:
            horizon = self.horizon or max(
                (u.last_finish for u in usage.values()), default=0.0
            )
        lines = [
            f"timeline {self.name or 'runtime'}: {len(self.spans)} spans, "
            f"{len(usage)} busy resources, horizon {horizon:.6f}s"
        ]
        width = max([len(r) for r in usage] + [8])
        lines.append(
            f"{'resource'.ljust(width)} {'busy(s)':>10} {'util':>6} "
            f"{'spans':>6} {'bytes':>14}"
        )
        ranked = sorted(usage, key=lambda r: -usage[r].busy)
        for resource in ranked[:max_rows]:
            u = usage[resource]
            util = u.busy / horizon if horizon > 0 else 0.0
            lines.append(
                f"{resource.ljust(width)} {u.busy:>10.6f} {util:>5.1%} "
                f"{u.spans:>6} {u.nbytes:>14,}"
            )
        if len(ranked) > max_rows:
            rest = ranked[max_rows:]
            busy = sum(usage[r].busy for r in rest)
            nbytes = sum(usage[r].nbytes for r in rest)
            lines.append(
                f"{f'... {len(rest)} more'.ljust(width)} {busy:>10.6f} "
                f"{'':>6} {sum(usage[r].spans for r in rest):>6} "
                f"{nbytes:>14,}"
            )
        gap_lines = []
        for resource in sorted(usage):
            for gap_start, gap_finish in usage[resource].gaps[:1]:
                gap_lines.append(
                    (gap_finish - gap_start, resource, gap_start, gap_finish)
                )
        gap_lines.sort(reverse=True)
        if gap_lines:
            lines.append(f"largest idle gaps (top {top}):")
            for length, resource, gap_start, gap_finish in gap_lines[:top]:
                lines.append(
                    f"  {resource}: {length:.6f}s idle "
                    f"[{gap_start:.6f}, {gap_finish:.6f}]"
                )
        path = self.critical_path(horizon)
        if path.steps:
            by_kind = sorted(
                path.time_by_kind().items(), key=lambda kv: -kv[1]
            )
            breakdown = " | ".join(
                f"{kind} {t / path.length:.1%}" for kind, t in by_kind if t > 0
            )
            lines.append(
                f"critical path: {path.length:.6f}s over {len(path.steps)} "
                f"steps = {breakdown}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide default and the active-timeline registry
# ----------------------------------------------------------------------
# Mirrors repro.analysis.recorder: the default answers "should a new
# RuntimeConfig profile?", and every profiling runtime registers its
# timeline so harnesses can export traces from runtimes created deep
# inside library code (the figure experiments build their runtimes
# internally).
_PROFILE_DEFAULT: Optional[bool] = None  # None -> consult REPRO_PROFILE

_ACTIVE: List[Timeline] = []
_MAX_TIMELINES = 256


def profile_default() -> bool:
    """Whether new RuntimeConfigs record a timeline by default."""
    if _PROFILE_DEFAULT is not None:
        return _PROFILE_DEFAULT
    return os.environ.get("REPRO_PROFILE", "").strip() not in ("", "0")


def set_profile_default(enabled: Optional[bool]) -> Optional[bool]:
    """Override the process default (None defers to ``REPRO_PROFILE``);
    returns the previous override for restoring."""
    global _PROFILE_DEFAULT
    previous = _PROFILE_DEFAULT
    _PROFILE_DEFAULT = enabled
    return previous


def register(timeline: Timeline) -> Timeline:
    """Track a profiling runtime's timeline for later export."""
    if len(_ACTIVE) >= _MAX_TIMELINES:
        _ACTIVE.pop(0)
    _ACTIVE.append(timeline)
    return timeline


def active_timelines() -> List[Timeline]:
    """All registered timelines (oldest first)."""
    return list(_ACTIVE)


def drain_timelines() -> List[Timeline]:
    """Return and forget all registered timelines."""
    out = list(_ACTIVE)
    _ACTIVE.clear()
    return out
