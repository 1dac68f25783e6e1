"""Execution counters: tasks, copies by channel kind, allreduces, memory.

The integration tests assert the paper's §4.3 steady-state behaviour (only
one-element halo copies per iteration) directly against these counters,
and the weak-scaling harness reads communication volumes out of them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Dict


def _channel_kind(name: str) -> str:
    return name.split("[", 1)[0]


@dataclass
class Profiler:
    """Execution counters (tasks, copies, allreduces, resizes)."""
    tasks_launched: int = 0
    shards_executed: int = 0
    fills: int = 0
    allreduces: int = 0
    resize_copies: int = 0
    resize_bytes: int = 0
    # Automatic task fusion (repro.legion.fusion): fused groups executed,
    # sub-launches merged away (group size minus the one launch that
    # remains), temporaries elided, and the total launch overhead charged
    # on the issue clock.
    fused_tasks: int = 0
    tasks_fused_away: int = 0
    regions_elided: int = 0
    # Windows flushed by a launch that cannot join them: a non-fusible
    # launch (Runtime.launch), or a solve whose image reads a region a
    # member still owes a write to (Runtime.order_solve).
    hazard_flushes: int = 0
    # Kernel fusion (repro.analysis.depend): segments of fused groups
    # the dependence analyzer proved merge-safe, each executed as one
    # generated loop nest.
    kernel_merges: int = 0
    # Automatic tracing (repro.legion.tracing): executed launches
    # charged the replay fraction of the launch overhead.
    launches_replayed: int = 0
    launch_overhead_seconds: float = 0.0
    # Modeled kernel execution time summed over every shard.
    kernel_seconds: float = 0.0
    # Resilience (repro.legion.chaos): injected faults by kind
    # ("copy", "alloc", "gpu-loss", "node-loss"), retries performed,
    # simulated backoff time, spill-policy evictions/spills, checkpoint
    # traffic, and tasks re-executed by journal replay after a loss.
    faults_injected: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    retries: int = 0
    backoff_seconds: float = 0.0
    evictions: int = 0
    eviction_bytes: int = 0
    spills: int = 0
    spill_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    tasks_reexecuted: int = 0
    # Recovery (repro.legion.recovery): checkpoint bytes copied
    # to replica stores beyond the primary, recovery rounds executed
    # (>1 per Recovery._recover call: a nested fault restarted the replay),
    # replica-restoring copies planned by the recovery planner, and the
    # modeled failure detector's confirmations plus total suspected->
    # confirmed latency charged on the issue clock.
    replication_bytes: int = 0
    recoveries: int = 0
    restores: int = 0
    restore_bytes: int = 0
    detections: int = 0
    detection_seconds: float = 0.0
    # Serving layer (repro.serve): result-cache hits/misses keyed on
    # (matrix version, input hash), and admission-control rejections
    # from bounded tenant queues.
    serve_cache_hits: int = 0
    serve_cache_misses: int = 0
    serve_rejections: int = 0
    copy_count: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    copy_bytes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    task_counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # Host-side analysis (docs/ARCHITECTURE.md): wall-clock seconds
    # the host process spent per runtime phase ("window-flush",
    # "dependence", "constraint-solve", "mapping", "event-advance") and
    # counters (solve_hits/solve_misses for the constraint-solve memo,
    # batched_writes for coherence writes applied via write_complete).
    # Host phases measure real time on the machine running the
    # simulation, not simulated time.
    host_phase_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    fastpath_counters: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # ------------------------------------------------------------------
    def record_task(self, name: str, shards: int) -> None:
        """Count one launch of `shards` shards."""
        self.tasks_launched += 1
        self.shards_executed += shards
        self.task_counts[name] += shards

    def record_fill(self) -> None:
        """Count one fill operation."""
        self.fills += 1

    def record_copy(self, channel_name: str, nbytes: int) -> None:
        """Count a copy on a channel (bytes at full scale)."""
        kind = _channel_kind(channel_name)
        self.copy_count[kind] += 1
        self.copy_bytes[kind] += nbytes

    def record_resize(self, nbytes: int) -> None:
        """Count an intra-memory instance migration."""
        self.resize_copies += 1
        self.resize_bytes += nbytes

    def record_allreduce(self) -> None:
        """Count one scalar fold: an allreduce, or a one-shard launch's
        fold, which is charged no collective."""
        self.allreduces += 1

    def record_fusion(self, group_size: int, elided: int) -> None:
        """Count one fused group of ``group_size`` sub-launches."""
        self.fused_tasks += 1
        self.tasks_fused_away += group_size - 1
        self.regions_elided += elided

    def record_kernel_merge(self) -> None:
        """Count one merge-safe segment executed as a single loop nest."""
        self.kernel_merges += 1

    def record_launch_overhead(self, seconds: float) -> None:
        """Accumulate issue-clock launch overhead."""
        self.launch_overhead_seconds += seconds

    def record_fault(self, kind: str) -> None:
        """Count one injected fault (copy, alloc, gpu-loss, node-loss)."""
        self.faults_injected[kind] += 1

    def record_retry(self, backoff: float) -> None:
        """Count one retry and its simulated backoff time."""
        self.retries += 1
        self.backoff_seconds += backoff

    def record_eviction(self, nbytes: int) -> None:
        """Count a clean-instance eviction under memory pressure."""
        self.evictions += 1
        self.eviction_bytes += int(nbytes)

    def record_spill(self, nbytes: int) -> None:
        """Count a dirty-instance spill to system memory."""
        self.spills += 1
        self.spill_bytes += int(nbytes)

    def record_checkpoint(self, nbytes: int) -> None:
        """Count one checkpoint epoch and its snapshot traffic."""
        self.checkpoints += 1
        self.checkpoint_bytes += int(nbytes)

    def record_reexecution(self, count: int = 1) -> None:
        """Count tasks re-executed by post-loss journal replay."""
        self.tasks_reexecuted += count

    def record_replication(self, nbytes: int) -> None:
        """Count checkpoint traffic to replica stores beyond the primary."""
        self.replication_bytes += int(nbytes)

    def record_recovery(self) -> None:
        """Count one recovery round (wipe, re-plan, replay)."""
        self.recoveries += 1

    def record_restore(self, nbytes: int, steps: int = 1) -> None:
        """Count replica-restoring copies planned by recovery."""
        self.restores += steps
        self.restore_bytes += int(nbytes)

    def record_detection(self, latency: float) -> None:
        """Count one confirmed loss and its modeled detection latency."""
        self.detections += 1
        self.detection_seconds += latency

    def record_serve_cache(self, hit: bool) -> None:
        """Count one serving result-cache lookup."""
        if hit:
            self.serve_cache_hits += 1
        else:
            self.serve_cache_misses += 1

    def record_serve_rejection(self) -> None:
        """Count one admission-control rejection (tenant queue full)."""
        self.serve_rejections += 1

    def record_host_phase(self, phase: str, seconds: float) -> None:
        """Accumulate host wall-clock time spent in a runtime phase."""
        self.host_phase_seconds[phase] += seconds

    # ------------------------------------------------------------------
    def total_copy_bytes(self, kind: str | None = None) -> int:
        """Bytes copied, optionally for one channel kind."""
        if kind is not None:
            return self.copy_bytes.get(kind, 0)
        return sum(self.copy_bytes.values())

    def total_copies(self, kind: str | None = None) -> int:
        """Copy count, optionally for one channel kind."""
        if kind is not None:
            return self.copy_count.get(kind, 0)
        return sum(self.copy_count.values())

    def format_summary(self) -> str:
        """A human-readable one-screen summary for examples and tools."""
        lines = [
            f"tasks launched:   {self.tasks_launched} "
            f"({self.shards_executed} shards)",
            f"allreduces:       {self.allreduces}",
        ]
        if self.fills:
            lines.append(f"fills:            {self.fills}")
        if self.fused_tasks:
            lines.append(
                f"fusion:           {self.fused_tasks} fused groups "
                f"({self.tasks_fused_away} launches merged away, "
                f"{self.regions_elided} temporaries elided)"
            )
        if self.hazard_flushes:
            lines.append(
                f"deferred window:  {self.hazard_flushes} flushed by a "
                f"launch that cannot join it"
            )
        if self.kernel_merges:
            lines.append(
                f"kernel fusion:    {self.kernel_merges} merged loop nests"
            )
        if self.launch_overhead_seconds:
            lines.append(
                f"launch overhead:  {self.launch_overhead_seconds:.6f}s "
                f"(issue clock, {self.launches_replayed} launches replayed)"
            )
        if self.copy_bytes:
            moved = ", ".join(
                f"{kind}={self.copy_bytes[kind]:,}B/{self.copy_count[kind]}"
                for kind in sorted(self.copy_bytes)
                if self.copy_bytes[kind]
            )
            lines.append(f"copies:           {moved or 'none'}")
        if self.resize_copies:
            lines.append(
                f"instance resizes: {self.resize_copies} "
                f"({self.resize_bytes:,} bytes migrated)"
            )
        total_faults = sum(self.faults_injected.values())
        if total_faults or self.retries:
            kinds = ", ".join(
                f"{k}={v}" for k, v in sorted(self.faults_injected.items()) if v
            )
            lines.append(
                f"faults:           {total_faults} injected"
                + (f" ({kinds})" if kinds else "")
                + f", {self.retries} retries, "
                f"{self.backoff_seconds:.6f}s backoff"
            )
        if self.evictions or self.spills:
            lines.append(
                f"memory pressure:  {self.evictions} evictions "
                f"({self.eviction_bytes:,}B), {self.spills} spills "
                f"({self.spill_bytes:,}B)"
            )
        if self.checkpoints or self.tasks_reexecuted:
            lines.append(
                f"recovery:         {self.checkpoints} checkpoints "
                f"({self.checkpoint_bytes:,}B), "
                f"{self.tasks_reexecuted} tasks re-executed"
            )
        if self.replication_bytes or self.restores:
            lines.append(
                f"replication:      {self.replication_bytes:,}B to replica "
                f"stores, {self.restores} restores "
                f"({self.restore_bytes:,}B)"
            )
        if self.detections:
            lines.append(
                f"detection:        {self.detections} confirmed losses, "
                f"{self.detection_seconds:.6f}s suspected->confirmed"
            )
        if self.serve_cache_hits or self.serve_rejections:
            lines.append(
                f"serving:          cache {self.serve_cache_hits}/"
                f"{self.serve_cache_hits + self.serve_cache_misses} hits, "
                f"{self.serve_rejections} rejections"
            )
        if any(self.host_phase_seconds.values()):
            phases = ", ".join(
                f"{k}={v:.3f}s"
                for k, v in sorted(self.host_phase_seconds.items())
                if v
            )
            lines.append(f"host phases:      {phases}")
        if any(self.fastpath_counters.values()):
            caches = ", ".join(
                f"{k}={v}"
                for k, v in sorted(self.fastpath_counters.items())
                if v
            )
            lines.append(f"fastpath caches:  {caches}")
        top = sorted(self.task_counts.items(), key=lambda kv: -kv[1])[:5]
        if top:
            lines.append("hottest tasks:")
            for name, count in top:
                lines.append(f"  {count:>6}  {name}")
        return "\n".join(lines)

    def snapshot(self) -> "Profiler":
        """A frozen copy, for differencing across program phases.

        Fields are enumerated with :func:`dataclasses.fields`, so a
        newly added counter is carried automatically (the drift-guard
        test in ``tests/legion/test_profiler.py`` enforces this).
        """
        snap = Profiler()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = defaultdict(int, value)
            setattr(snap, f.name, value)
        return snap

    def since(self, snap: "Profiler") -> "Profiler":
        """Counter deltas relative to an earlier :meth:`snapshot`.

        Numeric fields subtract; dict counters diff over the union of
        their keys.
        """
        delta = Profiler()
        for f in fields(self):
            cur, old = getattr(self, f.name), getattr(snap, f.name)
            if isinstance(cur, (int, float)):
                value = cur - old
            elif isinstance(cur, dict):
                keys = set(cur) | set(old)
                value = defaultdict(
                    int, {k: cur.get(k, 0) - old.get(k, 0) for k in keys}
                )
            else:
                raise TypeError(
                    f"Profiler.since: field {f.name!r} has undiffable "
                    f"type {type(cur).__name__}"
                )
            setattr(delta, f.name, value)
        return delta
