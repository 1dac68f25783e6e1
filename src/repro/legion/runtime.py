"""The runtime: dependence analysis, mapping, copies and simulated time.

Execution model
---------------
Programs issue task launches in sequential order (as SciPy/NumPy programs
do).  For each launch the runtime

1. charges the per-launch overhead on the *issue clock* — the Python-side
   cost of Legate's task launching and metadata management, which is what
   small-task workloads (GMG V-cycles, RK8 stages, SGD minibatches)
   expose in the paper's single-GPU comparisons against CuPy;
2. maps each shard's region rectangles to physical instances in the
   target processor's memory (allocation store + coalescing, §4.2);
3. derives copies from the coherence state (missing = needed − valid) and
   schedules them on the machine's channels (§4.3's halo exchanges);
4. executes the shard kernel on views of the exact backing arrays and
   advances the processor's clock by the roofline kernel time;
5. folds REDUCE-privilege outputs to owner tiles and allreduces scalar
   partials with a latency/overhead model (the Legion allreduce overhead
   that causes the CG falloff at scale in Fig. 9).

Numerics are exact; only *time* and *placement* are simulated.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import ValidationError
from repro.analysis.events import EventLog, ReqAccess
from repro.analysis.recorder import register as _register_log
from repro.analysis.recorder import validation_default as _validation_default
from repro.analysis.sanitizer import poison as _poison
from repro.analysis.sanitizer import readonly_view as _readonly_view
from repro.geometry import Rect, RectSet
from repro.legion.backend import ExecutionBackend, create_backend
from repro.legion import fastpath as _fastpath
from repro.legion import fusion
from repro.legion import resilience as _resilience
from repro.legion.chaos import ChaosConfig, ChaosInjector, LossSchedule, chaos_default
from repro.legion.coherence import RegionCoherence
from repro.legion.exceptions import FaultError, OutOfMemoryError
from repro.legion.future import Future, pending_roots
from repro.legion.instance import InstanceManager
from repro.legion.partition import Partition, Replicate, Tiling
from repro.legion.privilege import Privilege
from repro.legion.profiler import Profiler
from repro.legion.region import Region
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch
from repro.legion.timeline import Timeline
from repro.legion.timeline import profile_default as _profile_default
from repro.legion.timeline import register as _register_timeline
from repro.legion.tracing import Trace
from repro.machine import MachineScope, Memory, MemoryKind, Processor


@dataclass
class RuntimeConfig:
    """Per-system tunables; presets model the paper's compared systems."""

    name: str = "legate"
    # Python-side cost of launching one task (constraint solving, metadata
    # management, Legion dispatch).
    launch_overhead: float = 1.3e-4
    # Share of launch_overhead a launch replayed from a captured trace
    # (repro.legion.tracing) pays: Legion replays the memoized
    # dependence analysis instead of redoing it.  A model parameter,
    # not a switch: the host replays templates identically at any
    # value, and at 1.0 a traced run is bit-for-bit the untraced one.
    # The published system has no tracing (its cited future work), so
    # harness.config.paper_legate and the comparison systems pin 1.0.
    trace_replay_fraction: float = 0.15
    # Extra per-shard mapping cost charged on each shard's start.
    shard_overhead: float = 2.0e-6
    # Scalar allreduce: fixed overhead plus per-tree-hop overhead on top
    # of the network latency model, plus a per-participant term modelling
    # the O(P) bookkeeping in Legion's allreduce implementation that the
    # paper reports being exposed at 32+ nodes (Fig. 9, footnote 1).
    allreduce_base_overhead: float = 2.0e-5
    allreduce_hop_overhead: float = 3.0e-5
    allreduce_linear_overhead: float = 1.5e-5
    # Framebuffer bytes reserved by the runtime and external CUDA
    # libraries (why Legate cannot run ML-25M on one GPU in Fig. 12).
    reserved_fb_bytes: int = int(2.5 * 2**30)
    # Mapper behaviour (ablatable).
    # Deferred instance collection: recycled allocations for this many
    # in-flight tasks stay charged (see instance.py).
    inflight_pool_window: int = 24
    coalescing: bool = True
    coalesce_slack: float = 2.0
    reuse_partitions: bool = True
    # Cost penalty for reshaping global-format local pieces into the
    # layouts external local libraries (cuSPARSE/MKL) accept (§3).
    local_reshape_penalty: bool = True
    # Exact (piecewise) coordinate images: copy only the referenced
    # runs instead of the bounding rect.  Legion's images are exact;
    # bounding rects model compact rectangular instances.  Ablatable.
    exact_images: bool = False
    # Kernel efficiency multiplier for SDDMM-like fused kernels; the
    # baseline cuSPARSE SDDMM is modelled as inefficient (Fig. 12).
    sddmm_inefficiency: float = 1.0
    # Automatic task fusion (repro.legion.fusion): element-wise launches
    # are buffered in a deferred window and compatible runs merged into
    # one launch (one launch overhead instead of N; in-window
    # temporaries elided).  On for Legate — the paper's named fix for
    # the small-task overhead gap (§6.1) — off for the comparison
    # systems, which have no such runtime.
    fusion: bool = True
    # Deferred window capacity: the window flushes when full (and on
    # future waits, non-fusible launches that depend on a member,
    # barriers and scope exits).
    fusion_window: int = 16
    # Kernel fusion (repro.analysis.depend + distal.codegen): fused
    # groups the dependence analyzer proves merge-safe execute as ONE
    # generated loop nest — in-window temporaries become nest values,
    # shared operands are read once, one cost entry for the group.
    # Groups it cannot prove replay sub-kernels in issue order exactly
    # as before.  On for Legate; pinned off under
    # harness.config.paper_legate so published figures are unchanged.
    kernel_fusion: bool = True
    # Kernel slowdown once a memory fills past the threshold — the
    # "CuPy runs close to the GPU memory limit" effect on ML-25M
    # (Fig. 12): allocator churn and fragmented, uncoalesced buffers.
    memory_pressure_threshold: float = 0.85
    memory_pressure_slowdown: float = 1.0
    # Problem magnification: benchmarks build problems at a reduced size
    # that fits in host RAM and set data_scale so that simulated kernel
    # work, copy volumes and memory footprints correspond to the
    # paper-scale problem.  Numerics stay exact at the reduced size.
    data_scale: float = 1.0
    # Communication magnification for inter-memory copies.  Defaults to
    # data_scale, but problems whose halos are *surfaces* scale them
    # differently: a 2-D grid's halo grows with sqrt(N), a banded
    # matrix's halo not at all, the quantum Hamiltonian's with N.
    comm_scale: float | None = None
    # Automatic format selection (repro.analysis.formatsel): at a CSR
    # matrix's first SpMV, replay the static format selector against
    # the machine model and convert the operand to the modeled-best
    # bitwise-safe format (ELL / SELL-C-sigma / HYB).  Off by default
    # and forced off under harness.config.paper_legate — the paper's
    # system speaks CSR/COO only, so published figures are unchanged.
    autoformat: bool = False
    # Validation mode (repro.analysis): record an event log of every
    # launch/shard/copy/fold, sanitize kernel arguments (read-only READ
    # views, NaN-poisoned WRITE_DISCARD rects) and assert reads are
    # never stale.  Off by default — the hot path then carries only a
    # handful of ``is not None`` checks.  Defaults from REPRO_VALIDATE.
    validate: bool = field(default_factory=_validation_default)
    # Graceful OOM degradation: before raising OutOfMemoryError, evict
    # LRU clean instances (valid elsewhere per coherence) and spill
    # dirty pieces to system memory over the modeled channels.  On for
    # Legate — real Legion mappers fall back this way — off for the
    # comparison systems and under harness.config.paper_legate, whose
    # Fig. 11/12 OOM outcomes are the published result.
    spill: bool = True
    # Deterministic fault injection (repro.legion.chaos): None means no
    # injection; defaults from the REPRO_CHAOS environment variable.
    chaos: Optional[ChaosConfig] = field(default_factory=chaos_default)
    # Timeline profiling (repro.legion.timeline): record a Legion-Prof
    # style span for every modeled activity — task shards, copies,
    # retries, resizes, folds, allreduces, spills, checkpoint traffic,
    # launch overhead.  Off by default (the hot path then pays one
    # ``is not None`` check per site); defaults from REPRO_PROFILE.
    profile: bool = field(default_factory=_profile_default)
    # Execution backend (repro.legion.backend): who owns the clocks and
    # how client programs are driven — "simulated" (virtual clocks,
    # sequential; the classic shape), "sync" (adds per-program host
    # wall-clock accounting) or "asyncio" (programs interleave as
    # coroutines, the serving shape).  Modeled time and numerics are
    # backend-independent by construction.
    backend: str = "simulated"

    @property
    def effective_comm_scale(self) -> float:
        """The magnification applied to inter-memory copy volumes."""
        return self.data_scale if self.comm_scale is None else self.comm_scale

    @classmethod
    def legate(cls, **overrides) -> "RuntimeConfig":
        """The system under evaluation: Legate Sparse + cuNumeric."""
        return cls(name="legate", **overrides)

    @classmethod
    def cupy(cls, **overrides) -> "RuntimeConfig":
        """Single-GPU CuPy: small launch overhead, cuSPARSE kernel quirks."""
        defaults = dict(
            name="cupy",
            allreduce_linear_overhead=0.0,
            launch_overhead=1.6e-5,
            shard_overhead=0.0,
            allreduce_base_overhead=0.0,
            allreduce_hop_overhead=0.0,
            reserved_fb_bytes=int(0.6 * 2**30),
            local_reshape_penalty=False,
            sddmm_inefficiency=5.0,
            memory_pressure_slowdown=6.0,
            fusion=False,
            spill=False,
            trace_replay_fraction=1.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def scipy(cls, **overrides) -> "RuntimeConfig":
        """Stock SciPy: one CPU core, negligible dispatch overhead."""
        defaults = dict(
            name="scipy",
            allreduce_linear_overhead=0.0,
            launch_overhead=2.0e-6,
            shard_overhead=0.0,
            allreduce_base_overhead=0.0,
            allreduce_hop_overhead=0.0,
            reserved_fb_bytes=0,
            local_reshape_penalty=False,
            fusion=False,
            spill=False,
            trace_replay_fraction=1.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def petsc(cls, **overrides) -> "RuntimeConfig":
        """PETSc-grade constants (used for sanity checks; the real
        comparator is repro.baselines.petsc)."""
        defaults = dict(
            name="petsc",
            allreduce_linear_overhead=0.0,
            launch_overhead=4.0e-6,
            shard_overhead=0.0,
            allreduce_base_overhead=1.0e-6,
            allreduce_hop_overhead=2.0e-6,
            reserved_fb_bytes=int(0.4 * 2**30),
            local_reshape_penalty=False,
            fusion=False,
            spill=False,
            trace_replay_fraction=1.0,
        )
        defaults.update(overrides)
        return cls(**defaults)


class _RowShape:
    """What of a requirement is the same for every launch with its
    fingerprint: names, privilege flags and the geometry of every color.

    Holds no region, so a trace slot may keep it (see
    :mod:`repro.legion.tracing`).
    """

    __slots__ = (
        "name", "privilege", "reads", "writes", "elide", "readonly",
        "poison", "rects", "pieces",
    )

    def __init__(
        self, req: Requirement, sanitize: bool, poison_discards: bool
    ) -> None:
        privilege = req.privilege
        self.name = req.name
        self.privilege = privilege
        self.reads = privilege.reads
        self.writes = privilege.writes
        self.elide = req.elide
        # Privilege sanitizer (validation): a READ argument is handed
        # out read-only, so that writing it fails loudly instead of
        # corrupting other shards' data, and WRITE_DISCARD rects are
        # poisoned before the kernel runs.
        self.readonly = sanitize and not privilege.writes
        self.poison = poison_discards and privilege is Privilege.WRITE_DISCARD
        self.rects, self.pieces = req.partition.tables()


class _LaunchShape:
    """The execution template of a launch: its row shapes, the
    privileges handed to every shard, which requirements write and
    which of those batch their coherence writes
    (:func:`repro.legion.fastpath.eligible_write_reqs`).  Derived once
    per launch -- or, for a launch a trace replays, once per capture."""

    __slots__ = ("shapes", "privileges", "writers", "eligible", "validate")

    def __init__(
        self, task: TaskLaunch, validate: bool, replay: bool, freed_uids
    ) -> None:
        reqs = task.requirements
        self.validate = validate
        # Replay keeps the real results intact: nothing is poisoned.
        poison = validate and not replay
        self.shapes = tuple(_RowShape(req, validate, poison) for req in reqs)
        self.privileges = {req.name: req.privilege for req in reqs}
        self.writers = tuple(
            i for i, shape in enumerate(self.shapes) if shape.writes
        )
        # Requirements whose final coherence state is independent of
        # per-color write order (sole writer of its region, disjoint
        # Tiling over that region) defer their writes and apply them in
        # one batch after the color loop -- turning the O(colors^2)
        # incremental invalidation into one linear pass.
        eligible = _fastpath.eligible_write_reqs(task, replay, freed_uids)
        self.eligible = tuple(
            i for req in eligible.values()
            for i in self.writers if reqs[i] is req
        )


class _PlanRow:
    """One requirement of a launch, resolved once for all its colors.

    The color loop of :meth:`Runtime._execute_task` visits every
    (color, requirement) pair; whatever of a pair does not depend on
    the color is worked out here, per launch: the structural part comes
    from the :class:`_RowShape`, the rest binds this launch's region.
    """

    __slots__ = (
        "name", "region", "uid", "data", "rects", "pieces",
        "privilege", "reads", "writes", "elide", "skipped", "poison",
        "itemsize", "mem_scale", "coh",
    )

    def __init__(
        self,
        shape: _RowShape,
        region: Region,
        skipped: bool,
        mem_scale: Optional[float],
    ) -> None:
        self.name = shape.name
        self.rects = shape.rects
        self.pieces = shape.pieces
        self.privilege = shape.privilege
        self.reads = shape.reads
        self.writes = shape.writes
        self.elide = shape.elide
        self.poison = shape.poison
        self.region = region
        self.uid = region.uid
        # Replay of a launch journaled before the region was freed: its
        # coherence and instances are gone and nothing downstream can
        # read it, so the requirement is skipped physically and in the
        # event log.
        self.skipped = skipped
        self.data = (
            _readonly_view(region.data)
            if shape.readonly and not skipped
            else region.data
        )
        self.itemsize = region.itemsize
        self.mem_scale = mem_scale
        # The region's RegionCoherence, fetched by the first shard that
        # needs it (a lookup creates the entry).
        self.coh: Optional[RegionCoherence] = None


class _Group:
    """One planned group of a deferred window, as ``_flush`` runs it.

    Region-free: elided temporaries are named by (window index,
    requirement index), so the groups of a window a trace replays are
    kept on its first slot and the analysis is not redone.
    """

    __slots__ = (
        "indices", "names", "verdict", "label", "elide", "segments",
        "nest_key", "nests", "exec",
    )

    def __init__(
        self, indices, names, verdict, label, elide, segments, nest_key
    ) -> None:
        self.indices = indices
        self.names = names
        # The dependence pass's classification (depend.Verdict) and its
        # depend.verdict_label: "single", "merged" or "replay:<reason>".
        self.verdict = verdict
        self.label = label
        self.elide = elide
        # The group's segments (fusion.segments) in run order: each
        # one's positions in the group and whether it runs as a
        # generated nest.
        self.segments = segments
        # Groups with a nest: the structural half of the nest-cache
        # key, and the ``parts`` of fusion.fuse generated so far by
        # which elided temporaries (as positions in ``elide``) were
        # already dead at the flush.
        self.nest_key = nest_key
        self.nests: Dict[frozenset, list] = {}
        # The fused launch's execution template (kept windows only).
        self.exec: Optional[_LaunchShape] = None


class Runtime:
    """One simulated execution: a machine scope plus clocks and state."""

    def __init__(
        self,
        scope: MachineScope,
        config: Optional[RuntimeConfig] = None,
        backend: Optional[ExecutionBackend] = None,
    ):
        self.scope = scope
        self.machine = scope.machine
        self.config = config or RuntimeConfig()
        # The execution backend owns the clocks (issue clock, per-proc
        # busy times) and decides how client programs are driven; the
        # runtime reads/writes them through the properties below, so
        # all mapping/coherence code is backend-agnostic.
        self.backend = backend or create_backend(self.config.backend)
        self.backend.attach(scope.processors)
        self.profiler = Profiler()
        self.instances = InstanceManager(
            reserved_fb_bytes=self.config.reserved_fb_bytes,
            coalesce_slack=self.config.coalesce_slack,
            coalescing=self.config.coalescing,
            data_scale=self.config.data_scale,
            inflight_window=self.config.inflight_pool_window,
        )
        self._coherence: Dict[int, RegionCoherence] = {}
        self._memories = {mem.uid: mem for mem in self.machine.memories}
        # Advisor capture (repro.analysis.plan.PlanTrace): when set this
        # runtime is a *dry run* -- launches and fused groups are
        # recorded and everything runs as always, except that no kernel
        # is called and scalar reductions fold the plan's placeholders.
        self.plan_trace = None
        # Validation mode: the structured event log the offline checker
        # (python -m repro.analysis) replays.  None when not validating.
        self.event_log: Optional[EventLog] = None
        if self.config.validate:
            self.event_log = _register_log(EventLog(name=self.config.name))
        # Timeline profiling: the span recorder, or None when off.
        self.timeline: Optional[Timeline] = None
        if self.config.profile:
            self.timeline = _register_timeline(
                Timeline(
                    name=self.config.name,
                    meta={
                        "procs": len(scope.processors),
                        "kind": scope.kind.value,
                        "nodes": scope.nodes,
                    },
                )
            )
        self._proc_label = {
            p.uid: f"{p.kind.value}[{p.uid}]" for p in scope.processors
        }
        # Memory-magnification overrides keyed by region dim-0 extent;
        # see Region.mem_scale.
        self.mem_scale_by_extent: Dict[int, float] = {}
        # Traces (repro.legion.tracing): the registry behind trace(),
        # the outermost open scope (inner scopes join it) and the epoch
        # a captured body must have been recorded under to replay.
        self._traces: Dict[tuple, Trace] = {}
        self._trace: Optional[Trace] = None
        self._trace_depth = 0
        self._template_epoch = 0
        # Deferred launch window (automatic task fusion, see
        # repro.legion.fusion): fusible launches buffer here; flush
        # plans groups and executes.  The plan cache memoizes grouping
        # decisions by structural window signature, so a traced loop
        # pays the planning cost once per distinct window shape.
        self._window: List[TaskLaunch] = []
        self._deferred_frees: List[int] = []
        # Pending future of each reduction in the window -> its window
        # position (what a later launch's ``after`` edges name).
        self._window_roots: Dict[Future, int] = {}
        # Plans plus kernel-fusion verdicts, memoized per structural
        # window signature (the signature includes each launch's body
        # IR, so distinct programs can never share a cached verdict).
        self._fusion_cache: Dict[
            tuple, Tuple[List[fusion.GroupPlan], List["object"]]
        ] = {}
        # Generated nest specs per (window signature, group, elided /
        # dead local ids, step dtypes).  Nest kernels reference only
        # mangled requirement names — never regions — so a spec is
        # reusable across structurally identical windows; dtypes join
        # the key because the window signature does not carry them and
        # each step's cast target is baked into the source.
        self._nest_cache: Dict[tuple, "object"] = {}
        # Every executed window group, in order: (sub-launch names,
        # number of elided temporaries, verdict label) where the label
        # is depend.verdict_label — "single", "merged" or
        # "replay:<reason>".  The advisor reports a dry run's log as is.
        self.fusion_log: List[Tuple[Tuple[str, ...], int, str]] = []
        # Every runtime auto-format conversion, in order (see
        # RuntimeConfig.autoformat and csr_matrix._autoformat_alt);
        # tests/analysis/test_formatsel.py compares its (rows, nnz,
        # dst_fmt) entries against ``advise --autoformat``.
        self.autoformat_log: List[dict] = []
        self.machine.reset_channels()
        # Host staging memory: node-0 system memory.
        self._host_memory = next(
            m for m in self.machine.memories if m.kind == MemoryKind.SYSMEM
        )
        self._rng = np.random.default_rng(0x5EED)
        # Resilience (repro.legion.chaos): the injector draws the fault
        # schedule; the journal holds every launch executed since the
        # last checkpoint epoch so a node loss can be recovered by
        # replay.  Journaling only runs when a loss is scheduled — the
        # fault-free hot path pays a single None check.
        self._chaos = (
            ChaosInjector(self.config.chaos)
            if self.config.chaos is not None
            else None
        )
        self._journaling = (
            self._chaos is not None and self.config.chaos.has_losses
        )
        self._journal: List[TaskLaunch] = []
        # Resilience 2.0 (repro.legion.resilience): checkpoint snapshots
        # are replicated into the sysmems of ckpt_replicas distinct
        # fault domains; the manifest remembers what the last epoch
        # protects so the recovery planner can re-source every piece
        # from the cheapest surviving replica.  replicas=1 is exactly
        # the original single node-0 store.
        self._ckpt_stores: List[Memory] = _resilience.place_stores(
            self.machine,
            self.config.chaos.ckpt_replicas
            if self.config.chaos is not None
            else 1,
        )
        self._ckpt_manifest = _resilience.CheckpointManifest()
        # Regions freed since the last checkpoint: journal replay must
        # skip their requirements (coherence and instances are gone).
        self._freed_uids: set = set()
        self._in_recovery = False
        self._launches_since_ckpt = 0
        # Region metadata the spill/checkpoint paths need after mapping
        # (uid -> (name, itemsize)); dropped on free.
        self._region_meta: Dict[int, Tuple[str, int]] = {}
        # Host-side analysis state (repro.legion.fastpath): the
        # image-geometry cache, the constraint-solve memo consulted by
        # AutoTask.execute, per-region-uid reference and writer counts
        # over the deferred window (what free_region and pass_window
        # check), and the in-flight batched-write map (requirement name
        # -> (coherence, [(mem_uid, rect, t)])) that _execute_task
        # defers per-color mark_written calls into.
        self._image_cache = _fastpath.ImagePartitionCache()
        self._solve_memo = _fastpath.SolveMemo()
        self._window_refs: Dict[int, int] = {}
        self._window_writers: Dict[int, int] = {}
        self._pending_writes: Optional[dict] = None
        # (src uid, dst uid) -> (channels, summed latency, narrowest
        # bandwidth): a machine's channel objects and rates are fixed,
        # so the copy engine resolves each route once.
        self._routes: Dict[
            Tuple[int, int], Tuple[Tuple[Any, ...], float, float]
        ] = {}
        if self.timeline is not None:
            # Live references: save() then serializes the totals as of
            # export time without extra plumbing.
            self.timeline.meta["host_phases"] = (
                self.profiler.host_phase_seconds
            )
            self.timeline.meta["caches"] = self.profiler.fastpath_counters

    # ------------------------------------------------------------------
    # Clock delegation (the execution backend owns the clock state)
    # ------------------------------------------------------------------
    @property
    def issue_time(self) -> float:
        """The issue clock (owned by the execution backend)."""
        return self.backend.issue_time

    @issue_time.setter
    def issue_time(self, value: float) -> None:
        self.backend.issue_time = value

    @property
    def _proc_busy(self) -> Dict[int, float]:
        """Per-processor busy-until clocks (owned by the backend)."""
        return self.backend.proc_busy

    # ------------------------------------------------------------------
    # Program boundaries (long-lived / multi-tenant use)
    # ------------------------------------------------------------------
    def reset_for_program(self, clear_caches: bool = False) -> None:
        """Reset per-program state between back-to-back programs.

        A runtime historically lived exactly as long as one program, so
        several pieces of state are implicitly program-scoped and *leak*
        when a long-lived server reuses one runtime instance across
        client programs.  The audited leaks, each closed here:

        * **the deferred fusion window** — launches a program buffered
          but never synced would flush into the *next* program's
          timeline (and could fuse with its launches);
        * **the checkpoint cadence counter** — ``_launches_since_ckpt``
          carried over, so the next program's first auto-checkpoint
          fired early (after ``N - k`` launches instead of ``N``);
        * **the recovery journal** — journaled tasks referencing the
          previous program's (possibly freed) regions would be replayed
          into the next program's state after a loss;
        * **``fusion_log`` / ``autoformat_log``** — unbounded growth,
          and one tenant's op-stream shape visible to the next
          (a cross-tenant information leak in a serving context);
        * **traces** — the registry, any open scope and the template
          epoch (one program's captured bodies must not discount the
          next program's launches) — **and any in-flight batched
          writes**.

        When chaos journaling is active the journal cannot simply be
        dropped — recovery replays from the last checkpoint epoch, so a
        program boundary *is* a checkpoint epoch boundary: this method
        takes a checkpoint (which syncs, snapshots dirty state and
        clears the journal) instead of discarding coverage.

        ``clear_caches=True`` additionally drops the structural caches
        (fusion plans, generated nests, solve memo, image geometry).
        They are keyed structurally and never leak numerics, so a
        shared-model server keeps them warm across tenants by default;
        a strict-isolation tenant can clear them.

        Profiler counters are deliberately *not* reset — they are
        cumulative observability state; callers wanting per-program
        deltas use :meth:`Profiler.snapshot` / :meth:`Profiler.since`.
        """
        self.flush_window()
        self._pending_writes = None
        self._traces.clear()
        self._trace = None
        self._trace_depth = 0
        self._template_epoch += 1
        if self._journaling and (self._journal or self._freed_uids):
            # Program boundary == checkpoint epoch boundary (see above).
            self.checkpoint()
        self._journal.clear()
        self._freed_uids.clear()
        self._launches_since_ckpt = 0
        self.fusion_log.clear()
        self.autoformat_log.clear()
        if clear_caches:
            self._fusion_cache.clear()
            self._nest_cache.clear()
            self._solve_memo.clear()
            self._image_cache.clear()

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    MAX_TRACES = 64

    def trace(self, name: str, key: tuple = ()) -> Trace:
        """The runtime's trace with this id, created on first use.

        ``key`` tells apart the bodies one call site runs for different
        operands (``cg`` on a fine and on a coarse system), so that
        alternating between them does not re-capture each time.  The
        registry is bounded (oldest id dropped) and emptied by
        :meth:`reset_for_program`.
        """
        ident = (name, key)
        trace = self._traces.get(ident)
        if trace is None:
            if len(self._traces) >= self.MAX_TRACES:
                del self._traces[next(iter(self._traces))]
            trace = self._traces[ident] = Trace(self, name)
        return trace

    def _invalidate_templates(self) -> None:
        """Recovery, memory loss or pressure relief: bodies captured so
        far re-capture, and the open one runs on dynamically."""
        self._template_epoch += 1
        if self._trace is not None:
            self._trace.diverge()

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    def create_region(
        self,
        shape: Tuple[int, ...],
        dtype,
        data: Optional[np.ndarray] = None,
        name: str = "",
    ) -> Region:
        """Create a region (host data becomes valid in node-0 sysmem)."""
        region = Region(shape, dtype, data=data, name=name, runtime=self)
        coh = RegionCoherence()
        self._coherence[region.uid] = coh
        self._region_meta[region.uid] = (region.name, region.itemsize)
        if data is not None and region.rect.volume() > 0:
            # Attached host data: valid in node-0 system memory.  No
            # instance is charged — attach semantics: the host copy is a
            # staging fiction for data that real runs construct
            # distributed (capacity accounting applies to the instances
            # tasks map, like Legion attach).
            coh.mark_valid(self._host_memory.uid, region.rect, self.issue_time)
        return region

    def coherence(self, region: Region) -> RegionCoherence:
        """A region's validity-tracking state."""
        coh = self._coherence.get(region.uid)
        if coh is None:
            coh = RegionCoherence()
            self._coherence[region.uid] = coh
        return coh

    def free_region(self, region: Region) -> None:
        """Recycle instances and drop coherence state.

        Frees deliberately do NOT flush the deferred window — in-window
        temporaries are destroyed right after each expression statement,
        and flushing here would empty the window every statement and
        defeat fusion.  A region still referenced by a pending launch
        has its instance recycling deferred until after the next flush
        (the launch holds the region's backing array alive, so numerics
        are unaffected)."""
        if self._journaling:
            self._freed_uids.add(region.uid)
        # launch() counts each pending launch's region uids into
        # _window_refs (cleared when the window swaps out for flushing).
        if self._window_refs.get(region.uid, 0) > 0:
            self._deferred_frees.append(region.uid)
        else:
            self._coherence.pop(region.uid, None)
            self._region_meta.pop(region.uid, None)
            self.instances.free_region(region.uid)

    @property
    def num_procs(self) -> int:
        """Processors in this runtime's scope."""
        return len(self.scope.processors)

    @property
    def rng(self) -> np.random.Generator:
        """The runtime-seeded random generator."""
        return self._rng

    def seed(self, value: int) -> None:
        """Reset the runtime random generator."""
        self._rng = np.random.default_rng(value)

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def wait(self, future: Future) -> Any:
        """Block the issuing program on a future (control-flow sync).

        The flush executes the window, which resolves every reduction
        pending in it -- and, through them, every lazy scalar expression
        built on top."""
        self.flush_window()
        if future.roots is not None:
            self._force(future)
        self.issue_time = max(self.issue_time, future.ready_time)
        return future.value

    def _force(self, future: Future) -> None:
        """Resolve a future this runtime's flush left pending: one that
        another runtime's window owes, or nobody does any more."""
        for root in future.roots:
            if root.owner is not self and root.owner is not None:
                root.owner.flush_window()
        if future.roots is not None:
            raise RuntimeError(
                "future never resolved: the reduction that produces it "
                "was abandoned with its window (an earlier launch raised)"
            )

    def barrier(self) -> float:
        """Wait for all outstanding work; returns the simulated time.

        "All outstanding work" includes channel occupancy: a trailing
        copy — an asynchronous checkpoint snapshot or a spill issued
        after the last kernel — keeps the machine busy past every
        processor clock, and the sync point must wait for it.  (The
        pre-fix formula took only ``max(issue, procs)`` and silently
        under-reported runs ending in a copy.)
        """
        self.flush_window()
        self.issue_time = self.backend.horizon(self.machine)
        if self.timeline is not None:
            self.timeline.note_horizon(self.issue_time)
        return self.issue_time

    def elapsed(self) -> float:
        """Latest simulated time across issue, processors and channels."""
        self.flush_window()
        horizon = self.backend.horizon(self.machine)
        if self.timeline is not None:
            self.timeline.note_horizon(horizon)
        return horizon

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def _copy(
        self,
        src: Memory,
        dst: Memory,
        nbytes: int,
        ready: float,
        label: str = "",
        category: str = "copy",
    ) -> float:
        """Schedule a copy between memories; returns its finish time.

        Under chaos injection a copy attempt may hit a transient link
        error: the doomed attempt still occupies the channels, then the
        runtime backs off exponentially (on the simulated clock) and
        retries, up to ``ChaosConfig.max_retries`` — after which the
        fault is deemed permanent and raises :class:`FaultError`.
        Numerics are untouched: only modeled time is lost.

        ``label``/``category`` name the timeline span when profiling
        (category "copy", or "spill"/"checkpoint" for those paths).
        """
        nbytes = int(nbytes * self.config.effective_comm_scale)
        channels, latency, bandwidth = self._route(src, dst)
        start = ready
        for chan in channels:
            if chan.busy_until > start:
                start = chan.busy_until
        tl = self.timeline
        chaos = self._chaos
        if chaos is not None:
            attempt = 0
            while chaos.copy_fault():
                attempt += 1
                self.profiler.record_fault("copy")
                if self.event_log is not None:
                    self.event_log.record_fault(
                        "copy", detail=f"attempt {attempt}"
                    )
                if attempt > chaos.config.max_retries:
                    raise FaultError(
                        f"copy of {nbytes} bytes ({src.kind.value}[{src.uid}]"
                        f" -> {dst.kind.value}[{dst.uid}]) still failing "
                        f"after {attempt - 1} retries"
                    )
                # The failed attempt held the wire; back off, retry.
                failed = start + latency + nbytes / bandwidth
                pause = chaos.backoff(attempt)
                self.profiler.record_retry(pause)
                for chan in channels:
                    chan.busy_until = max(chan.busy_until, failed)
                    if tl is not None:
                        tl.record(
                            "retry", chan.name,
                            f"{label or 'copy'}!attempt{attempt}",
                            start, failed, nbytes=nbytes,
                        )
                        tl.record(
                            "backoff", chan.name,
                            f"{label or 'copy'}!backoff{attempt}",
                            failed, failed + pause,
                        )
                start = failed + pause
        finish = start + latency + nbytes / bandwidth
        for chan in channels:
            chan.busy_until = finish
            self.profiler.record_copy(chan.name, nbytes)
            if tl is not None:
                tl.record(
                    category, chan.name, label or category,
                    start, finish, nbytes=nbytes,
                )
        return finish

    def _route(
        self, src: Memory, dst: Memory
    ) -> Tuple[Tuple[Any, ...], float, float]:
        """The channels a copy occupies, their summed latency and the
        narrowest bandwidth among them (memoized per memory pair)."""
        key = (src.uid, dst.uid)
        route = self._routes.get(key)
        if route is None:
            channels = tuple(self.machine.channels_between(src, dst))
            route = self._routes[key] = (
                channels,
                sum(c.latency for c in channels),
                min(c.bandwidth for c in channels),
            )
        return route

    def _intra_copy(
        self, memory: Memory, nbytes: int, ready: float, kind: str, row: _PlanRow
    ) -> float:
        """Charge a within-memory migration (``kind``: resize or dup)."""
        nbytes = int(nbytes * self.config.data_scale)
        chan = self._route(memory, memory)[0][0]
        start = max(ready, chan.busy_until)
        finish = start + nbytes / chan.bandwidth
        chan.busy_until = finish
        if self.timeline is not None:
            self.timeline.record(
                "resize", chan.name, f"{kind}:{row.region.name or row.name}",
                start, finish, nbytes=nbytes,
            )
        return finish

    # ------------------------------------------------------------------
    # Task launch: the deferred window (automatic task fusion)
    # ------------------------------------------------------------------
    def launch(self, task: TaskLaunch) -> Optional[Future]:
        """Issue a task launch.

        Fusible launches -- element-wise ones and scalar reductions over
        read-only aligned tilings, see :func:`repro.legion.fusion.fusible`
        -- enter the deferred window.  Any other launch executes at
        once, after :meth:`pass_window` has ordered it against the
        window: flushed first if the two are dependent, left deferred
        behind the launch if not.  A reduction issued into the window
        returns a *pending* future, which the flush resolves.  Numerics
        are unaffected by the deferral: anything that could observe a
        pending result — future waits, barriers, host reads of store
        data, a non-fusible launch that touches what the window writes
        (or whose solve reads it for an image partition) — flushes
        first.  With ``fusion`` off nothing is deferred and every
        returned future is resolved.
        """
        plan = self.plan_trace
        if plan is not None:
            plan.record_launch(task)
        chaos = self._chaos
        if (
            chaos is not None
            and chaos.config.checkpoint_every > 0
            and not self._in_recovery
        ):
            self._launches_since_ckpt += 1
            if self._launches_since_ckpt >= chaos.config.checkpoint_every:
                self._launches_since_ckpt = 0
                self.checkpoint()
        slot = task.slot
        if slot is None and self._trace is not None:
            self._trace.issue(task)
            slot = task.slot
        if not self.config.fusion:
            fusible = False
        elif slot is None:
            fusible = fusion.fusible(task)
        else:
            # A traced position admits its launch to the window the
            # way the capture did.
            fusible = slot.fusible
            if fusible is None:
                fusible = slot.fusible = fusion.fusible(task)
        if not fusible:
            if self._window and not task.ordered:
                self.pass_window(
                    [
                        (req.region.uid, req.privilege.writes)
                        for req in task.requirements
                    ],
                    task.scalars,
                )
            return self._execute(task)
        window = self._window
        roots = self._window_roots
        if roots and task.scalars:
            # The reduction constraint's edges: which reductions of this
            # window the launch's scalars are still waiting for.
            task.after = tuple(sorted({
                roots[root] for root in pending_roots(task.scalars)
                if root in roots
            }))
        future = None
        if task.reduction is not None:
            future = task.future = Future.pending(self)
            if plan is not None:
                # A fused group folds its members' placeholders; the
                # flush resolves this future to the same value, at the
                # modeled time.
                future.value = plan.deferred_scalar(task.name)
            roots[future] = len(window)
        window.append(task)
        refs = self._window_refs
        writers = self._window_writers
        for req in task.requirements:
            uid = req.region.uid
            refs[uid] = refs.get(uid, 0) + 1
            if req.privilege.writes:
                writers[uid] = writers.get(uid, 0) + 1
        if len(window) >= self.config.fusion_window:
            self.flush_window()
        return future

    def pass_window(self, accesses, scalars) -> None:
        """Order a launch that will not join the deferred window against it.

        ``accesses`` are ``(region uid, writes)`` pairs for everything
        the launch touches -- and the solve of its image constraints
        reads; ``scalars`` are its scalar arguments.  On a *hazard* the
        window is flushed, so its members run first, as issued:

        * the launch touches a region a member writes (RAW, WAW);
        * it writes -- REDUCE included -- a region a member touches
          (WAR, WAW);
        * it takes a scalar that derives from a reduction still pending
          in the window.

        Otherwise the launch *passes*: it runs now, ahead of the
        members, which stay deferred and may go on fusing with what is
        issued after it.  The two orders differ only in independent
        launches, so every value is the unfused one.  Non-fusible
        launches never reorder among themselves (each runs when
        issued), which keeps the runtime generator's draws in program
        order.  The test reads the window's per-region counts: it is
        O(arguments), whatever the window holds.
        """
        if not self._window:
            return
        if self._hazard(accesses, scalars):
            self.profiler.hazard_flushes += 1
            self.flush_window()
        else:
            self.profiler.launches_passed += 1

    def _hazard(self, accesses, scalars) -> bool:
        refs = self._window_refs
        writers = self._window_writers
        for uid, writes in accesses:
            if uid in writers or (writes and uid in refs):
                return True
        roots = self._window_roots
        return bool(roots) and any(
            root in roots for root in pending_roots(scalars)
        )

    def flush_window(self) -> None:
        """Plan and execute every launch buffered in the window."""
        if not self._window:
            return
        window, self._window = self._window, []
        frees, self._deferred_frees = self._deferred_frees, []
        if self._window_refs:
            self._window_refs.clear()
            self._window_writers.clear()
        if self._window_roots:
            self._window_roots.clear()
        t0 = _perf()
        try:
            self._flush(window, frees)
        finally:
            # Regions freed while referenced by the (now executed or
            # abandoned) window: recycle their instances.
            for uid in frees:
                self._coherence.pop(uid, None)
                self._region_meta.pop(uid, None)
                self.instances.free_region(uid)
            self.profiler.record_host_phase("window-flush", _perf() - t0)

    def _flush(self, window: List[TaskLaunch], frees: Sequence[int] = ()) -> None:
        t0 = _perf()
        # A window whose launches one trace body issued at matched or
        # captured positions is planned once per capture: its groups
        # are kept on the first position's slot.
        kept = _window_key(window)
        freed = frozenset(frees)
        if kept is None:
            groups = self._plan_window(window)
        else:
            first = window[0].slot
            groups = first.windows.get(kept) if first.windows else None
            if groups is None:
                # A slot outlives re-captures of the positions after
                # it, whose windows it would otherwise keep for ever.
                if first.windows is None or len(first.windows) >= 8:
                    first.windows = {}
                groups = first.windows[kept] = self._plan_window(window)
        self.profiler.record_host_phase("dependence", _perf() - t0)
        for group in groups:
            indices = group.indices
            self.fusion_log.append((group.names, len(group.elide), group.label))
            if len(indices) == 1:
                self._execute(window[indices[0]])
                continue
            tasks = [window[i] for i in indices]
            if self.plan_trace is not None:
                self.plan_trace.record_group(group, tasks)
            uids = [window[i].requirements[j].region.uid for i, j in group.elide]
            elide_uids = frozenset(uids)
            parts = ()
            if group.nest_key is not None:
                # Elided temporaries already freed by the host are
                # provably dead: their stores are unobservable, so
                # the nest keeps them as values only.
                dead = frozenset(k for k, uid in enumerate(uids) if uid in freed)
                parts = group.nests.get(dead)
                if parts is None:
                    parts = group.nests[dead] = self._nests(
                        group, dead, tasks, uids
                    )
                for positions, nest in parts:
                    if nest is not None:
                        self.profiler.record_kernel_merge(
                            len(positions), nest.temps_eliminated
                        )
            merged = fusion.fuse(tasks, elide_uids, parts)
            if kept is not None:
                merged.slot = group
            trace = tasks[0].replayed_in
            if trace is not None and all(
                task.replayed_in is trace for task in tasks
            ):
                merged.replayed_in = trace
            self.profiler.record_fusion(len(indices), len(group.elide))
            self._execute(merged)

    def _plan_window(self, window: List[TaskLaunch]) -> List[_Group]:
        """Group a window's launches: the structural analysis of a flush."""
        # Lazy import: the analyzer reaches repro.numeric, whose package
        # import comes back through this module.
        from repro.analysis import depend

        summaries = [fusion.summarize_launch(task) for task in window]
        key = fusion.signature(summaries)
        local = fusion.local_ids(summaries)
        cached = self._fusion_cache.get(key)
        if cached is None:
            plans = fusion.plan_window(summaries)
            verdicts = [
                depend.classify(summaries, local, plan) for plan in plans
            ]
            cached = (plans, verdicts)
            self._fusion_cache[key] = cached
        plans, verdicts = cached
        kernel_fusion = self.config.kernel_fusion
        ref_of: Optional[Dict[int, Tuple[int, int]]] = None
        groups = []
        for plan, verdict in zip(plans, verdicts):
            indices = plan.indices
            label = depend.verdict_label(plan, verdict, kernel_fusion)
            elide: tuple = ()
            if plan.elide:
                if ref_of is None:
                    # Local region id -> where the window first names it.
                    ref_of = {}
                    for i, summary in enumerate(summaries):
                        for j, acc in enumerate(summary.accesses):
                            ref_of.setdefault(local[acc.region.uid], (i, j))
                elide = tuple(ref_of[lid] for lid in sorted(plan.elide))
            # Run order: by segment, each either a generated nest or a
            # replay of its members (one segment: the label says which).
            if verdict.segments:
                where = {index: k for k, index in enumerate(indices)}
                segments = tuple(
                    (
                        tuple(where[i] for i in part),
                        kernel_fusion and part_verdict.merge_safe,
                    )
                    for part, part_verdict in verdict.segments
                )
            else:
                segments = ((tuple(range(len(indices))), label == "merged"),)
            nested = [
                window[indices[k]]
                for positions, merged in segments if merged
                for k in positions
            ]
            nest_key = None
            if nested:
                # The window signature does not carry dtypes and each
                # step's cast target is baked into the nest source.
                nest_key = (
                    key,
                    indices,
                    plan.elide,
                    tuple(
                        str(
                            next(
                                r.region.data.dtype
                                for r in task.requirements
                                if r.name == task.pointwise.out
                            )
                        )
                        for task in nested
                        if task.reduction is None
                    ),
                )
            groups.append(
                _Group(
                    indices, tuple(window[i].name for i in indices),
                    verdict, label, elide, segments, nest_key,
                )
            )
        return groups

    def _nests(self, group: _Group, dead, tasks, uids) -> list:
        """The ``parts`` of :func:`fusion.fuse` for a group with a nest:
        each segment's positions with its generated loop nest (through
        the cache), or None where the segment replays."""
        from repro.analysis import depend
        from repro.distal import codegen

        parts = []
        for number, (positions, merged) in enumerate(group.segments):
            nest = None
            if merged:
                nest_key = (group.nest_key, dead, number)
                nest = self._nest_cache.get(nest_key)
                if nest is None:
                    nplan = depend.build_nest_plan(
                        [tasks[i] for i in positions],
                        frozenset(uids),
                        frozenset(uids[k] for k in dead),
                        positions,
                    )
                    nest = self._nest_cache[nest_key] = codegen.generate_nest(
                        nplan
                    )
            parts.append((positions, nest))
        return parts

    def _execute(self, task: TaskLaunch, replay: bool = False) -> Optional[Future]:
        """Execute a task launch: map, copy, run, time (see module docs).

        With ``replay=True`` (journal replay after a loss) the task is
        re-mapped, re-staged and re-timed but its *kernel is skipped*:
        numerics never depend on placement, so the backing arrays
        already hold the exact results and replay restores only
        coherence/placement state — which is why a recovered run is
        bitwise-identical to a fault-free one by construction.
        """
        try:
            return self._execute_task(task, replay)
        except BaseException:
            # A shard failure mid-launch must not leave batched
            # coherence writes dangling: replay them sequentially so
            # the region tree holds the partial state per-color
            # mark_written calls would have left.
            self._flush_pending_writes()
            raise

    def _flush_pending_writes(self) -> None:
        """Apply deferred coherence writes sequentially, in issue order.

        Called when something needs the region tree mid-launch — memory
        pressure relief scans every region's coherence, and an exception
        abandons the launch with writes already performed.  Replaying
        the deferred ``(memory, rect, time)`` triples through
        ``mark_written`` in issue order reproduces the exact partial
        state unbatched per-color writes would hold at this point.
        """
        pending = self._pending_writes
        if pending is None:
            return
        self._pending_writes = None
        for coh, writes in pending.values():
            for mem_uid, rect, t in writes:
                coh.mark_written(mem_uid, rect, t)

    def _execute_task(
        self, task: TaskLaunch, replay: bool = False
    ) -> Optional[Future]:
        chaos = self._chaos
        if chaos is not None and not replay and not self._in_recovery:
            due = chaos.take_losses(self.issue_time)
            if due:
                self._recover(due)
        colors = task.color_count
        procs = self.scope.processors
        self.profiler.record_task(task.name, colors)
        log = self.event_log
        config = self.config
        validate = config.validate
        launch_id = log.record_task(task.name, colors) if log is not None else 0
        overhead = config.launch_overhead
        # Journal replay after a loss is no trace replay: it pays the
        # full overhead and re-derives everything below.
        recovering = replay or self._in_recovery
        trace = task.replayed_in
        if trace is not None and not recovering:
            overhead *= config.trace_replay_fraction
            trace.replayed_launches += 1
        issued = self.issue_time
        self.issue_time = issued + overhead
        self.profiler.record_launch_overhead(overhead)
        tl = self.timeline
        if tl is not None:
            # One issue span per launch: a fused group shows as a single
            # span for the whole merged launch — the overhead saving
            # fusion buys is directly visible on the "issue" row.
            tl.record("issue", "issue", task.name, issued, self.issue_time)

        scalar_ready = 0.0
        scalar_values: Dict[str, Any] = {}
        for key, val in task.scalars.items():
            if isinstance(val, Future):
                # Plain attributes: a consumer's group runs after its
                # producer's, so only a future owed from outside this
                # window can still be pending here.
                if val.roots is not None:
                    self._force(val)
                scalar_ready = max(scalar_ready, val.ready_time)
                scalar_values[key] = val.value
            else:
                scalar_values[key] = val

        # Journal replay skips the kernel because the arrays already
        # hold its results, a dry run (an attached PlanTrace) because
        # nothing is to be computed: there a scalar reduction folds the
        # plan's placeholder partials, at the modeled times.
        plan = self.plan_trace
        run_kernel = not replay and plan is None
        reducing = not replay and task.reduction is not None
        partial = (
            plan.placeholder(task) if reducing and plan is not None else None
        )
        partials: List[Any] = []
        partial_times: List[float] = []
        reduce_writes: Dict[str, List[Tuple[Rect, Memory, float]]] = {}

        # The launch's shape: what a launch a trace replays took from
        # its requirements the first time is taken from the slot now.
        reqs = task.requirements
        freed = self._freed_uids
        slot = None if recovering else task.slot
        shape = None if slot is None else slot.exec
        if shape is None or shape.validate is not validate:
            shape = _LaunchShape(task, validate, replay, freed)
            if slot is not None:
                slot.exec = shape
        privileges = shape.privileges
        # Any task write to a region invalidates cached images of it
        # (images read region data at solve time).
        image_cache = self._image_cache
        for i in shape.writers:
            image_cache.bump(reqs[i].region.uid)
        if shape.eligible:
            self._pending_writes = {
                reqs[i].name: (self.coherence(reqs[i].region), [])
                for i in shape.eligible
            }
        map_s = 0.0
        event_s = 0.0

        # Requirement-major mapping: everything a requirement needs that
        # does not depend on the color is resolved once, here; the color
        # loop below then pays per shard only for what differs per shard.
        rows = [
            _PlanRow(
                row_shape,
                req.region,
                replay and req.region.uid in freed,
                self._mem_scale(req.region),
            )
            for row_shape, req in zip(shape.shapes, reqs)
        ]
        write_rows = [
            rows[i] for i in shape.writers if not rows[i].skipped
        ]
        shard_overhead = config.shard_overhead
        scale = config.data_scale
        pressure_slowdown = config.memory_pressure_slowdown
        issue_time = self.issue_time
        proc_busy = self._proc_busy
        state_of = self.instances.state
        record_event = self.profiler.record_event

        for color in range(colors):
            proc = procs[color % len(procs)]
            memory = proc.memory
            mem_uid = memory.uid
            t_input = max(
                issue_time, scalar_ready, proc_busy[proc.uid] + shard_overhead
            )

            arrays: Dict[str, np.ndarray] = {}
            rects: Dict[str, Rect] = {}
            state = None  # the memory's allocation store, on first need
            t_map = _perf()
            for row in rows:
                name = row.name
                rect = rects[name] = row.rects[color]
                arrays[name] = row.data
                if row.skipped or rect.is_empty():
                    continue
                if row.poison:
                    # Discarded contents must never be observed: poison
                    # them so reads of undefined data propagate NaNs.
                    _poison(row.data, rect)
                if row.elide:
                    # Elided temporary (produced and consumed inside
                    # this fused task): no instance allocation, no
                    # staging.  Coherence is still marked on write so a
                    # read escaping the group stays correct.
                    continue
                # The steady-state lane, first half: an instance that
                # already holds the rect is found and stamped as used,
                # which is all ensure() would do.  A chaos injector
                # draws an allocation fault per mapping, so with one
                # attached every mapping takes the full path.
                if state is None:
                    state = state_of(memory)
                if chaos is None and state.use(row.uid, rect) is not None:
                    fresh = False
                else:
                    resize_bytes, fresh, t_input = self._map_instance(
                        memory, row, rect, task, t_input
                    )
                    if resize_bytes:
                        self.profiler.record_resize(resize_bytes)
                        t_input = self._intra_copy(
                            memory, resize_bytes, t_input, "resize", row
                        )
                if not row.reads:
                    continue
                coh = row.coh
                if coh is None:
                    coh = row.coh = self.coherence(row.region)
                if fresh:
                    # Populate the new instance with whatever part of
                    # the rect is already valid in this memory (held
                    # by other instances of the region).
                    missing = sum(
                        piece.volume() for piece in coh.missing(mem_uid, rect)
                    )
                    dup = (rect.volume() - missing) * row.itemsize
                    if dup > 0:
                        self.profiler.record_resize(dup)
                        t_input = self._intra_copy(
                            memory, dup, t_input, "dup", row
                        )
                for piece in row.pieces[color]:
                    # The lane's second half: one valid piece holding
                    # all that is read means nothing is missing, and
                    # its time is the ready time.  Anything else -- and
                    # every read under validation, whose stale-read
                    # assertion lives there -- goes to the copy path.
                    if not validate:
                        ready = coh.covered_ready(mem_uid, piece)
                        if ready is not None:
                            if ready > t_input:
                                t_input = ready
                            continue
                    t_input = self._stage_reads(
                        row.region, memory, piece, t_input, replay=replay
                    )
            map_s += _perf() - t_map

            ctx = ShardContext(
                color, colors, arrays, rects, scalar_values, config,
                privileges,
            )
            flops, nbytes = task.cost_fn(ctx)
            exec_time = proc.kernel_time(float(flops) * scale, float(nbytes) * scale)
            if pressure_slowdown != 1.0:
                store = state_of(memory)
                budget = memory.capacity - store.reserved_bytes
                if budget > 0 and (
                    store.used_bytes / budget
                    > config.memory_pressure_threshold
                ):
                    exec_time *= pressure_slowdown
            self.profiler.kernel_seconds += exec_time
            start = t_input
            finish = start + exec_time
            proc_busy[proc.uid] = finish
            record_event(task.name, start, finish)
            if tl is not None:
                tl.record(
                    "task", self._proc_label[proc.uid],
                    f"replay:{task.name}" if replay else task.name,
                    start, finish,
                    nbytes=int(float(nbytes) * scale),
                    flops=float(flops) * scale,
                )

            if run_kernel:
                partial = task.kernel(ctx)
            if reducing:
                partials.append(partial)
                partial_times.append(finish)

            t_event = _perf()
            # Read once per shard, after mapping: pressure relief
            # mid-launch flushes the batch and later writes go direct.
            pending_writes = self._pending_writes
            for row in write_rows:
                rect = rects[row.name]
                if rect.is_empty():
                    continue
                if row.privilege is Privilege.REDUCE:
                    reduce_writes.setdefault(row.name, []).append(
                        (rect, memory, finish)
                    )
                    continue
                pending = (
                    None if pending_writes is None
                    else pending_writes.get(row.name)
                )
                if pending is not None:
                    pending[1].append((mem_uid, rect, finish))
                else:
                    coh = row.coh
                    if coh is None:
                        coh = row.coh = self.coherence(row.region)
                    coh.mark_written(mem_uid, rect, finish)
            event_s += _perf() - t_event

            if log is not None:
                log.record_shard(
                    launch_id, task.name, color, proc.uid, mem_uid,
                    [
                        ReqAccess(
                            row.name, row.uid, row.region.name,
                            rects[row.name], row.privilege.value,
                            row.pieces[color] if row.reads else (),
                        )
                        for row in rows
                        if not row.skipped
                    ],
                    start, finish, replay=replay,
                )

        pending_map = self._pending_writes
        if pending_map is not None:
            # All colors done: the deferred writes cover each region
            # with disjoint tiles, so one batched rebuild lands the
            # exact state the sequential invalidations would have.
            self._pending_writes = None
            t_event = _perf()
            counters = self.profiler.fastpath_counters
            for coh, writes in pending_map.values():
                if writes:
                    coh.write_complete(writes)
                    counters["batched_writes"] += len(writes)
            event_s += _perf() - t_event
        if map_s:
            self.profiler.record_host_phase("mapping", map_s)
        if event_s:
            self.profiler.record_host_phase("event-advance", event_s)

        for req in task.requirements:
            if req.name in reduce_writes:
                self._fold_reduction(
                    task, req, reduce_writes[req.name], colors, launch_id
                )

        if self._journaling:
            self._journal.append(task)
        if reducing:
            return self._reduce(task, partials, partial_times)
        # Journal replay has no partials to reduce: the original
        # futures already carry the values.
        return None

    def _reduce(
        self, task: TaskLaunch, partials: List[Any], times: List[float]
    ) -> Optional[Future]:
        """Fold a launch's scalar partials and resolve its futures.

        A fused group with k member reductions returned k partials per
        shard: each value is folded on its own by its own op, in color
        order -- bitwise what the launch run alone would produce -- and
        the k values share ONE allreduce tree carrying ``8 * k`` bytes.
        """
        ops = task.reduction
        if type(ops) is str:
            result = self.allreduce(partials, times, op=ops)
            future = task.future
            if future is None:
                return result
            future.resolve(result.value, result.ready_time)
            return future
        values = [
            _fold(op, [shard[k] for shard in partials])
            for k, op in enumerate(ops)
        ]
        ready = self._allreduce_ready(
            len(partials), times, "+".join(ops), 8 * len(ops)
        )
        for future, value in zip(task.future, values):
            future.resolve(value, ready)
        return None

    def _stage_reads(
        self,
        region: Region,
        memory: Memory,
        rect: Rect,
        t_input: float,
        replay: bool = False,
    ) -> float:
        """Make ``rect`` of ``region`` valid in ``memory``; derive copies.

        During journal replay, pieces valid nowhere are skipped without
        complaint: the original execution already consumed them, and a
        value overwritten after the last checkpoint may legitimately no
        longer exist anywhere (kernels are skipped, so nothing actually
        reads the missing bytes).
        """
        coh = self.coherence(region)
        t_input = max(t_input, coh.ready_time(memory.uid, rect))
        missing = coh.missing(memory.uid, rect)
        for piece in missing:
            for src_uid, frag, t_src in coh.find_source(piece, exclude=memory.uid):
                src_mem = self._memory_by_uid(src_uid)
                nbytes = frag.volume() * region.itemsize
                finish = self._copy(
                    src_mem, memory, nbytes, t_src,
                    label=(
                        "" if self.timeline is None
                        else f"stage:{region.name}" if region.name
                        else "stage"
                    ),
                )
                if self.event_log is not None:
                    self.event_log.record_copy(
                        region.uid, region.name, frag,
                        src_uid, memory.uid, nbytes,
                    )
                coh.mark_valid(memory.uid, frag, finish)
                t_input = max(t_input, finish)
        if self.config.validate and not replay:
            # Online stale-read assertion: after staging, every piece of
            # the rect that was ever written must be valid here.
            bad = coh.stale(memory.uid, rect)
            if bad:
                raise ValidationError(
                    f"stale read of region {region.name!r}: pieces {bad} "
                    f"were written but never made valid in memory "
                    f"{memory.uid}"
                )
        return t_input

    def _map_instance(
        self,
        memory: Memory,
        row: _PlanRow,
        rect: Rect,
        task: TaskLaunch,
        t_input: float,
    ) -> Tuple[int, bool, float]:
        """Find-or-create the shard's instance, resiliently.

        Returns ``(resize_bytes, fresh, t_input)`` -- the first two as
        :meth:`MemoryState.ensure` reports them.  Transient allocation
        faults (chaos) retry with exponential backoff on the simulated
        clock.  On :class:`OutOfMemoryError` with spilling enabled, the
        runtime relieves pressure (drain the recycled pool, evict clean
        LRU instances, spill dirty pieces to system memory over the
        modeled channels) and retries; when relief frees nothing, the
        annotated error propagates.
        """
        chaos = self._chaos
        attempt = 0
        while True:
            if chaos is not None and chaos.alloc_fault():
                attempt += 1
                self.profiler.record_fault("alloc")
                if self.event_log is not None:
                    self.event_log.record_fault(
                        "alloc", detail=f"task {task.name!r} attempt {attempt}"
                    )
                if attempt > chaos.config.max_retries:
                    raise FaultError(
                        f"allocation for task {task.name!r} in "
                        f"{memory.kind.value}[{memory.uid}] still failing "
                        f"after {attempt - 1} retries"
                    )
                pause = chaos.backoff(attempt)
                self.profiler.record_retry(pause)
                if self.timeline is not None:
                    self.timeline.record(
                        "backoff",
                        f"{memory.kind.value}[{memory.uid}]",
                        f"alloc:{task.name}!backoff{attempt}",
                        t_input, t_input + pause,
                    )
                t_input += pause
                continue
            try:
                _, resize_bytes, fresh = self.instances.ensure(
                    memory, row.uid, rect, row.itemsize, scale=row.mem_scale
                )
                return resize_bytes, fresh, t_input
            except OutOfMemoryError as exc:
                if not self.config.spill:
                    raise exc.annotate(
                        region_name=row.region.name, task=task.name
                    ) from None
                pinned = {r.region.uid for r in task.requirements}
                t_relief, freed = self._relieve_pressure(
                    memory, exc.requested, t_input, pinned
                )
                if freed <= 0:
                    # Nothing left to evict or spill: a genuine OOM.
                    raise exc.annotate(
                        region_name=row.region.name, task=task.name
                    ) from None
                t_input = max(t_input, t_relief)

    def _relieve_pressure(
        self,
        memory: Memory,
        need_scaled: float,
        now: float,
        pinned: set,
    ) -> Tuple[float, float]:
        """Free capacity in ``memory`` for a ``need_scaled``-byte charge.

        Three escalating steps, stopping as soon as enough is free:

        1. drain the recycled-allocation pool (deferred collection);
        2. evict least-recently-used *clean* instances — pieces whose
           written data is fully valid in some other memory can simply
           be dropped (re-reads restage them);
        3. spill *dirty* pieces (only valid copy lives here, per
           :meth:`RegionCoherence.only_copy`) to system memory over the
           modeled channels, charging the copy time, then drop.

        Instances of regions in ``pinned`` (the task being mapped) are
        never touched.  Returns ``(ready_time, scaled_bytes_freed)``;
        zero freed means the caller's OOM is genuine.
        """
        # Spill decisions read every region's coherence (only_copy):
        # batched writes must land first so dirtiness is current.
        self._flush_pending_writes()
        self._invalidate_templates()
        st = self.instances.state(memory)
        before = st.available
        st.drain_pool()
        freed = max(0.0, st.available - before)
        t = now
        host = self._host_memory
        # Pass 1: drop clean LRU instances.
        if st.available < need_scaled:
            for inst in st.lru_instances():
                if st.available >= need_scaled:
                    break
                if inst.region_uid in pinned:
                    continue
                coh = self._coherence.get(inst.region_uid)
                if coh is None:
                    continue
                if not coh.only_copy(memory.uid, inst.rect).is_empty():
                    continue  # dirty: needs a spill, not a drop
                nbytes = st.drop_instance(inst)
                coh.invalidate(memory.uid, inst.rect)
                self.profiler.record_eviction(nbytes)
                if self.timeline is not None:
                    # Zero-width marker: dropping a clean instance costs
                    # no modeled time, but the pressure event matters.
                    name, _ = self._region_meta.get(inst.region_uid, ("", 0))
                    self.timeline.record(
                        "evict",
                        f"{memory.kind.value}[{memory.uid}]",
                        f"evict:{name or inst.region_uid}",
                        t, t, nbytes=int(nbytes),
                    )
                freed += nbytes
        # Pass 2: spill dirty instances to host system memory.
        if st.available < need_scaled and memory.uid != host.uid:
            for inst in st.lru_instances():
                if st.available >= need_scaled:
                    break
                if inst.region_uid in pinned:
                    continue
                coh = self._coherence.get(inst.region_uid)
                if coh is None:
                    continue
                name, itemsize = self._region_meta.get(
                    inst.region_uid, ("", inst.itemsize)
                )
                for rect in coh.only_copy(memory.uid, inst.rect).rects():
                    nbytes = rect.volume() * itemsize
                    finish = self._copy(
                        memory, host, nbytes,
                        max(t, coh.ready_time(memory.uid, rect)),
                        label=f"spill:{name or inst.region_uid}",
                        category="spill",
                    )
                    if self.event_log is not None:
                        self.event_log.record_copy(
                            inst.region_uid, name, rect,
                            memory.uid, host.uid, nbytes, why="spill",
                        )
                    coh.mark_valid(host.uid, rect, finish)
                    self.profiler.record_spill(
                        int(nbytes * self.config.effective_comm_scale)
                    )
                    t = max(t, finish)
                freed += st.drop_instance(inst)
                coh.invalidate(memory.uid, inst.rect)
        return t, freed

    # ------------------------------------------------------------------
    # Checkpoint / recovery (repro.legion.chaos)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Open a new checkpoint epoch: snapshot dirty data to the stores.

        Every written piece not already valid in a checkpoint store is
        copied there over the modeled channels (attach semantics: no
        sysmem instance is charged, like the host staging fiction in
        :meth:`create_region`).  With ``ChaosConfig.ckpt_replicas > 1``
        the snapshot lands in the sysmems of that many distinct fault
        domains (see :func:`repro.legion.resilience.place_stores`);
        traffic beyond the primary store is counted as replication
        bytes.  The journal then resets — a subsequent loss replays
        only tasks launched after this epoch — and the manifest records
        what the epoch protects, for the recovery planner.  Returns the
        scaled snapshot bytes (all replicas).

        The snapshot drains *asynchronously*: the issue clock is not
        blocked on it (real checkpointing overlaps compute), so only
        channel occupancy remembers the traffic — which is exactly what
        the sync-point clocks (:meth:`elapsed`/:meth:`barrier`) fold in.
        """
        self.flush_window()
        chaos = self._chaos
        if chaos is not None and not self._in_recovery:
            # A loss already due must recover *before* the snapshot: a
            # checkpoint drained after the loss time must not capture
            # state the loss has (in simulated time) already destroyed.
            due = chaos.take_losses(self.issue_time)
            if due:
                self._recover(due)
        # Re-place the stores each epoch: a node dead during the last
        # recovery has "restarted" by the next checkpoint and rejoins
        # the replica set.
        self._ckpt_stores = _resilience.place_stores(
            self.machine,
            chaos.config.ckpt_replicas if chaos is not None else 1,
        )
        manifest = _resilience.CheckpointManifest()
        primary_uid = self._ckpt_stores[0].uid
        total = 0
        replicated = 0
        nregions = 0
        for uid, coh in self._coherence.items():
            if coh.written.is_empty():
                continue
            name, itemsize = self._region_meta.get(uid, ("", 8))
            manifest.record(uid, name, RectSet(coh.written.rects()))
            copied = False
            for store in self._ckpt_stores:
                need = coh.written.subtract(coh.valid_set(store.uid))
                for rect in need.rects():
                    for src_uid, frag, t_src in coh.find_source(
                        rect, exclude=store.uid
                    ):
                        nbytes = frag.volume() * itemsize
                        finish = self._copy(
                            self._memory_by_uid(src_uid), store, nbytes,
                            max(self.issue_time, t_src),
                            label=f"ckpt:{name or uid}",
                            category="checkpoint",
                        )
                        if self.event_log is not None:
                            self.event_log.record_copy(
                                uid, name, frag, src_uid, store.uid,
                                nbytes, why="checkpoint",
                            )
                        coh.mark_valid(store.uid, frag, finish)
                        scaled = int(nbytes * self.config.effective_comm_scale)
                        total += scaled
                        if store.uid != primary_uid:
                            replicated += scaled
                        copied = True
            if copied:
                nregions += 1
        self._ckpt_manifest = manifest
        self.profiler.record_checkpoint(total)
        if replicated:
            self.profiler.record_replication(replicated)
        if self.event_log is not None:
            self.event_log.record_checkpoint(total, nregions)
        self._journal.clear()
        self._freed_uids.clear()
        return total

    def _recover(self, losses) -> None:
        """Recover from delivered GPU/node losses by journal replay.

        Resilience 2.0: each recovery round (1) wipes the lost
        memories' instances and coherence validity and charges the
        modeled detection stall (the heartbeat detector's suspected →
        confirmed transition) plus the recovery delay; (2) re-plans the
        replica set from surviving fault domains and restores every
        checkpoint-protected piece the replay will not re-write from
        the cheapest surviving copy (:mod:`repro.legion.resilience`) —
        raising :class:`FaultError` only when *all* replicas of a
        needed piece are gone (or, at ``ckpt_replicas=1``, whenever the
        single node-0 store is lost, the original contract); (3)
        replays every task journaled since the last checkpoint epoch in
        replay mode: re-mapping, re-staging and re-timing without
        re-running kernels, so the final answer is bitwise-identical to
        a fault-free run.  Recovery is *re-entrant*: a loss falling due
        mid-replay aborts the pass and restarts from step (1) — the
        journal's numerics are untouched, so replaying it again from
        the epoch is safe.
        """
        assert self._chaos is not None
        # Lost memories and re-executed launches: no captured body
        # describes the machine any more.
        self._invalidate_templates()
        journal, self._journal = self._journal, []
        # Pieces the replay itself re-writes need no restore from a
        # replica (the coverage never over-approximates; see
        # resilience.journal_write_coverage).
        rewritten = _resilience.journal_write_coverage(
            journal, self._freed_uids
        )
        dead_nodes: set = set()
        self._in_recovery = True
        try:
            pending: List[LossSchedule] = list(losses)
            while pending:
                self.profiler.record_recovery()
                self._apply_losses(pending, dead_nodes)
                self._restore_replicas(rewritten, dead_nodes)
                pending = self._replay_journal(journal)
        finally:
            self._in_recovery = False

    def _apply_losses(self, losses, dead_nodes: set) -> None:
        """Wipe lost memories; charge detection + recovery stall.

        The failure detector runs on the simulated clock: a loss at
        ``t`` is *suspected* at the next heartbeat tick and *confirmed*
        ``detection_timeout`` later (:meth:`ChaosConfig
        .detection_times`); the run cannot react before confirmation,
        so the issue clock stalls to the latest confirmation before
        paying the per-loss recovery delay.
        """
        chaos = self._chaos
        lost: List[int] = []
        confirmed_at = self.issue_time
        for loss in losses:
            if loss.kind == "gpu":
                procs = self.scope.processors
                proc = procs[loss.target % len(procs)]
                mems = [proc.memory]
            else:
                mems = [
                    m for m in self.machine.memories if m.node == loss.target
                ]
                dead_nodes.add(loss.target)
            kind = f"{loss.kind}-loss"
            self.profiler.record_fault(kind)
            uids = [m.uid for m in mems]
            lost.extend(uids)
            suspected, confirmed = chaos.config.detection_times(loss.at_time)
            confirmed_at = max(confirmed_at, confirmed)
            self.profiler.record_detection(max(0.0, confirmed - loss.at_time))
            if self.event_log is not None:
                self.event_log.record_fault(
                    kind, uids,
                    detail=f"target={loss.target} at t={loss.at_time:g}",
                )
                self.event_log.record_detection(
                    kind, loss.target, loss.at_time, suspected, confirmed
                )
            if self.timeline is not None:
                # Detector state transitions (non-busy category:
                # annotation only, like "allreduce"/"recovery").
                self.timeline.record(
                    "detection", "detector",
                    f"suspect:{kind}[{loss.target}]",
                    loss.at_time, suspected,
                )
                self.timeline.record(
                    "detection", "detector",
                    f"confirm:{kind}[{loss.target}]",
                    suspected, confirmed,
                )
        if (
            chaos.config.ckpt_replicas == 1
            and self._host_memory.uid in lost
        ):
            # The original single-store contract: at replicas=1 the
            # checkpoint IS node-0 sysmem, and losing it is
            # unconditionally fatal even if copies survive elsewhere.
            raise FaultError(
                "node-0 system memory (the checkpoint store) was lost; "
                "recovery is impossible (replicate the checkpoint with "
                "ckpt_replicas >= 2 to survive store loss)"
            )
        for uid in set(lost):
            self.instances.lose_memory(uid)
            for coh in self._coherence.values():
                coh.invalidate(uid)
        t_before = self.issue_time
        self.issue_time = max(self.issue_time, confirmed_at)
        t_confirmed = self.issue_time
        self.issue_time += chaos.config.recovery_delay * len(losses)
        if self.timeline is not None:
            if t_confirmed > t_before:
                self.timeline.record(
                    "detection", "issue",
                    f"detect-stall:{len(losses)}-loss",
                    t_before, t_confirmed,
                )
            self.timeline.record(
                "recovery", "issue",
                f"recover:{len(losses)}-loss",
                t_confirmed, self.issue_time,
            )
        for puid in self._proc_busy:
            self._proc_busy[puid] = max(self._proc_busy[puid], self.issue_time)

    def _restore_replicas(self, rewritten, dead_nodes: set) -> None:
        """Re-plan the replica set; restore missing protected pieces.

        Surviving fault domains host the stores for the rest of this
        recovery (a dead node rejoins at the next checkpoint epoch);
        every manifest piece the replay will not re-write is copied
        into each store missing it from the cheapest surviving source,
        charged over the modeled channels.
        """
        chaos = self._chaos
        stores = _resilience.place_stores(
            self.machine, chaos.config.ckpt_replicas, exclude_nodes=dead_nodes
        )
        if not stores:
            raise FaultError(
                "every checkpoint-store fault domain was lost; "
                "recovery is impossible"
            )
        self._ckpt_stores = stores
        for uid in self._freed_uids:
            self._ckpt_manifest.drop(uid)
        steps = _resilience.plan_recovery(
            self._ckpt_manifest, self._coherence, rewritten,
            stores, self.machine, self._memory_by_uid, self._region_meta,
        )
        restored = 0
        for step in steps:
            coh = self._coherence[step.region_uid]
            finish = self._copy(
                self._memory_by_uid(step.src_uid),
                self._memory_by_uid(step.dst_uid),
                step.nbytes,
                max(self.issue_time, step.ready),
                label=f"restore:{step.region_name or step.region_uid}",
                category="checkpoint",
            )
            if self.event_log is not None:
                self.event_log.record_copy(
                    step.region_uid, step.region_name, step.rect,
                    step.src_uid, step.dst_uid, step.nbytes, why="restore",
                )
            coh.mark_valid(step.dst_uid, step.rect, finish)
            restored += int(step.nbytes * self.config.effective_comm_scale)
        if steps:
            self.profiler.record_restore(restored, len(steps))

    def _replay_journal(self, journal) -> List[LossSchedule]:
        """Replay the epoch's journal; return losses falling due mid-pass.

        Journal order is *execution* order, not issue order: a launch
        that passed the deferred window (:meth:`pass_window`) was
        journaled when it ran, ahead of the members issued before it,
        and those follow once their flush has run them -- the order in
        which coherence saw the writes, which is what a replay restores.

        A non-empty return means the pass aborted: the caller re-wipes,
        re-plans from surviving replicas and replays again from the
        epoch (replay never touches numerics, so restarting is safe).
        The in-progress journal is cleared first — replayed tasks
        re-append themselves, and a restarted pass must not duplicate
        the aborted pass's entries.
        """
        chaos = self._chaos
        self._journal = []
        for task in journal:
            due = chaos.take_losses(self.issue_time)
            if due:
                return due
            self.profiler.record_reexecution()
            self._execute(task, replay=True)
        return []

    def _fold_reduction(
        self,
        task: TaskLaunch,
        req: Requirement,
        writes: List[Tuple[Rect, Memory, float]],
        colors: int,
        launch_id: int = 0,
    ) -> None:
        """Fold per-shard REDUCE contributions onto owner tiles."""
        owner = task.fold_partition or Tiling.create(req.region, colors)
        coh = self.coherence(req.region)
        procs = self.scope.processors
        # The fold loop reads no coherence, and a Tiling owner covers
        # the region with disjoint tiles, so the per-color mark_written
        # calls can be batched into one write_complete.
        batch: Optional[List[Tuple[int, Rect, float]]] = None
        if type(owner) is Tiling and owner.region.uid == req.region.uid:
            batch = []
        try:
            self._fold_loop(
                task, req, writes, owner, coh, procs, launch_id, batch
            )
        except BaseException:
            if batch:
                for mem_uid, tile, t in batch:
                    coh.mark_written(mem_uid, tile, t)
            raise
        if batch:
            coh.write_complete(batch)
            self.profiler.fastpath_counters["batched_writes"] += len(batch)

    def _fold_loop(
        self,
        task: TaskLaunch,
        req: Requirement,
        writes: List[Tuple[Rect, Memory, float]],
        owner: Partition,
        coh: RegionCoherence,
        procs,
        launch_id: int,
        batch: Optional[List[Tuple[int, Rect, float]]],
    ) -> None:
        for color in range(owner.color_count):
            proc = procs[color % len(procs)]
            memory = proc.memory
            tile = owner.rect(color)
            if tile.is_empty():
                continue
            t_done = self.issue_time
            for rect, src_mem, t_write in writes:
                overlap = tile.intersect(rect)
                if overlap.is_empty():
                    continue
                nbytes = overlap.volume() * req.region.itemsize
                if src_mem.uid != memory.uid:
                    t_arrive = self._copy(
                        src_mem, memory, nbytes, t_write,
                        label=f"fold:{req.region.name or req.name}",
                    )
                    if self.event_log is not None:
                        self.event_log.record_copy(
                            req.region.uid, req.region.name, overlap,
                            src_mem.uid, memory.uid, nbytes, why="fold",
                        )
                else:
                    t_arrive = t_write
                # Read-modify-write fold on the owner processor.
                fold_time = (
                    2.0 * nbytes * self.config.data_scale / proc.mem_bandwidth
                )
                t_start = max(t_arrive, self._proc_busy[proc.uid])
                t_done = max(t_done, t_start + fold_time)
                self._proc_busy[proc.uid] = t_start + fold_time
                if self.timeline is not None:
                    self.timeline.record(
                        "fold", self._proc_label[proc.uid],
                        f"fold:{req.region.name or req.name}",
                        t_start, t_start + fold_time,
                        nbytes=int(nbytes * self.config.data_scale),
                    )
            if batch is not None:
                batch.append((memory.uid, tile, t_done))
            else:
                coh.mark_written(memory.uid, tile, t_done)
            if self.event_log is not None:
                self.event_log.record_fold(
                    launch_id, task.name, req.region.uid, req.region.name,
                    tile, memory.uid,
                )

    def _mem_scale(self, region: Region):
        if region.mem_scale is not None:
            return region.mem_scale
        return self.mem_scale_by_extent.get(region.shape[0])

    def _memory_by_uid(self, uid: int) -> Memory:
        return self._memories[uid]

    # ------------------------------------------------------------------
    # Scalar allreduce
    # ------------------------------------------------------------------
    def allreduce(
        self,
        partials: List[Any],
        ready_times: List[float],
        op: str = "sum",
        nbytes: int = 8,
    ) -> Future:
        """Fold per-shard scalar partials with the tree + overhead model."""
        value = _fold(op, partials)
        return Future(
            value,
            self._allreduce_ready(len(partials), ready_times, op, nbytes),
        )

    def _allreduce_ready(
        self, p: int, ready_times: List[float], op: str, nbytes: int
    ) -> float:
        """Charge one allreduce tree over ``p`` shards; its finish time."""
        t0 = max(ready_times) if ready_times else self.issue_time
        self.profiler.record_allreduce()
        if self.event_log is not None:
            self.event_log.record_allreduce(op, p)
        if p <= 1:
            t = t0 + self.config.allreduce_base_overhead
        else:
            hops = math.ceil(math.log2(p))
            hop_latency = self.machine.interconnect_latency(self.scope.nodes)
            bandwidth = self.machine.config.nic_bandwidth
            per_hop = (
                hop_latency + nbytes / bandwidth + self.config.allreduce_hop_overhead
            )
            t = (
                t0
                + self.config.allreduce_base_overhead
                + hops * per_hop
                + p * self.config.allreduce_linear_overhead
            )
        if self.timeline is not None:
            # Abstract "network" resource: allreduces carry no channel
            # occupancy in the model and may overlap, so the category is
            # deliberately non-busy (excluded from span conservation).
            self.timeline.record(
                "allreduce", "network", f"allreduce:{op}", t0, t, nbytes=nbytes
            )
        return t

    # ------------------------------------------------------------------
    # Fill
    # ------------------------------------------------------------------
    def fill(self, region: Region, value: Any, partition: Optional[Partition] = None) -> None:
        """Distributed fill of a region with a constant."""
        part = partition or Tiling.create(region, self.num_procs)
        pointwise = Pointwise(("fill",), expr=(("scalar", "value"),), out="out")
        self.profiler.record_fill()

        def kernel(ctx: ShardContext) -> None:
            ctx.view("out")[...] = value

        def cost(ctx: ShardContext) -> tuple:
            vol = ctx.rect("out").volume()
            return (0.0, vol * region.itemsize)

        self.launch(
            TaskLaunch(
                name="fill",
                requirements=[
                    Requirement("out", region, part, Privilege.WRITE_DISCARD)
                ],
                kernel=kernel,
                cost_fn=cost,
                scalars={"value": value},
                pointwise=pointwise,
            )
        )


def _window_key(window: List[TaskLaunch]) -> Optional[tuple]:
    """Slot uids of a window one trace body issued, else None."""
    first = window[0]
    if first.slot is None:
        return None
    body = first.body
    key = []
    for task in window:
        slot = task.slot
        if slot is None or task.body != body:
            return None
        # The future-dependence edges are no part of a position's
        # fingerprint, and the plan depends on them.
        key.append((slot.uid, task.after) if task.after else slot.uid)
    return tuple(key)


def _fold(op: str, partials: List[Any]):
    """One reduction's value from its per-shard partials, in color order."""
    if op == "sum":
        return _tree_sum(partials)
    if op == "max":
        return max(partials)
    if op == "min":
        return min(partials)
    if op == "prod":
        value = partials[0]
        for part in partials[1:]:
            value = value * part
        return value
    raise ValueError(f"unknown reduction op {op!r}")


def _tree_sum(values: List[Any]):
    """Pairwise (tree) summation: deterministic and better-conditioned."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


# ----------------------------------------------------------------------
# Current-runtime plumbing
# ----------------------------------------------------------------------
_current_runtime: Optional[Runtime] = None


def get_runtime() -> Runtime:
    """The runtime frontends (numeric/sparse) issue their tasks to."""
    global _current_runtime
    if _current_runtime is None:
        from repro.machine import ProcessorKind, laptop

        machine = laptop()
        _current_runtime = Runtime(
            machine.scope(ProcessorKind.CPU_SOCKET, 1), RuntimeConfig.legate()
        )
    return _current_runtime


def set_runtime(runtime: Optional[Runtime]) -> Optional[Runtime]:
    """Install the runtime frontends issue to; returns the previous one."""
    global _current_runtime
    previous = _current_runtime
    _current_runtime = runtime
    return previous


@contextlib.contextmanager
def runtime_scope(runtime: Runtime):
    """Temporarily install a runtime (restores the previous on exit)."""
    previous = set_runtime(runtime)
    try:
        yield runtime
    finally:
        # Scope exit is a synchronization point: pending deferred
        # launches execute before the runtime is uninstalled.
        try:
            runtime.flush_window()
        finally:
            set_runtime(previous)
