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

Fault recovery -- checkpoint epochs, the launch journal, loss handling
and journal replay -- is a component of its own
(:mod:`repro.legion.recovery`), held in one field, ``Runtime.recovery``;
a replayed launch runs through the same :meth:`Runtime._execute` with
``replay=True``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import ValidationError
from repro.analysis.events import EventLog, ReqAccess
from repro.analysis.recorder import register as _register_log
from repro.analysis.recorder import validation_default as _validation_default
from repro.analysis.sanitizer import poison as _poison
from repro.analysis.sanitizer import readonly_view as _readonly_view
from repro.geometry import Rect
from repro.legion import fusion
from repro.legion.chaos import ChaosConfig, chaos_default
from repro.legion.coherence import RegionCoherence, eligible_write_reqs
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.future import Future, pending_roots
from repro.legion.instance import InstanceManager
from repro.legion.partition import (
    ImageByCoordinate, ImageByRange, ImagePartitionCache, Partition, Tiling,
)
from repro.legion.privilege import Privilege
from repro.legion.profiler import Profiler
from repro.legion.recovery import Recovery
from repro.legion.region import Region
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch
from repro.legion.timeline import Timeline
from repro.legion.timeline import profile_default as _profile_default
from repro.legion.timeline import register as _register_timeline
from repro.legion.tracing import (
    BoundedMemo, History, Template, launch_fingerprint, window_fingerprint,
)
from repro.machine import MIN_CHUNK, MachineScope, Memory, MemoryKind, reserve


@dataclass
class RuntimeConfig:
    """Per-system tunables; presets model the paper's compared systems."""

    name: str = "legate"
    # Python-side cost of launching one task (constraint solving, metadata
    # management, Legion dispatch).
    launch_overhead: float = 1.3e-4
    # Share of launch_overhead a replayed launch pays -- one whose
    # template and dependence edges were issued before in this
    # template epoch (repro.legion.tracing): Legion replays the
    # memoized dependence analysis instead of redoing it.  A model
    # parameter, not a switch: the host path is the same at any value,
    # and at 1.0 a run is bit-for-bit one without replays.  The
    # published system has no tracing (its cited future work), so
    # harness.config.paper_legate and the comparison systems pin 1.0.
    trace_replay_fraction: float = 0.15
    # Extra per-shard mapping cost charged on each shard's start.
    shard_overhead: float = 2.0e-6
    # Scalar allreduce: fixed overhead plus per-tree-hop overhead on top
    # of the network latency model, plus a per-participant term modelling
    # the O(P) bookkeeping in Legion's allreduce implementation that the
    # paper reports being exposed at 32+ nodes (Fig. 9, footnote 1).
    # They charge collectives of p >= 2 shards: a one-shard launch is a
    # single task whose return value is the future, with no collective.
    allreduce_base_overhead: float = 2.0e-5
    allreduce_hop_overhead: float = 3.0e-5
    allreduce_linear_overhead: float = 1.5e-5
    # Framebuffer bytes reserved by the runtime and external CUDA
    # libraries (why Legate cannot run ML-25M on one GPU in Fig. 12).
    reserved_fb_bytes: int = int(2.5 * 2**30)
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
    # Kernel slowdown once a memory fills past 85 % — the "CuPy runs
    # close to the GPU memory limit" effect on ML-25M (Fig. 12):
    # allocator churn and fragmented, uncoalesced buffers.
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


# Deferred window capacity: the window flushes when full (and on future
# waits, non-fusible launches that depend on a member, barriers and scope
# exits).
WINDOW_CAPACITY = 16

# The partition kinds whose rects a source region's data decides.
_IMAGES = (ImageByRange, ImageByCoordinate)

# The timeline category of each kind of copy (Runtime._copy's ``why``).
_COPY_CATEGORY = {
    "stage": "copy", "fold": "copy", "spill": "spill",
    "checkpoint": "checkpoint", "restore": "checkpoint",
}


class _RowShape:
    """What of a requirement is the same for every launch with its
    structural key: names, privilege flags and the geometry of every
    color.  Holds no region, so a template may keep it.
    """

    __slots__ = (
        "name", "privilege", "reads", "writes", "stage", "elide",
        "readonly", "poison", "rects", "pieces",
    )

    def __init__(
        self, req: Requirement, sanitize: bool, poison_discards: bool
    ) -> None:
        privilege = req.privilege
        self.name = req.name
        self.privilege = privilege
        self.reads = privilege.reads
        self.writes = privilege.writes
        # Whether the read is staged: not when an earlier member of a
        # fused launch produces these rects in the same shard.
        self.stage = privilege.reads and not req.produced
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
    (:func:`repro.legion.coherence.eligible_write_reqs`).  Derived once
    per template: per structural key, or per planned group.

    ``images`` keeps the rect tables of the image requirements it was
    derived from: a planned group's key names images by derivation, so
    its shape :meth:`fits` a later launch only over the very tables the
    image cache handed out then -- the same matrix, not merely one of
    the same shape."""

    __slots__ = (
        "shapes", "privileges", "writers", "eligible", "validate", "images",
        "trailing",
    )

    def __init__(
        self, task: TaskLaunch, validate: bool, replay: bool, freed_uids
    ) -> None:
        reqs = task.requirements
        self.validate = validate
        # Replay keeps the real results intact: nothing is poisoned.
        # Nor is a region an earlier requirement reads: rows are
        # poisoned as they map, before a fused task's first member
        # runs, so that member would read the poison.
        poison = validate and not replay
        read: set = set()
        shapes = []
        for req in reqs:
            uid = req.region.uid
            shapes.append(_RowShape(req, validate, poison and uid not in read))
            if req.privilege.reads:
                read.add(uid)
        self.shapes = tuple(shapes)
        self.privileges = {req.name: req.privilege for req in reqs}
        self.writers = tuple(
            i for i, shape in enumerate(self.shapes) if shape.writes
        )
        # Requirements whose final coherence state is independent of
        # per-color write order (sole writer of its region, disjoint
        # Tiling over that region) defer their writes and apply them in
        # one batch after the color loop -- turning the O(colors^2)
        # incremental invalidation into one linear pass.
        eligible = eligible_write_reqs(task, replay, freed_uids)
        self.eligible = tuple(
            i for req in eligible.values()
            for i in self.writers if reqs[i] is req
        )
        self.images = tuple(
            (i, req.partition.tables()) for i, req in enumerate(reqs)
            if type(req.partition) in _IMAGES
        )
        # The requirements of a fused task's trailing phase.
        self.trailing = tuple(i for i, req in enumerate(reqs) if req.trailing)

    def fits(self, task: TaskLaunch) -> bool:
        """Whether the launch's images are the ones this shape holds."""
        reqs = task.requirements
        for i, tables in self.images:
            if reqs[i].partition.tables() is not tables:
                return False
        return True


class _PlanRow:
    """One requirement of a launch, resolved once for all its colors.

    The color loop of :meth:`Runtime._execute_task` visits every
    (color, requirement) pair; whatever of a pair does not depend on
    the color is worked out here, per launch: the structural part comes
    from the :class:`_RowShape`, the rest binds this launch's region.
    """

    __slots__ = (
        "name", "region", "uid", "data", "rects", "pieces",
        "privilege", "reads", "writes", "stage", "elide", "skipped", "poison",
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
        self.stage = shape.stage
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
    requirement index), so the window-plan cache holds the groups of
    each window structure and the analysis is not redone.  A group is
    also the template of the launch it fuses (its ``shape``, rebuilt
    when the window's images are not the ones it was built over).
    """

    __slots__ = (
        "indices", "names", "verdict", "label", "elide", "produced",
        "parts", "shape",
    )

    def __init__(
        self, indices, names, verdict, label, elide, produced, parts
    ) -> None:
        self.indices = indices
        self.names = names
        # The dependence pass's classification (depend.Verdict) and its
        # depend.verdict_label: "single", "merged" or "replay:<reason>".
        self.verdict = verdict
        self.label = label
        self.elide = elide
        # Reads the fused shard produces itself (fusion.produced_reads).
        self.produced = produced
        # The ``parts`` of fusion.fuse: each segment (fusion.segments)
        # in run order, its positions in the group with its generated
        # loop nest, or None where it replays.  Empty when none nests.
        self.parts = parts
        # The fused launch's _LaunchShape.
        self.shape: Optional[_LaunchShape] = None


class Runtime:
    """One simulated execution: a machine scope plus clocks and state."""

    def __init__(
        self,
        scope: MachineScope,
        config: Optional[RuntimeConfig] = None,
    ):
        self.scope = scope
        self.machine = scope.machine
        self.config = config or RuntimeConfig()
        # The colors a launch or tiling gets when its caller names none:
        # every processor of the scope, except inside a narrow() scope.
        self.launch_colors: int = len(scope.processors)
        # The simulated clocks: the issue clock and, per processor uid,
        # busy-until time.
        self.issue_time: float = 0.0
        self._proc_busy: Dict[int, float] = {
            p.uid: 0.0 for p in scope.processors
        }
        self.profiler = Profiler()
        self.instances = InstanceManager(
            reserved_fb_bytes=self.config.reserved_fb_bytes,
            data_scale=self.config.data_scale,
            # Deferred instance collection: recycled allocations for
            # this many in-flight tasks stay charged (see instance.py).
            inflight_window=24,
        )
        self._coherence: Dict[int, RegionCoherence] = {}
        self._memories = {mem.uid: mem for mem in self.machine.memories}
        # Advisor capture (repro.analysis.plan.PlanTrace): when set this
        # runtime is a *dry run* -- launches and fused groups are
        # recorded and everything runs as always, except that no kernel
        # but a structure kernel (TaskLaunch.structure) is called and
        # scalar reductions fold the plan's placeholders.
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
        # Memory-magnification overrides keyed by region dim-0 extent,
        # in place of config.data_scale: benchmarks whose problem axes
        # (ratings vs. users vs. items) shrink by different factors in
        # the reduced build set them.
        self.mem_scale_by_extent: Dict[int, float] = {}
        # Automatic tracing (repro.legion.tracing): the replay history
        # of the current template epoch.
        self._history = History()
        # Deferred launch window (automatic task fusion, see
        # repro.legion.fusion): fusible launches buffer here; flush
        # plans groups and executes.
        self._window: List[TaskLaunch] = []
        # Pending future of each reduction in the window -> its window
        # position (what a later launch's ``after`` edges name).
        self._window_roots: Dict[Future, int] = {}
        # The window-plan cache: planned groups -- verdicts and the
        # nests generated for them -- by tracing.window_fingerprint.
        # The key carries body IR and dtypes, so windows computing
        # other expressions or casting to other types never share a
        # verdict or a nest; a distinct window pays the planning once.
        self._fusion_cache = BoundedMemo()
        # Every executed window group, in order: (sub-launch names,
        # number of elided temporaries, verdict label) where the label
        # is depend.verdict_label — "single", "merged" or
        # "replay:<reason>".  The advisor reports a dry run's log as is.
        self.fusion_log: List[Tuple[Tuple[str, ...], int, str]] = []
        self.machine.reset_channels()
        # Host staging memory: node-0 system memory.
        self._host_memory = next(
            m for m in self.machine.memories if m.kind == MemoryKind.SYSMEM
        )
        # Fault recovery (repro.legion.recovery): checkpoint epochs,
        # the launch journal and loss handling, and the chaos injector
        # the copy and mapping paths draw transient faults from.
        self.recovery = Recovery(self)
        # Region metadata the spill/checkpoint paths need after mapping
        # (uid -> (name, itemsize)); dropped on free.
        self._region_meta: Dict[int, Tuple[str, int]] = {}
        # Host-side analysis state: the image-geometry cache
        # (partition.ImagePartitionCache), the launch templates by
        # structural key (tracing.Template, see _template), and the
        # in-flight batched-write map (requirement name -> (coherence,
        # [(mem_uid, rect, t)])) that _execute_task and _fold_reduction
        # defer per-color mark_written calls into.
        self._image_cache = ImagePartitionCache()
        self._templates = BoundedMemo()
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
    # Program boundaries (long-lived / multi-tenant use)
    # ------------------------------------------------------------------
    def reset_for_program(self) -> None:
        """Reset per-program state between back-to-back programs.

        A runtime historically lived exactly as long as one program, so
        several pieces of state are implicitly program-scoped and *leak*
        when a long-lived server reuses one runtime instance across
        client programs.  The audited leaks, each closed here:

        * **the deferred fusion window** — launches a program buffered
          but never synced would flush into the *next* program's
          timeline (and could fuse with its launches);
        * **the checkpoint cadence counter** — carried over, so the
          next program's first auto-checkpoint fired early (after
          ``N - k`` launches instead of ``N``);
        * **the recovery journal** — journaled tasks referencing the
          previous program's (possibly freed) regions would be replayed
          into the next program's state after a loss, so a program
          boundary is a checkpoint epoch boundary
          (:meth:`Recovery.reset`);
        * **``fusion_log``** — unbounded growth,
          and one tenant's op-stream shape visible to the next
          (a cross-tenant information leak in a serving context);
        * **the replay history** — one program's launches must not
          discount the next program's — **and any in-flight batched
          writes**.

        The structural caches (templates, window plans and their
        nests, image geometry) stay warm: they are keyed structurally,
        bounded, and never leak numerics.

        Profiler counters are deliberately *not* reset — they are
        cumulative observability state; callers wanting per-program
        deltas use :meth:`Profiler.snapshot` / :meth:`Profiler.since`.
        """
        self.flush_window()
        self._pending_writes = None
        self._history.clear()
        self.recovery.reset()
        self.fusion_log.clear()

    def _invalidate_templates(self) -> None:
        """Recovery, memory loss or pressure relief: a new template
        epoch, in which nothing issued so far replays."""
        self._history.clear()

    def _template(self, key: Optional[tuple]) -> Optional[Template]:
        """The template of a structural key, made on first use; None
        for a launch without a key."""
        if key is None:
            return None
        template = self._templates.get(key)
        if template is None:
            template = Template(key)
            self._templates.put(key, template)
        return template

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
        """Drop a freed region's state at once: coherence, metadata,
        image epoch, and its instances (recycled into the pool).

        A pending window launch holds its regions, so only an explicit
        ``destroy()`` can free one the window still names: that free
        flushes the window first, like a host read."""
        uid = region.uid
        if self._window_names((uid,)):
            self.flush_window()
        recovery = self.recovery
        if recovery.journal is not None:
            recovery.freed.add(uid)
        self._coherence.pop(uid, None)
        self._region_meta.pop(uid, None)
        self._image_cache.epochs.pop(uid, None)
        self.instances.free_region(uid)

    @property
    def num_procs(self) -> int:
        """Processors in this runtime's scope."""
        return len(self.scope.processors)

    @contextlib.contextmanager
    def narrow(self, colors: int):
        """Launch on ``colors`` colors inside the scope.

        Launches and tilings that name no width take ``launch_colors``;
        data written outside the scope reaches a narrowed launch (and
        its results the launches after it) through the copies coherence
        already charges.  Scopes nest; the previous width is restored on
        exit, an exception included.
        """
        if colors < 1:
            raise ValueError(f"narrow() needs at least one color, got {colors}")
        previous = self.launch_colors
        self.launch_colors = colors
        try:
            yield
        finally:
            self.launch_colors = previous

    def colors_for(self, volume: int) -> int:
        """Legate's minimum-chunk rule: the colors a region of ``volume``
        elements earns, from its *modeled* volume (``data_scale``)."""
        chunk = MIN_CHUNK[self.scope.kind]
        earned = math.ceil(volume * self.config.data_scale / chunk)
        return max(1, min(self.num_procs, earned))

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def wait(self, future: Future) -> Any:
        """Block the issuing program on a future (control-flow sync).

        A wait that would stall (:meth:`_stalls`) flushes the window
        first, so its launches issue before the host idles; the flush
        resolves every reduction pending in it -- and, through them,
        every lazy scalar expression built on top.  In a one-color scope
        a wait on a future resolved and ready by the issue clock returns
        its value and leaves the window deferred: nothing the window
        holds can change a resolved value, and the launches issued next
        plan with it as one group.  At more colors every wait flushes: a
        window left open there grows across the next CG body until its
        capacity cuts one mid-body, which splits it into more launches
        (four iterations of a 2-GPU CG on a 16 x 16 grid: 17 -> 18
        launches, +7.7 % modeled seconds)."""
        if self.launch_colors != 1 or self._stalls(future):
            self.flush_window()
        if future.roots is not None:
            self._force(future)
        self.recovery.recover_until(future.ready_time)
        self.issue_time = max(self.issue_time, future.ready_time)
        return future.value

    def _stalls(self, future: Future) -> bool:
        """Whether a wait on ``future`` would idle the host: it is still
        pending in a window, or ready after the issue clock."""
        return future.roots is not None or future.ready_time > self.issue_time

    def issues_ahead_of(self, *futures: Future) -> bool:
        """Whether the program should issue more work before it waits on
        ``futures``: in a one-color fusing scope (``fusion`` on and
        ``launch_colors == 1``), when a wait on one of them would stall.
        There consecutive launches plan as one group whose reductions
        resolve in the shard, so issuing ahead widens the group at no
        allreduce.  Elsewhere, False: a wider group pays an allreduce per
        reduction whatever the window holds, and without fusion nothing
        waits for a later launch."""
        return (
            self.config.fusion
            and self.launch_colors == 1
            and any(self._stalls(f) for f in futures)
        )

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
        self.issue_time = self.horizon()
        if self.timeline is not None:
            self.timeline.note_horizon(self.issue_time)
        return self.issue_time

    def elapsed(self) -> float:
        """Latest simulated time across issue, processors and channels."""
        self.flush_window()
        horizon = self.horizon()
        if self.timeline is not None:
            self.timeline.note_horizon(horizon)
        return horizon

    def horizon(self) -> float:
        """Latest simulated time across issue, processors and channels.

        Unlike :meth:`elapsed` it does not flush the window, so a caller
        handling a launch that raised reads the clocks as they stand.
        """
        return max(
            self.issue_time,
            max(self._proc_busy.values(), default=0.0),
            self.machine.channel_horizon(),
        )

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def _copy(
        self,
        src: Memory,
        dst: Memory,
        nbytes: int,
        ready: float,
        region_uid: int,
        name: str,
        rect: Rect,
        why: str,
        coh: Optional[RegionCoherence],
    ) -> float:
        """Copy ``rect`` of a region between memories; returns its finish.

        The copy engine's one entry: it books the route, retries
        transient faults, records the copy to the profiler, the timeline
        and the event log, and marks ``rect`` valid in ``dst`` in
        ``coh`` (None for a fold, whose owner tile is written once every
        contribution has landed).  ``why`` is stage, fold, spill,
        checkpoint or restore: the event log's reason, the span label
        ``f"{why}:{name or region_uid}"`` and, through
        ``_COPY_CATEGORY``, the span category.  ``nbytes`` is unscaled.

        The copy takes the earliest window, from ``max(ready,
        issue_time)`` on, in which every channel of its route is idle
        (:func:`repro.machine.model.reserve`): it may fill a gap that
        earlier copies left open, but never one that closed before its
        launch was issued.  A copy that fits no gap goes past every
        channel's tail and starts at ``max(ready, busy_until)``, which
        may precede the issue clock (ROADMAP item 17).

        Under chaos injection a copy attempt may hit a transient link
        error: the doomed attempt still occupies its window, then the
        runtime backs off exponentially (on the simulated clock) and
        retries (:meth:`Recovery.retry`), up to
        ``ChaosConfig.max_retries`` — after which the fault is deemed
        permanent and raises :class:`FaultError`.  Numerics are
        untouched: only modeled time is lost.
        """
        scaled = int(nbytes * self.config.effective_comm_scale)
        channels, latency, bandwidth = self._route(src, dst)
        cost = scaled / bandwidth
        clock = self.issue_time
        start, finish = reserve(channels, ready, clock, latency, cost)
        tl = self.timeline
        label = "" if tl is None else f"{why}:{name or region_uid}"
        chaos = self.recovery.chaos
        if chaos is not None:
            attempt = 0
            while chaos.copy_fault():
                attempt += 1
                if tl is not None:
                    for chan in channels:
                        tl.record(
                            "retry", chan.name, f"{label}!attempt{attempt}",
                            start, finish, nbytes=scaled,
                        )
                # The failed attempt held its window; back off, retry.
                pause = self.recovery.retry(
                    "copy", attempt, f"attempt {attempt}",
                    f"copy of {scaled} bytes ({src.kind.value}[{src.uid}]"
                    f" -> {dst.kind.value}[{dst.uid}])",
                    [chan.name for chan in channels], label, finish,
                )
                start, finish = reserve(
                    channels, finish + pause, clock, latency, cost
                )
        for chan in channels:
            self.profiler.record_copy(chan.name, scaled)
            if tl is not None:
                tl.record(
                    _COPY_CATEGORY[why], chan.name, label,
                    start, finish, nbytes=scaled,
                )
        if self.event_log is not None:
            self.event_log.record_copy(
                region_uid, name, rect, src.uid, dst.uid, nbytes, why
            )
        if coh is not None:
            coh.mark_valid(dst.uid, rect, finish)
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
        self.profiler.record_resize(nbytes)
        nbytes = int(nbytes * self.config.data_scale)
        route, latency, bandwidth = self._route(memory, memory)
        chan = route[0]
        start, finish = reserve(
            route, ready, self.issue_time, latency, nbytes / bandwidth
        )
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

        Fusible launches -- those whose ``Pointwise`` marker says the
        kernel touches only its requirements' rects, see
        :func:`repro.legion.fusion.fusible`, REDUCE included -- enter
        the deferred window, where the planner orders them against the
        members by its per-region rule (a fused group runs a member
        that reduces into a region after its last shard).  Any other
        launch flushes a non-empty window, then executes: non-fusible
        launches run in program order, after every launch issued before
        them, which also keeps the runtime generator's draws in order.
        A reduction issued into the window returns a *pending* future,
        which the flush resolves.  Numerics are unaffected by the
        deferral: anything that could observe a pending result — future
        waits, barriers, host reads of store data, a non-fusible launch,
        a solve that reads a pending write for an image partition
        (:meth:`order_solve`) — flushes first.  With ``fusion`` off
        nothing is deferred and every returned future is resolved.
        """
        plan = self.plan_trace
        if plan is not None:
            plan.record_launch(task)
        recovery = self.recovery
        if recovery.checkpoint_every and not recovery.active:
            recovery.count_launch()
        template = task.template
        if template is None:
            template = task.template = self._template(
                launch_fingerprint(task, {})
            )
        task.replayed = self._history.issue(task, template, WINDOW_CAPACITY)
        if not self.config.fusion:
            fusible = False
        elif template is None:
            fusible = fusion.fusible(task)
        else:
            fusible = template.fusible
            if fusible is None:
                fusible = template.fusible = fusion.fusible(task)
        if not fusible:
            if self._window:
                self.profiler.hazard_flushes += 1
                self.flush_window()
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
        if len(window) >= WINDOW_CAPACITY:
            self.flush_window()
        return future

    def order_solve(self, sources) -> None:
        """Flush the window before a solve that reads the data of the
        ``sources`` (region uids: image sources, ``pos``/``crd``) if a
        member still owes a write to one.  Whatever else the launch
        touches, :meth:`launch` orders afterwards."""
        if self._window_names(sources, writers=True):
            self.profiler.hazard_flushes += 1
            self.flush_window()

    def _window_names(self, uids, writers: bool = False) -> bool:
        """Whether a pending window member touches -- or, with
        ``writers``, writes or reduces into -- a region of ``uids``."""
        for task in self._window:
            for req in task.requirements:
                if req.region.uid in uids and (
                    not writers or req.privilege.writes
                ):
                    return True
        return False

    def flush_window(self) -> None:
        """Plan and execute every launch buffered in the window."""
        if not self._window:
            return
        window, self._window = self._window, []
        if self._window_roots:
            self._window_roots.clear()
        t0 = _perf()
        try:
            self._flush(window)
        finally:
            self.profiler.record_host_phase("window-flush", _perf() - t0)

    def _flush(self, window: List[TaskLaunch]) -> None:
        if len(window) == 1:
            # A window of one launch plans as that launch alone.
            task = window[0]
            self.fusion_log.append(((task.name,), 0, "single"))
            self._execute(task)
            return
        t0 = _perf()
        groups = self._plan_window(window)
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
            elide_uids = frozenset(
                window[i].requirements[j].region.uid for i, j in group.elide
            )
            for _positions, nest in group.parts:
                if nest is not None:
                    self.profiler.record_kernel_merge()
            merged = fusion.fuse(tasks, elide_uids, group.parts, group.produced)
            merged.template = group
            if group.shape is not None and not group.shape.fits(merged):
                # Another matrix under the same derivations: the plan
                # holds, its rects do not.
                group.shape = None
            merged.replayed = all(task.replayed for task in tasks)
            self.profiler.record_fusion(len(indices), len(group.elide))
            self._execute(merged)

    def _plan_window(self, window: List[TaskLaunch]) -> List[_Group]:
        """Group a window's launches: the structural analysis of a
        flush, once per window fingerprint (the window-plan cache)."""
        key = window_fingerprint(window)
        groups = self._fusion_cache.get(key)
        if groups is not None:
            return groups
        # Lazy imports: the analyzer reaches repro.numeric, whose
        # package import comes back through this module.
        from repro.analysis import depend
        from repro.distal import codegen

        summaries = [fusion.summarize_launch(task) for task in window]
        local = fusion.local_ids(summaries)
        ref_of: Optional[Dict[int, Tuple[int, int]]] = None
        groups = []
        for plan in fusion.plan_window(summaries):
            verdict = depend.classify(summaries, local, plan)
            indices = plan.indices
            label = depend.verdict_label(plan, verdict)
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
                    (tuple(where[i] for i in part), part_verdict.merge_safe)
                    for part, part_verdict in verdict.segments
                )
            else:
                segments = ((tuple(range(len(indices))), label == "merged"),)
            # Each merge-safe segment's loop nest, generated once per
            # window structure.
            parts: tuple = ()
            if any(merged for _positions, merged in segments):
                parts = tuple(
                    (
                        positions,
                        codegen.generate_nest(
                            depend.build_nest_plan(
                                [window[indices[k]] for k in positions],
                                positions,
                            )
                        ) if merged else None,
                    )
                    for positions, merged in segments
                )
            groups.append(
                _Group(
                    indices, tuple(window[i].name for i in indices),
                    verdict, label, elide,
                    fusion.produced_reads(summaries, indices, local),
                    parts,
                )
            )
        if key is not None:
            self._fusion_cache.put(key, groups)
        return groups

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
            # A failure mid-launch (a shard's, or a fold copy's) must
            # not leave batched coherence writes dangling: replay them
            # sequentially so the region tree holds the partial state
            # per-color mark_written calls would have left.
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
        recovery = self.recovery
        chaos = recovery.chaos
        journaled = recovery.journal is not None
        config = self.config
        overhead = config.launch_overhead
        # Journal replay after a loss is no trace replay: it pays the
        # full overhead and re-derives everything below.
        recovering = replay or recovery.active
        if task.replayed and not recovering:
            overhead *= config.trace_replay_fraction
        if journaled and not recovering:
            # A loss due before this launch would finish issuing is
            # acted on at its time; the launch issues after recovery.
            recovery.recover_until(self.issue_time + overhead)
        colors = task.color_count
        procs = self.scope.processors
        self.profiler.record_task(task.name, colors)
        log = self.event_log
        validate = config.validate
        launch_id = log.record_task(task.name, colors) if log is not None else 0
        if task.replayed and not recovering:
            self.profiler.launches_replayed += 1
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
        settles = task.settles
        for key, val in task.scalars.items():
            if isinstance(val, Future):
                # Plain attributes: a consumer's group runs after its
                # producer's, so only a future owed from outside this
                # window can still be pending here -- or one the fused
                # shard resolves itself (fusion rule 5): passed on
                # unforced, and waited for only in what else it derives
                # from.
                if val.roots is not None:
                    if key in settles:
                        scalar_ready = max(scalar_ready, val.settled_ready())
                        scalar_values[key] = val
                        continue
                    self._force(val)
                scalar_ready = max(scalar_ready, val.ready_time)
                scalar_values[key] = val.value
            else:
                scalar_values[key] = val

        # Journal replay skips the kernel because the arrays already
        # hold its results, a dry run (an attached PlanTrace) because
        # nothing is to be computed: there a scalar reduction folds the
        # plan's placeholder partials, at the modeled times.  A dry run
        # still calls the launch's structure kernel (row expansion),
        # since later launches take images of what it writes.
        plan = self.plan_trace
        run_kernel = not replay and plan is None
        structure = None if replay or plan is None else task.structure
        reducing = not replay and task.reduction is not None
        partial = (
            plan.placeholder(task) if reducing and plan is not None else None
        )
        partials: List[Any] = []
        partial_times: List[float] = []
        reduce_writes: Dict[str, List[Tuple[Rect, Memory, float]]] = {}

        # The launch's shape: derived by the first launch with its
        # template, taken from the template by the rest.
        reqs = task.requirements
        freed = recovery.freed
        template = None if recovering else task.template
        shape = None if template is None else template.shape
        if shape is None or shape.validate is not validate:
            shape = _LaunchShape(task, validate, replay, freed)
            if template is not None:
                template.shape = shape
        privileges = shape.privileges
        if shape.eligible:
            self._pending_writes = {
                reqs[i].name: (self.coherence(reqs[i].region), [])
                for i in shape.eligible
            }
        map_s = 0.0
        event_s = 0.0
        # A fused task's trailing phase: the kernels its shards queue
        # (only when kernels run) and, for the event log, where each
        # shard ran.
        trailing = [] if run_kernel and shape.trailing else None
        trailing_shards: List[Tuple[int, int, int, float, float]] = []

        # Requirement-major mapping: everything a requirement needs that
        # does not depend on the color is resolved once, here; the color
        # loop below then pays per shard only for what differs per shard.
        rows = [
            _PlanRow(
                row_shape,
                req.region,
                replay and req.region.uid in freed,
                self.mem_scale_by_extent.get(req.region.shape[0]),
            )
            for row_shape, req in zip(shape.shapes, reqs)
        ]
        write_rows = [
            rows[i] for i in shape.writers if not rows[i].skipped
        ]
        if log is not None:
            late = shape.trailing
            logged = [
                row for i, row in enumerate(rows)
                if not row.skipped and i not in late
            ]
            late_rows = [rows[i] for i in late if not rows[i].skipped]
        # Any task write to a region invalidates cached images of it
        # (images read region data at solve time).  A journal replay
        # skips freed regions, whose epochs went with them.
        bump = self._image_cache.bump
        for row in write_rows:
            bump(row.uid)
        shard_overhead = config.shard_overhead
        scale = config.data_scale
        pressure_slowdown = config.memory_pressure_slowdown
        issue_time = self.issue_time
        proc_busy = self._proc_busy
        state_of = self.instances.state

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
                        t_input = self._intra_copy(
                            memory, resize_bytes, t_input, "resize", row
                        )
                if not row.stage:
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
            ctx.trailing = trailing
            flops, nbytes = task.cost_fn(ctx)
            exec_time = proc.kernel_time(float(flops) * scale, float(nbytes) * scale)
            if pressure_slowdown != 1.0:
                store = state_of(memory)
                budget = memory.capacity - store.reserved_bytes
                if budget > 0 and store.used_bytes / budget > 0.85:
                    exec_time *= pressure_slowdown
            self.profiler.kernel_seconds += exec_time
            start = t_input
            finish = start + exec_time
            proc_busy[proc.uid] = finish
            if tl is not None:
                tl.record(
                    "task", self._proc_label[proc.uid],
                    f"replay:{task.name}" if replay else task.name,
                    start, finish,
                    nbytes=int(float(nbytes) * scale),
                    flops=float(flops) * scale,
                )

            if run_kernel:
                ctx.finish = finish
                partial = task.kernel(ctx)
            elif structure is not None:
                structure(ctx)
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
                    [_access(row, color) for row in logged],
                    start, finish, replay=replay,
                )
                if late_rows:
                    trailing_shards.append(
                        (color, proc.uid, mem_uid, start, finish)
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

        # The trailing phase: after every shard wrote, so each queued
        # REDUCE adds into final contents, in color order.
        if trailing:
            for kernel, sub in trailing:
                kernel(sub)
        for color, proc_uid, mem_uid, start, finish in trailing_shards:
            log.record_shard(
                launch_id, task.name, color, proc_uid, mem_uid,
                [_access(row, color) for row in late_rows],
                start, finish, replay=replay, phase=1,
            )

        for req in task.requirements:
            if req.name in reduce_writes:
                self._fold_reduction(
                    task, req, reduce_writes[req.name], colors, launch_id
                )

        if journaled:
            recovery.journal.append(task)
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
            if future.roots is not None:  # else its shard resolved it
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
                finish = self._copy(
                    self._memory_by_uid(src_uid), memory,
                    frag.volume() * region.itemsize, t_src,
                    region.uid, region.name, frag, "stage", coh,
                )
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
        chaos = self.recovery.chaos
        attempt = 0
        while True:
            if chaos is not None and chaos.alloc_fault():
                attempt += 1
                lane = f"{memory.kind.value}[{memory.uid}]"
                t_input += self.recovery.retry(
                    "alloc", attempt, f"task {task.name!r} attempt {attempt}",
                    f"allocation for task {task.name!r} in {lane}",
                    (lane,), f"alloc:{task.name}", t_input,
                )
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
                        inst.region_uid, name, rect, "spill", coh,
                    )
                    self.profiler.record_spill(
                        int(nbytes * self.config.effective_comm_scale)
                    )
                    t = max(t, finish)
                freed += st.drop_instance(inst)
                coh.invalidate(memory.uid, inst.rect)
        return t, freed

    def _fold_reduction(
        self,
        task: TaskLaunch,
        req: Requirement,
        writes: List[Tuple[Rect, Memory, float]],
        colors: int,
        launch_id: int = 0,
    ) -> None:
        """Fold per-shard REDUCE contributions onto owner tiles.

        The fold reads no coherence, and a Tiling owner covers the
        region with disjoint tiles, so the per-color ``mark_written``
        calls batch into one ``write_complete``.  The batch waits in
        ``_pending_writes``, where a failure mid-fold finds it
        (:meth:`_execute` replays it).
        """
        owner = req.owner or Tiling.create(req.region, colors)
        coh = self.coherence(req.region)
        procs = self.scope.processors
        batch: Optional[List[Tuple[int, Rect, float]]] = None
        if type(owner) is Tiling and owner.region.uid == req.region.uid:
            batch = []
            self._pending_writes = {req.name: (coh, batch)}
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
                        req.region.uid, req.region.name, overlap, "fold", None,
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
        if batch is not None:
            self._pending_writes = None
            if batch:
                coh.write_complete(batch)
                self.profiler.fastpath_counters["batched_writes"] += len(batch)

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
        """Charge one allreduce tree over ``p`` shards; its finish time.

        A one-shard fold is no collective -- Legate runs a one-point
        launch domain as a single task, whose return value is the
        future -- so it is ready when its shard is.  It is still
        counted (``Profiler.allreduces``) and logged, with one
        participant.
        """
        t0 = max(ready_times) if ready_times else self.issue_time
        self.profiler.record_allreduce()
        if self.event_log is not None:
            self.event_log.record_allreduce(op, p)
        if p <= 1:
            t = t0
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
        part = partition or Tiling.create(region, self.launch_colors)
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


def _access(row: _PlanRow, color: int) -> ReqAccess:
    """The event-log record of one shard's access to one requirement."""
    return ReqAccess(
        row.name, row.uid, row.region.name, row.rects[color],
        row.privilege.value, row.pieces[color] if row.reads else (),
    )


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
