"""AutoTask: the constraint-declaring task launch API (paper Fig. 4).

Library operations create an :class:`AutoTask`, register their stores
with privileges, declare partitioning constraints, and call
:meth:`AutoTask.execute`.  The solver picks concrete partitions, the
runtime performs mapping/coherence/timing, and written stores have their
key partitions updated so later operations (from any library) can reuse
them: a store written through a tiling keeps the tiling, one written
through an image of a ``pos`` tile that cuts it like a tiling keeps the
image (Legate Sparse's co-partitioned ``crd``/``vals``).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Dict, List, Optional

from repro.analysis import ValidationError
from repro.constraints.constraint import Align, Broadcast, Explicit, Image, ImageKind
from repro.constraints.solver import (
    keeps_image, rebuild_solution, solution_plan, solve_partitions,
)
from repro.constraints.store import Store
from repro.legion.exceptions import LaunchWidthError
from repro.legion.future import Future
from repro.legion.partition import Tiling
from repro.legion.privilege import Privilege
from repro.legion.runtime import Runtime
from repro.legion.task import (
    CostFn, KernelFn, Pointwise, Requirement, TaskLaunch, default_cost,
)


class AutoTask:
    """A task launch described by stores + constraints."""

    def __init__(
        self,
        runtime: Runtime,
        name: str,
        kernel: KernelFn,
        cost_fn: Optional[CostFn] = None,
        colors: Optional[int] = None,
    ):
        self.runtime = runtime
        self.name = name
        self.kernel = kernel
        self.cost_fn = cost_fn or default_cost
        self.colors = colors
        self._args: List[tuple] = []  # (name, store, privilege)
        self._constraints: List[object] = []
        self._scalars: Dict[str, Any] = {}
        self._scalar_reduction: Optional[str] = None
        self._by_name: Dict[str, Store] = {}
        self._pointwise: Optional[Pointwise] = None
        self._structure = False

    # ------------------------------------------------------------------
    # Region arguments
    # ------------------------------------------------------------------
    def _add(self, name: str, store: Store, privilege: Privilege) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate argument name {name!r}")
        self._args.append((name, store, privilege))
        self._by_name[name] = store

    def add_input(self, name: str, store: Store) -> None:
        """Register a read-only store under a kernel name."""
        self._add(name, store, Privilege.READ)

    def add_output(self, name: str, store: Store, discard: bool = True) -> None:
        """Register an output store (write-discard by default)."""
        priv = Privilege.WRITE_DISCARD if discard else Privilege.WRITE
        self._add(name, store, priv)

    def add_inout(self, name: str, store: Store) -> None:
        """Register a read-write store."""
        self._add(name, store, Privilege.WRITE)

    def add_reduction(self, name: str, store: Store) -> None:
        """Register a REDUCE-privilege (accumulated) store."""
        self._add(name, store, Privilege.REDUCE)

    def add_scalar_arg(self, name: str, value: Any) -> None:
        """Attach a scalar (or Future) argument."""
        self._scalars[name] = value

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_alignment_constraint(self, left: Store, right: Store) -> None:
        """Require identical partitions (Fig. 4)."""
        self._constraints.append(Align(left, right))

    def add_image_constraint(
        self, source: Store, dests, kind: str = "range"
    ) -> None:
        """Partition dests as the image of source."""
        image_kind = ImageKind(kind)
        if isinstance(dests, Store):
            dests = [dests]
        for dest in dests:
            self._constraints.append(Image(source, dest, image_kind))

    def add_broadcast(self, store: Store) -> None:
        """Replicate the store to every shard."""
        self._constraints.append(Broadcast(store))

    def add_explicit_partition(self, store: Store, partition) -> None:
        """Use a caller-supplied partition."""
        self._constraints.append(Explicit(store, partition))

    def set_scalar_reduction(self, op: str) -> None:
        """Reduce kernel return values into a Future."""
        self._scalar_reduction = op

    def set_pointwise(
        self, *ops: str, expr=None, out: Optional[str] = None, statement=None
    ) -> None:
        """Declare that the kernel touches only its shard's rects.

        Such tasks are eligible for the runtime's deferred fusion
        window (:mod:`repro.legion.fusion`); ``ops`` names the
        operations for reporting.  Only set this on kernels that read
        and write nothing outside their shard's rect of every argument
        (for an image argument: the image's rect).

        ``expr``/``out``/``statement`` optionally expose the kernel
        body IR (see :class:`~repro.legion.task.Pointwise`) so the
        dependence analyzer can prove the launch body-mergeable into a
        single combined loop nest; omitting them keeps the kernel
        opaque (task-fusible, never body-merged).
        """
        self._pointwise = Pointwise(
            tuple(ops),
            expr=tuple(expr) if expr is not None else None,
            out=out,
            statement=statement,
        )

    def set_structure(self) -> None:
        """Declare that the kernel writes only sparse structure computed
        from its ``pos``/``crd`` inputs (row expansion).

        A dry run (the advisor's) skips every kernel except these, so
        the images later launches take of that structure are the real
        run's and so are their copies.
        """
        self._structure = True

    # ------------------------------------------------------------------
    def _check_write_disjointness(self, solution) -> None:
        """Validation mode: exclusive-write partitions must be disjoint.

        Two colors writing overlapping rects under WRITE/WRITE_DISCARD
        race — only REDUCE tolerates aliased outputs (folds commute).
        The event-log checker would flag this after the fact; failing
        here names the offending launch while it is on the stack.
        """
        for name, store, privilege in self._args:
            if privilege not in (Privilege.WRITE, Privilege.WRITE_DISCARD):
                continue
            partition = solution[store.region.uid]
            if partition.color_count > 1 and not partition.is_disjoint():
                raise ValidationError(
                    f"task {self.name!r}: {privilege.value} argument "
                    f"{name!r} has an aliased partition — overlapping "
                    f"shards would race on region {store.region.name!r}"
                )

    def _fingerprint(self, colors: int) -> Optional[tuple]:
        """The launch's structural key, taken *before* the solve.

        Everything the solver consults (shapes and dtypes, so sizes; key
        partitions, a tiling of another region by that region's uid;
        alignment and broadcast structure) plus what the launch adds to
        it (name, privileges, body IR), with regions numbered by first
        use within the launch.  It keys the launch's template: the solve
        plan, and with it the solved partitions, window verdict and
        launch shape.  None when the solve reads region data or caller
        partitions (Image, Explicit), a key partition is no tiling (an
        image key's rects come from its source's data, so image keys are
        not memoized), or a constraint names a store that is no
        argument: such a launch's solve is never memoized, and
        ``Runtime.launch`` keys its template after the solve, by
        :func:`repro.legion.tracing.launch_fingerprint`.
        """
        ids: Dict[int, int] = {}
        rows = []
        own = set()
        for name, store, privilege in self._args:
            region = store.region
            uid = region.uid
            own.add(uid)
            lid = ids.get(uid)
            if lid is None:
                lid = ids[uid] = len(ids)
            key = store.key_partition
            if key is not None:
                if type(key) is not Tiling:
                    return None
                key = (
                    key.boundaries if key.region is region
                    else (key.region.uid, key.boundaries)
                )
            rows.append((name, privilege, lid, region.shape, region.dtype, key))
        constraints = []
        for con in self._constraints:
            kind = type(con)
            if kind is Align:
                left, right = con.left.region.uid, con.right.region.uid
                if left not in own or right not in own:
                    return None
                constraints.append((ids[left], ids[right]))
            elif kind is Broadcast:
                uid = con.store.region.uid
                if uid not in own:
                    return None
                constraints.append((ids[uid],))
            else:
                return None
        return (
            self.name, self._pointwise, self._scalar_reduction, colors,
            tuple(rows), tuple(constraints),
        )

    def execute(self) -> Optional[Future]:
        """Solve constraints, launch, update key partitions.

        A written store keeps the partition it was written through as
        its key when that is a tiling, or an image by range whose rects
        tile the store (:func:`~repro.constraints.solver.keeps_image`);
        a REDUCE store keeps its owner tiling.

        The solve goes through the template of the launch's pre-solve
        key (:meth:`_fingerprint`): iterative solvers re-launch
        structurally identical tasks every step, and the key embeds key
        partitions, so repartitions miss instead of going stale.  The
        deferred window is flushed before the solve only if a member
        writes an image source (``Runtime.order_solve``); the launch
        then joins the window or flushes it (``Runtime.launch``).
        """
        rt = self.runtime
        colors = self.colors if self.colors is not None else rt.launch_colors
        # An image partition reads its source's data at solve time:
        # deferred launches that still owe writes to a source run first.
        # The launch itself -- joining the window or flushing it -- is
        # ordered by Runtime.launch.  An explicit partition must have
        # the launch's width (LaunchWidthError).
        sources = []
        for con in self._constraints:
            kind = type(con)
            if kind is Image:
                sources.append(con.source.region.uid)
            elif kind is Explicit and con.partition.color_count != colors:
                raise LaunchWidthError(
                    self.name, con.store.region.name,
                    con.partition.color_count, colors,
                )
        if sources:
            rt.order_solve(sources)
        stores = [store for _, store, _ in self._args]
        t0 = _perf()
        template = rt._template(self._fingerprint(colors))
        counters = rt.profiler.fastpath_counters
        if template is not None and template.plan is not None:
            solution = rebuild_solution(template.plan, stores, colors)
            counters["solve_hits"] += 1
        else:
            solution = solve_partitions(
                stores,
                self._constraints,
                colors,
                exact_images=rt.config.exact_images,
                image_cache=rt._image_cache,
            )
            if template is not None:
                template.plan = solution_plan(solution, stores)
                counters["solve_misses"] += 1
        rt.profiler.record_host_phase("constraint-solve", _perf() - t0)
        if self.runtime.config.validate:
            self._check_write_disjointness(solution)
        requirements = []
        for name, store, privilege in self._args:
            owner = None
            if privilege == Privilege.REDUCE:
                # Contributions fold onto the store's key tiling.
                owner = store.key_partition
                if not isinstance(owner, Tiling) or owner.color_count != colors:
                    owner = Tiling.create(store.region, colors)
            requirements.append(
                Requirement(
                    name, store.region, solution[store.region.uid], privilege,
                    owner=owner,
                )
            )

        launch = TaskLaunch(
            name=self.name,
            requirements=requirements,
            kernel=self.kernel,
            cost_fn=self.cost_fn,
            scalars=self._scalars,
            reduction=self._scalar_reduction,
            pointwise=self._pointwise,
            template=template,
            structure=self.kernel if self._structure else None,
        )
        result = self.runtime.launch(launch)

        for (_name, store, privilege), req in zip(self._args, requirements):
            if privilege == Privilege.REDUCE:
                store.set_key_partition(req.owner)
            elif privilege.writes and (
                isinstance(req.partition, Tiling) or keeps_image(req.partition)
            ):
                store.set_key_partition(req.partition)
        return result
