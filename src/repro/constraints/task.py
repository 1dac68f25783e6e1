"""AutoTask: the constraint-declaring task launch API (paper Fig. 4).

Library operations create an :class:`AutoTask`, register their stores
with privileges, declare partitioning constraints, and call
:meth:`AutoTask.execute`.  The solver picks concrete partitions, the
runtime performs mapping/coherence/timing, and written stores have their
key partitions updated so later operations (from any library) can reuse
them.
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Dict, List, Optional

from repro.analysis import ValidationError
from repro.constraints.constraint import Align, Broadcast, Explicit, Image, ImageKind
from repro.constraints.solver import (
    rebuild_solution, solution_plan, solve_partitions, solve_signature,
)
from repro.constraints.store import Store
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
        """Mark the task element-wise over aligned operands.

        Pointwise tasks are eligible for the runtime's deferred fusion
        window (:mod:`repro.legion.fusion`); ``ops`` names the
        element-wise operations for reporting.  Only set this on kernels
        that touch exactly their shard's rect of every argument.

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

    def _fingerprint(self, colors: int, ids: Dict[int, int]) -> Optional[tuple]:
        """The launch's trace fingerprint, taken *before* the solve.

        Everything the solver consults (what
        :func:`~repro.constraints.solver.solve_signature` encodes: shapes,
        sizes, key partitions, alignment and broadcast structure) plus
        what the launch adds to it (name, privileges, body IR), with
        regions numbered by first use within the trace body (``ids``)
        -- so a match pins the solve plan, the solved partitions and
        the dataflow from earlier launches of the body at once.  None
        when the solve reads region data or caller partitions (Image,
        Explicit), a key partition is no tiling, or a constraint names
        a store that is no argument: such launches are matched after
        the solve, by :func:`repro.legion.tracing.launch_fingerprint`.
        """
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

    def _solve(
        self, stores, colors: int, slot, images: bool
    ) -> Dict[int, object]:
        """Partitions for the stores, through the solve memo.

        Iterative solvers re-launch structurally identical tasks every
        step; the signature embeds key partitions, so repartitions miss
        instead of going stale.  Image constraints read region data and
        are never memoizable.  The plan found or made is left on the
        trace ``slot`` (if any) for the position's replays.
        """
        rt = self.runtime
        sig = None if images else solve_signature(
            stores,
            self._constraints,
            colors,
            reuse_partitions=rt.config.reuse_partitions,
            exact_images=rt.config.exact_images,
        )
        if sig is not None:
            plan_entry = rt._solve_memo.get(sig)
            if plan_entry is not None:
                if slot is not None:
                    slot.solve_plan = plan_entry
                rt.profiler.fastpath_counters["solve_hits"] += 1
                return rebuild_solution(plan_entry, stores, colors)
        solution = solve_partitions(
            stores,
            self._constraints,
            colors,
            reuse_partitions=rt.config.reuse_partitions,
            exact_images=rt.config.exact_images,
            image_cache=rt._image_cache,
        )
        if sig is not None:
            splan = solution_plan(solution, stores)
            if splan is not None:
                rt._solve_memo.put(sig, splan)
                if slot is not None:
                    slot.solve_plan = splan
            rt.profiler.fastpath_counters["solve_misses"] += 1
        return solution

    def execute(self) -> Optional[Future]:
        """Solve constraints, launch, update key partitions."""
        colors = self.colors if self.colors is not None else self.runtime.num_procs
        images = [c for c in self._constraints if isinstance(c, Image)]
        ordered = self._pointwise is None or bool(images)
        if ordered and self.runtime._window:
            # A launch that cannot join the deferred window is ordered
            # against it *before* solving: image partitions read region
            # data host-side at solve time, and pending fused launches
            # may still owe writes to those regions.  The window is
            # flushed only on such a dependence (Runtime.pass_window).
            accesses = [
                (store.region.uid, privilege.writes)
                for _, store, privilege in self._args
            ]
            for image in images:
                accesses.append((image.source.region.uid, False))
                accesses.append((image.dest.region.uid, False))
            self.runtime.pass_window(accesses, self._scalars)
        stores = [store for _, store, _ in self._args]
        rt = self.runtime
        t0 = _perf()
        # Inside a trace scope the launch is matched against the
        # captured body before its solve; a replayed position hands
        # back the capture's solve plan.
        trace = rt._trace
        slot = None
        if trace is not None and trace.recording and not images:
            fingerprint = self._fingerprint(colors, trace.ids)
            if fingerprint is not None:
                slot = trace.advance(fingerprint)
        if slot is not None and slot.solve_plan is not None:
            solution = rebuild_solution(slot.solve_plan, stores, colors)
            rt.profiler.fastpath_counters["solve_hits"] += 1
        else:
            solution = self._solve(stores, colors, slot, bool(images))
        rt.profiler.record_host_phase("constraint-solve", _perf() - t0)
        if self.runtime.config.validate:
            self._check_write_disjointness(solution)
        requirements = []
        fold_partition = None
        for name, store, privilege in self._args:
            partition = solution[store.region.uid]
            requirements.append(
                Requirement(name, store.region, partition, privilege)
            )
            if privilege == Privilege.REDUCE and fold_partition is None:
                if isinstance(store.key_partition, Tiling) and (
                    store.key_partition.color_count == colors
                ):
                    fold_partition = store.key_partition
                else:
                    fold_partition = Tiling.create(store.region, colors)

        launch = TaskLaunch(
            name=self.name,
            requirements=requirements,
            kernel=self.kernel,
            cost_fn=self.cost_fn,
            scalars=self._scalars,
            reduction=self._scalar_reduction,
            fold_partition=fold_partition,
            pointwise=self._pointwise,
            ordered=ordered,
        )
        if slot is not None:
            trace.tag(launch, slot)
        result = self.runtime.launch(launch)

        for _name, store, privilege in self._args:
            if not privilege.writes:
                continue
            partition = solution[store.region.uid]
            if privilege == Privilege.REDUCE:
                store.set_key_partition(fold_partition)
            elif isinstance(partition, Tiling):
                store.set_key_partition(partition)
        return result
