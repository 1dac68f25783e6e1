"""Task launches: privilege-carrying computations over partitioned regions.

A :class:`TaskLaunch` is the low-level unit the runtime executes: a kernel
function applied once per color of the launch's partitions.  Kernels
receive a :class:`ShardContext` giving global (exact) NumPy arrays plus
the shard's rectangles, mirroring how DISTAL-generated Legion tasks index
into their region arguments with global bounds (paper Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import Rect
from repro.legion.partition import Partition
from repro.legion.privilege import Privilege
from repro.legion.region import Region


@dataclass(frozen=True)
class Pointwise:
    """Marks a launch as element-wise over aligned operands.

    Pointwise launches touch exactly their shard's rect of every region
    argument (no halos, no data-dependent indexing), which is the
    legality precondition the deferred launch window checks before
    merging a run of launches into one fused task
    (:mod:`repro.legion.fusion`).  ``ops`` names the element-wise
    operations, for reporting.

    ``expr``/``out`` optionally carry the kernel's *body IR* for the
    dependence analyzer (:mod:`repro.analysis.depend`): a postfix
    program of ``("load", req_name)`` / ``("scalar", scalar_name)`` /
    ``("un", op)`` / ``("bin", op)`` steps whose ops resolve through
    :mod:`repro.numeric.optable`, producing the value stored to
    requirement ``out``.  ``statement`` carries the DISTAL
    :class:`~repro.distal.ir.Assignment` for DISTAL-generated kernels.
    ``expr is None`` marks the kernel *opaque*: it still enters the
    task-fusion window, but its group is never body-merged into one
    loop nest (classified ``replay:opaque-kernel``).

    A scalar reduction over aligned read-only operands carries the
    marker too (it touches exactly its shard's rects): its program ends
    in ``("part", name)`` -- the per-shard partial
    ``optable.PARTIALS[name]`` over the loaded views, which the kernel
    returns -- and it has no ``out``.
    """

    ops: Tuple[str, ...] = ()
    expr: Optional[Tuple[Tuple[str, str], ...]] = None
    out: Optional[str] = None
    statement: Optional[object] = None


@dataclass
class Requirement:
    """One region argument of a task: region + partition + privilege."""

    name: str
    region: Region
    partition: Partition
    privilege: Privilege
    # Set by the fusion pass on temporaries produced and consumed
    # entirely inside one fused task: the runtime skips instance
    # allocation and staging for elided requirements (the temporary
    # never exists as a mapped instance).
    elide: bool = False


class ShardContext:
    """Everything one shard (color) of a task launch sees."""

    __slots__ = (
        "color", "colors", "arrays", "rects", "scalars", "config", "privileges",
    )

    def __init__(
        self,
        color: int,
        colors: int,
        arrays: Dict[str, np.ndarray],
        rects: Dict[str, Rect],
        scalars: Dict[str, Any],
        config,
        privileges: Optional[Dict[str, Privilege]] = None,
    ):
        self.color = color
        self.colors = colors
        self.arrays = arrays
        self.rects = rects
        self.scalars = scalars
        self.config = config
        self.privileges = privileges or {}

    def view(self, name: str) -> np.ndarray:
        """The shard's slice of a region (global array, shard rect).

        Under validation mode (``RuntimeConfig.validate``) the runtime
        sanitizes the backing arrays before building the context:
        ``READ`` arguments are non-writeable views (writing one raises)
        and ``WRITE_DISCARD`` rects arrive NaN-poisoned (reading
        undefined contents propagates NaNs) — see
        :mod:`repro.analysis.sanitizer`.
        """
        return self.arrays[name][self.rects[name].slices()]

    def rect(self, name: str) -> Rect:
        """The shard's rect of a region argument."""
        return self.rects[name]

    def scalar(self, name: str) -> Any:
        """A scalar argument (futures already unwrapped)."""
        return self.scalars[name]


# Kernel: computes the shard numerics, optionally returning a scalar
# partial for cross-shard reduction.  Cost function: returns
# (flops, bytes_moved) for the roofline timing model.
KernelFn = Callable[[ShardContext], Optional[Any]]
CostFn = Callable[[ShardContext], tuple]


def default_cost(ctx: ShardContext) -> tuple:
    """Fallback cost: the roofline bytes each privilege actually moves.

    Read-side bytes are charged for privileges that stage prior contents
    (READ, WRITE); write-side bytes for privileges that produce new
    contents (WRITE, WRITE_DISCARD, REDUCE); REDUCE pays the extra
    read-modify-write pass of the fold.  WRITE_DISCARD arguments are
    *not* charged read-side bytes — construction kernels do not stage
    their outputs in.  Without privilege information (contexts built
    outside the runtime) every argument is charged one touch per byte.
    """
    nbytes = 0.0
    for name, rect in ctx.rects.items():
        itembytes = rect.volume() * ctx.arrays[name].dtype.itemsize
        priv = ctx.privileges.get(name)
        if priv is None:
            nbytes += itembytes
            continue
        if priv.reads:
            nbytes += itembytes
        if priv.writes:
            nbytes += itembytes
        if priv is Privilege.REDUCE:
            nbytes += itembytes
    return (0.0, float(nbytes))


@dataclass
class TaskLaunch:
    """A parallel task launch over a color space."""

    name: str
    requirements: List[Requirement]
    kernel: KernelFn
    cost_fn: CostFn = default_cost
    scalars: Dict[str, Any] = field(default_factory=dict)
    # 'sum' / 'max' / 'min' / 'prod' cross-shard reduction of kernel
    # return values into a Future, or None when kernels return nothing.
    # A fused group (repro.legion.fusion.fuse) carries one op per member
    # reduction, as a tuple; its kernel returns as many partials.
    reduction: Optional[Any] = None
    # Owner partition used to fold REDUCE-privilege outputs; defaults to
    # an even tiling of the output region.
    fold_partition: Optional[Partition] = None
    # Element-wise marker: set on launches eligible for the deferred
    # fusion window (repro.legion.fusion); None means execute eagerly.
    pointwise: Optional[Pointwise] = None
    # Trace tags (repro.legion.tracing), set when the launch is issued
    # inside a trace scope: the trace position's slot (where the
    # launch's host templates live), the serial of the body that issued
    # it, and -- when the position matched the captured body -- the
    # trace this launch is a replay of.
    slot: Optional[Any] = None
    body: int = 0
    replayed_in: Optional[Any] = None
    # Deferred-window tags of a reduction (repro.legion.fusion): the
    # pending future Runtime.launch handed out for it (one per member
    # reduction on a fused group), and the window positions of the
    # reductions whose pending futures this launch takes as scalars.
    future: Optional[Any] = None
    after: Tuple[int, ...] = ()
    # Set by an issuer that has already ordered the launch against the
    # deferred window (``Runtime.pass_window``): AutoTask.execute does
    # so before a solve that reads region data.
    ordered: bool = False

    @property
    def color_count(self) -> int:
        """The launch color space (max over partitions; 1 if no regions)."""
        return max(
            (r.partition.color_count for r in self.requirements), default=1
        )
