"""Constraint-based automatic parallelization (paper §4.1, Lee et al.).

Instead of naming concrete partitions, tasks declare *constraints* on how
their region arguments must be partitioned — alignment for element-wise
operands, images for the indirection arrays of sparse formats, broadcast
for replicated operands.  A solver picks concrete partitions at launch
time, preferring partitions that already exist (partition reuse) so that
operations launched by independent libraries compose with no data
movement.  This is the layer both the dense library (`repro.numeric`) and
the sparse library (`repro.core`) are written against; neither is aware
of the other's implementation.
"""

from repro.constraints.store import Store
from repro.constraints.constraint import Align, Broadcast, Explicit, Image, ImageKind
from repro.constraints.task import AutoTask
from repro.constraints.solver import ConstraintError, solve_partitions

__all__ = [
    "Align",
    "AutoTask",
    "Broadcast",
    "ConstraintError",
    "Explicit",
    "Image",
    "ImageKind",
    "Store",
    "solve_partitions",
]
