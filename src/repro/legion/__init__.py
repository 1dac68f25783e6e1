"""A Legion-like task-based runtime with simulated distributed execution.

This package reproduces the slice of the Legion programming model that
Legate Sparse (SC '23) is built on:

* **Regions** (:mod:`repro.legion.region`) — multi-dimensional arrays that
  back both dense arrays and the component arrays of sparse matrices.
* **Partitions** (:mod:`repro.legion.partition`) — first-class mappings
  from colors to sub-rectangles, including the *image* dependent
  partitioning operation (by range and by coordinate, Fig. 2).
* **Tasks** (:mod:`repro.legion.task`) — privilege-carrying launches over
  partitioned regions.
* **Coherence & copies** (:mod:`repro.legion.coherence`) — per-memory
  validity tracking that derives precise, data-dependent communication,
  exactly the halo-exchange behaviour walked through in §4.3 of the paper.
* **Mapping** (:mod:`repro.legion.instance`) — physical instances with the
  shared allocation store and the coalescing heuristic of §4.2.
* **Runtime** (:mod:`repro.legion.runtime`) — dynamic dependence analysis
  plus a discrete-event simulated clock.  Numerics execute eagerly and
  exactly (verified against SciPy); *time* and *communication* are
  simulated against a machine model, which is how this reproduction
  regenerates the paper's Summit-scale weak-scaling results on one host.
"""

from repro.legion.chaos import ChaosConfig, ChaosInjector, LossSchedule
from repro.legion.exceptions import (
    FaultError, LaunchWidthError, LegionError, OutOfMemoryError,
)
from repro.legion.future import Future
from repro.legion.partition import (
    ImageByCoordinate,
    ImageByRange,
    Partition,
    Replicate,
    Tiling,
)
from repro.legion.privilege import Privilege
from repro.legion.profiler import Profiler
from repro.legion.region import Region
from repro.legion.runtime import (
    Runtime,
    RuntimeConfig,
    get_runtime,
    runtime_scope,
    set_runtime,
)
from repro.legion.task import Pointwise, Requirement, ShardContext, TaskLaunch
from repro.legion.timeline import Span, Timeline

__all__ = [
    "ChaosConfig",
    "ChaosInjector",
    "FaultError",
    "Future",
    "Pointwise",
    "ImageByCoordinate",
    "ImageByRange",
    "LaunchWidthError",
    "LegionError",
    "LossSchedule",
    "OutOfMemoryError",
    "Partition",
    "Privilege",
    "Profiler",
    "Region",
    "Replicate",
    "Requirement",
    "Runtime",
    "RuntimeConfig",
    "ShardContext",
    "Span",
    "TaskLaunch",
    "Tiling",
    "Timeline",
    "get_runtime",
    "runtime_scope",
    "set_runtime",
]
