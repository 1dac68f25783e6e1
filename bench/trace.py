"""Outside-in layer tracing: spans around each layer's public functions.

Nothing inside the program is edited.  :func:`install` replaces the
wrap points listed in :data:`WRAP_POINTS` (attributes of the program's
modules and classes) with recording wrappers and :func:`uninstall` puts
the original objects back; only the traced child process of
``bench/run.py --trace`` ever imports this module, so end-to-end
numbers are taken with no wrapper installed.

A span is ``(layer, function, parent span, start, end)``.  Spans are
kept in memory as flat arrays and written out when the pass ends.  A
layer's *self time* is its spans' duration minus the part covered by
their child spans, so the layers plus ``untraced`` (the self time of
the benchmark's own root span) add up to the traced wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

# Layers are this repository's module names, outermost first.
LAYERS = (
    "apps",
    "core",
    "numeric",
    "constraints",
    "legion.runtime",
    "legion.fusion",
    "legion.partition",
    "legion.coherence",
    "legion.instance",
    "machine",
    "distal.kernel",
    "distal.cost",
    "distal.compile",
    "analysis.depend",
    "serve.service",
    "serve.scheduler",
    "serve.batcher",
    "serve.cache",
)
UNTRACED = "untraced"

PUBLIC = "public"  # every function without a leading underscore
ALL = "all"  # private helpers too (they are where a class does its work)
# Operator dunders worth a span; other dunders (__repr__, __eq__,
# dataclass plumbing) are never wrapped.
_DUNDERS = frozenset(
    "__init__ __matmul__ __rmatmul__ __mul__ __rmul__ __add__ __sub__ "
    "__rsub__ __truediv__ __neg__ __abs__ __getitem__".split()
)

# layer -> [(module, class name or None, names | PUBLIC | ALL)]
WRAP_POINTS: Dict[str, List[Tuple[str, object, object]]] = {
    "apps": [
        ("repro.apps.matfact", None, PUBLIC),
        ("repro.apps.matfact", "MatrixFactorizationModel", ALL),
        ("repro.apps.multigrid", None, PUBLIC),
        ("repro.apps.multigrid", "TwoLevelGMG", ALL),
    ],
    "core": [
        ("repro.core.base", "spmatrix", ALL),
        ("repro.core.csr", "csr_matrix", ALL),
        ("repro.core.csr", None, ALL),
        ("repro.core.coo", "coo_matrix", ALL),
        ("repro.core.csc", "csc_matrix", ALL),
        ("repro.core.convert", None, PUBLIC),
        ("repro.core.linalg.iterative", None, PUBLIC),
        ("repro.core.linalg.interface", "LinearOperator", ALL),
    ],
    "numeric": [
        ("repro.numeric.ufunc", None, PUBLIC),
        ("repro.numeric.reductions", None, PUBLIC),
        ("repro.numeric.indexing", None, PUBLIC),
        ("repro.numeric.creation", None, PUBLIC),
        ("repro.numeric.scan", None, PUBLIC),
        ("repro.numeric.linalg", None, PUBLIC),
        ("repro.numeric.random", None, PUBLIC),
        ("repro.numeric.lazy", None, ("evaluate",)),
    ],
    "constraints": [
        ("repro.constraints.solver", None, PUBLIC),
        ("repro.constraints.task", "AutoTask", ("execute",)),
    ],
    "legion.runtime": [
        (
            "repro.legion.runtime",
            "Runtime",
            (
                "launch", "flush_window", "barrier", "elapsed", "wait",
                "allreduce", "fill", "create_region", "free_region",
            ),
        ),
    ],
    "legion.fusion": [("repro.legion.fusion", None, PUBLIC)],
    "legion.partition": [
        ("repro.legion.partition", "Tiling", ("create", "trusted")),
        ("repro.legion.partition", "ImageByRange", ("__init__",)),
        ("repro.legion.partition", "ImageByCoordinate", ("__init__",)),
    ],
    "legion.coherence": [("repro.legion.coherence", "RegionCoherence", PUBLIC)],
    "legion.instance": [
        ("repro.legion.instance", "InstanceManager", ("ensure", "free_region")),
    ],
    "machine": [
        ("repro.machine.model", "Channel", ("transfer",)),
        ("repro.machine.model", "Machine", ("channels_between", "channel_horizon")),
        ("repro.machine.model", "Processor", ("kernel_time",)),
    ],
    "distal.compile": [
        ("repro.distal.codegen", None, ("generate", "generate_nest")),
        ("repro.distal.registry", "KernelRegistry", ("get",)),
    ],
    "analysis.depend": [("repro.analysis.depend", None, PUBLIC)],
    "serve.service": [
        ("repro.serve.service", "SparseService",
         ("submit", "run", "update_model", "stats")),
    ],
    "serve.scheduler": [("repro.serve.scheduler", "FairShareScheduler", PUBLIC)],
    "serve.batcher": [("repro.serve.batcher", "SpMVBatcher", ("plan", "execute"))],
    "serve.cache": [("repro.serve.cache", "ResultCache", PUBLIC)],
}
# distal.kernel and distal.cost have no static wrap point: each
# TaskLaunch carries its own kernel and cost function, wrapped on entry
# to Runtime.launch and on return from fusion.fuse (see install()).


class Tracer:
    """Span store: five parallel arrays and the open-span cursor."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers = list(LAYERS) + [UNTRACED]
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.layer = array("H")
        self.name = array("I")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, layer_id: int, name_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.current = self.parent[idx]

    @contextmanager
    def root(self, name: str = "repeat"):
        """The benchmark's own span around one repeat; its self time is
        what no layer claimed (``untraced.self_s``)."""
        idx = self.open(self.layers.index(UNTRACED), self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` with a span around every call."""
        if getattr(fn, "_bench_traced", False):
            return fn
        lid, nid = self.layers.index(layer), self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(lid, nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced._bench_traced = True
        return traced

    # -- analysis -------------------------------------------------------
    def arrays(self):
        return (
            np.frombuffer(self.layer, dtype=np.uint16),
            np.frombuffer(self.name, dtype=np.uint32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per-layer and per-function self seconds and call counts."""
        layer, name, parent, start, end = self.arrays()
        own = self_times(parent, start, end)
        n_layers = len(self.layers)
        by_layer_s = np.bincount(layer, weights=own, minlength=n_layers)
        by_layer_n = np.bincount(layer, minlength=n_layers)
        n_names = len(self.names)
        key = layer.astype(np.int64) * n_names + name
        uniq, inverse = np.unique(key, return_inverse=True)
        fn_self = np.bincount(inverse, weights=own)
        fn_total = np.bincount(inverse, weights=end - start)
        fn_calls = np.bincount(inverse)
        functions = [
            {
                "layer": self.layers[int(k) // n_names],
                "function": self.names[int(k) % n_names],
                "calls": int(c),
                "self_s": float(s),
                "total_s": float(t),
            }
            for k, c, s, t in zip(uniq, fn_calls, fn_self, fn_total)
        ]
        functions.sort(key=lambda f: -f["self_s"])
        roots = parent < 0
        return {
            "wall_s": float(np.sum((end - start)[roots])),
            "spans": int(len(start)),
            "layers": {
                self.layers[i]: {
                    "self_s": float(by_layer_s[i]),
                    "calls": int(by_layer_n[i]),
                }
                for i in range(n_layers)
            },
            "functions": functions,
        }

    def spans(self, limit: int) -> dict:
        """The first ``limit`` raw spans, columnar (times relative to
        the first span's start)."""
        layer, name, parent, start, end = self.arrays()
        n = min(limit, len(start))
        t0 = float(start[0]) if n else 0.0
        return {
            "truncated": bool(len(start) > n),
            "layers": self.layers,
            "names": self.names,
            "layer": layer[:n].tolist(),
            "name": name[:n].tolist(),
            "parent": parent[:n].tolist(),
            "start_s": (start[:n] - t0).round(7).tolist(),
            "end_s": (end[:n] - t0).round(7).tolist(),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children
    (single-threaded, so children never overlap)."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------
def _selected(owner, module_name: str, names) -> List[str]:
    """Attribute names of ``owner`` to wrap: functions defined in
    ``module_name`` (not re-exports), filtered by the selector."""
    picked = []
    for attr, value in vars(owner).items():
        fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
        if not inspect.isfunction(fn) or fn.__module__ != module_name:
            continue
        if names in (PUBLIC, ALL):
            if attr.startswith("__"):
                if attr not in _DUNDERS:
                    continue
            elif attr.startswith("_") and names == PUBLIC:
                continue
        elif attr not in names:
            continue
        picked.append(attr)
    if names not in (PUBLIC, ALL):
        missing = set(names) - set(picked)
        if missing:
            raise LookupError(
                f"wrap point(s) {sorted(missing)} not found on "
                f"{getattr(owner, '__qualname__', owner.__name__)}"
            )
    return picked


def targets() -> List[Tuple[str, object, str]]:
    """Every static wrap point as ``(layer, owner, attribute)``."""
    out = []
    for layer, points in WRAP_POINTS.items():
        for module_name, class_name, names in points:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in _selected(owner, module_name, names):
                out.append((layer, owner, attr))
    return out


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"


def snapshot() -> List[Tuple[object, str, object]]:
    """``(owner, attribute, raw object)`` behind every wrap point, for
    the removal check."""
    return [(o, a, vars(o)[a]) for _, o, a in targets()]


def install(tracer: Tracer) -> list:
    """Wrap every wrap point; returns the undo list for :func:`uninstall`."""
    undo = []
    rebound: Dict[int, Callable] = {}  # id(original function) -> wrapper

    def replace(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for layer, owner, attr in targets():
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapped = tracer.wrap(fn, layer, _label(owner, attr))
        if wrapped is fn:
            continue
        if inspect.ismodule(owner):
            rebound[id(fn)] = wrapped
        replace(owner, attr, type(raw)(wrapped) if raw is not fn else wrapped)

    # ``from module import function`` made copies of the reference in
    # other program modules: point those at the wrapper too.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = rebound.get(id(value))
            if wrapper is not None and vars(module)[attr] is not wrapper:
                replace(module, attr, wrapper)

    # Per-launch kernels and cost functions.
    from repro.legion import fusion
    from repro.legion.runtime import Runtime

    def wrap_task(task):
        task.kernel = tracer.wrap(task.kernel, "distal.kernel", "TaskLaunch.kernel")
        task.cost_fn = tracer.wrap(task.cost_fn, "distal.cost", "TaskLaunch.cost_fn")
        return task

    traced_launch = vars(Runtime)["launch"]
    traced_fuse = fusion.fuse

    @functools.wraps(traced_launch)
    def launch(self, task):
        return traced_launch(self, wrap_task(task))

    @functools.wraps(traced_fuse)
    def fuse(*args, **kwargs):
        return wrap_task(traced_fuse(*args, **kwargs))

    replace(Runtime, "launch", launch)
    replace(fusion, "fuse", fuse)
    return undo


def uninstall(undo: list) -> None:
    """Put every original object back, newest replacement first."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def leftovers(before: List[Tuple[object, str, object]]) -> List[str]:
    """Wrap points that are not the original objects any more."""
    return [
        _label(owner, attr) for owner, attr, raw in before
        if vars(owner)[attr] is not raw
    ]


# ----------------------------------------------------------------------
# Counts, read from the program's existing Profiler / ServeStats
# ----------------------------------------------------------------------
HOST_PHASES = (
    "window-flush", "dependence", "constraint-solve", "mapping",
    "event-advance",
)
COPY_KINDS = ("nvlink", "nic")


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def profiler_counts(runtime, delta, service=None) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` from a Profiler delta (and ServeStats).

    ``machine.copy_bytes.*`` are bytes *computed* by the machine model
    at full problem scale, not bytes measured on a wire.
    """
    fp = delta.fastpath_counters
    out = {
        "legion.runtime.launches": (delta.tasks_launched, "count"),
        "legion.runtime.shards": (delta.shards_executed, "count"),
        "legion.runtime.fused_away": (delta.tasks_fused_away, "count"),
        "legion.runtime.regions_elided": (delta.regions_elided, "count"),
        "legion.runtime.kernel_merges": (delta.kernel_merges, "count"),
        "legion.runtime.allreduces": (delta.allreduces, "count"),
        "legion.runtime.launch_overhead_modeled_s": (
            delta.launch_overhead_seconds, "s"),
        "distal.kernel_modeled_s": (delta.kernel_seconds, "s"),
        "legion.instance.lookup_hit_ratio": (
            _ratio(fp["lookup_hits"], fp["lookup_misses"]), "ratio"),
        "legion.instance.peak_modeled_mb": (
            runtime.instances.total_peak_bytes() / 2**20, "MiB"),
        "legion.instance.evictions": (delta.evictions, "count"),
        "legion.instance.spills": (delta.spills, "count"),
        "constraints.memo_hit_ratio": (
            _ratio(fp["solve_hits"], fp["solve_misses"]), "ratio"),
        "legion.coherence.batched_writes": (fp["batched_writes"], "count"),
    }
    for kind in COPY_KINDS:
        out[f"machine.copies.{kind}"] = (delta.copy_count[kind], "count")
        out[f"machine.copy_bytes.{kind}"] = (delta.copy_bytes[kind], "B")
    for phase in HOST_PHASES:
        out[f"legion.profiler.host_phase.{phase}_s"] = (
            delta.host_phase_seconds[phase], "s")
    serve = {
        "serve.cache.hit_ratio": 0.0,
        "serve.batcher.mean_width": 0.0,
        "serve.batcher.refusals": 0,
        "serve.scheduler.rejected": 0,
    }
    if service is not None:
        stats = service.stats()
        launched = stats.requests_served + stats.requests_failed - stats.cache.hits
        serve = {
            "serve.cache.hit_ratio": stats.cache.hit_rate,
            "serve.batcher.mean_width": (
                launched / stats.launches if stats.launches else 0.0),
            "serve.batcher.refusals": sum(stats.refusals.values()),
            "serve.scheduler.rejected": stats.requests_rejected,
        }
    units = {"serve.cache.hit_ratio": "ratio", "serve.batcher.mean_width": "count"}
    for name, value in serve.items():
        out[name] = (value, units.get(name, "count"))
    return {k: (float(v), u) for k, (v, u) in out.items()}
