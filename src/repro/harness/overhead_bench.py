"""Host-runtime scale probe: what a launch costs the host at width.

The simulated runtime's *modeled* time is the paper's subject, but the
host process pays real Python seconds to produce it — per-launch
dependence analysis, mapping and coherence updates whose cost grows
with the color count.  This harness runs the Fig. 9 CG inner loop at
summit:64 and summit:1024 simulated GPUs and reports host wall-clock
seconds per 1 000 launches plus the profiler's host-phase breakdown
(window flush, dependence, constraint solve, mapping, event advance)
and the batched-write / solve-memo counters.

It is a probe, not a gate: ``bench/run.py`` is the harness for
performance claims and has no workload this wide yet (ROADMAP item 2).
``scripts/overhead.py`` prints the table and writes the payload under
the ignored ``artifacts/``.
"""

from __future__ import annotations

import math
import time
from typing import Dict

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, summit

CG_GRID = 64

# summit nodes carry 6 GPUs; round up so the scope can take `procs`.
GPUS_PER_NODE = 6

# Scale points: (procs, CG iterations).
SCALES = ((64, 4), (1024, 2))


def measure_scale(procs: int, iters: int, grid: int = CG_GRID) -> Dict:
    """Host seconds per 1k launches for CG at one machine scale."""
    rt = Runtime(
        summit(nodes=math.ceil(procs / GPUS_PER_NODE)).scope(
            ProcessorKind.GPU, procs
        ),
        RuntimeConfig.legate(),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(grid))
        b = rnp.ones(grid * grid)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        rt.barrier()
        snap = rt.profiler.snapshot()
        wall0 = time.perf_counter()
        sp.linalg.cg(A, b, rtol=0.0, maxiter=iters)
        t_model = rt.barrier()
        wall = time.perf_counter() - wall0
        delta = rt.profiler.since(snap)
    launches = delta.tasks_launched
    return {
        "machine": f"summit:{procs}",
        "procs": procs,
        "iters": iters,
        "tasks_launched": launches,
        "host_wall_clock_s": wall,
        "host_s_per_1k_launches": wall / launches * 1000.0 if launches else 0.0,
        "modeled_time_s": t_model,
        "host_phases_s": {
            k: v for k, v in sorted(delta.host_phase_seconds.items()) if v
        },
        "fastpath_counters": {
            k: int(v) for k, v in sorted(delta.fastpath_counters.items()) if v
        },
    }


def run_all(scales=SCALES) -> Dict:
    """The scale-probe payload: one entry per machine size."""
    return {
        "benchmark": "host-runtime scale probe (fig9 CG inner loop)",
        "metric": "host wall-clock seconds per 1000 task launches",
        "scales": {
            f"summit:{procs}": measure_scale(procs, iters)
            for procs, iters in scales
        },
    }
