"""Weak-scaling configuration shared by the figure experiments.

The paper's x-axis pairs one Power9 socket with its three NVLink-attached
V100s: ``1/1, 1/3, 2/6, 4/12, 8/24, 16/48, 32/96, 64/192`` (Figs. 8-10).
The first column starts the GPU series at a single GPU to compare with
CuPy.  Problem sizes are fixed *per processor*; single-device systems
(SciPy, CuPy) run their single-processor size at every column, which is
why their series are flat in the paper.
"""

from __future__ import annotations

from typing import List, Tuple

# (sockets, gpus) per weak-scaling column.
WEAK_SCALING_COLUMNS: List[Tuple[int, int]] = [
    (1, 1),
    (1, 3),
    (2, 6),
    (4, 12),
    (8, 24),
    (16, 48),
    (32, 96),
    (64, 192),
]

SOCKET_COLUMNS = [s for s, _ in WEAK_SCALING_COLUMNS]
GPU_COLUMNS = [g for _, g in WEAK_SCALING_COLUMNS]


def column_label(col: Tuple[int, int]) -> str:
    """The paper's "sockets/GPUs" x-axis label."""
    return f"{col[0]}/{col[1]}"


def nodes_needed(columns=WEAK_SCALING_COLUMNS) -> int:
    """Summit nodes required for the largest column."""
    max_sockets = max(s for s, _ in columns)
    max_gpus = max(g for _, g in columns)
    return max(max_sockets // 2, (max_gpus + 5) // 6)


def paper_legate(**kwargs):
    """Legate config as the paper measured it: no fusion, no spilling,
    no trace replay discount.

    The published system predates the deferred fusion window (§6.1
    names fusion as future work), and several figure shapes depend on
    its absence — Fig. 11's 64-GPU OOM and Fig. 12's minimum-GPU
    counts both shrink once temporaries are elided.  Figure
    regeneration therefore pins ``fusion=False``; the fusion win is
    measured separately (:mod:`repro.harness.fusion_bench`).

    Spilling is pinned off for the same reason: the paper's OOM
    outcomes (Fig. 11's 64-GPU quantum point, Fig. 12's CuPy ML-50M/
    100M failures) are first-class results, and graceful degradation
    (``RuntimeConfig.spill``) would erase them.  The resilience win is
    measured separately (:mod:`repro.harness.chaos_bench`).

    Kernel fusion (``RuntimeConfig.kernel_fusion`` — merge-safe fused
    groups executing as one generated loop nest) is pinned off with
    fusion: it rides on the deferred window and further changes modeled
    compute; its win is measured in the same separate fusion benchmark.

    Trace replay is charged in full (``trace_replay_fraction=1.0``):
    dynamic tracing is the paper's other cited future work (§6.1), so
    the published system pays the whole launch overhead on every
    iteration.  The solvers still open their trace scopes and the host
    still replays the templates -- at 1.0 that changes no modeled
    second; the tracing win is measured by ``benchmarks/test_tracing.py``
    and the ``gmg_small_tasks`` workload of ``bench/``.
    """
    from repro.legion.runtime import RuntimeConfig

    kwargs.setdefault("fusion", False)
    kwargs.setdefault("spill", False)
    kwargs.setdefault("kernel_fusion", False)
    kwargs.setdefault("trace_replay_fraction", 1.0)
    # The paper's system speaks CSR/COO only; auto-format selection is
    # this reproduction's extension and must not touch published figures.
    kwargs["autoformat"] = False
    return RuntimeConfig.legate(**kwargs)


def spans_artifact_path(trace_path: str) -> str:
    """The native span-log path written beside a Chrome trace.

    ``fig9_cg.trace.json`` -> ``fig9_cg.spans.json``; anything else
    gets ``.spans.json`` appended.
    """
    if trace_path.endswith(".trace.json"):
        return trace_path[: -len(".trace.json")] + ".spans.json"
    return trace_path + ".spans.json"


def run_profiled(run_fn, trace_path: str, columns=None):
    """Run a figure experiment with timeline profiling on; export traces.

    Enables the process-wide profile default (the experiments build
    their runtimes internally, so ``RuntimeConfig.profile`` picks it
    up), runs ``run_fn``, then selects the largest-scope ``legate``
    timeline from the registry and writes two artifacts:

    * ``trace_path`` — Chrome/Perfetto trace JSON (open in
      ``chrome://tracing`` or https://ui.perfetto.dev);
    * the sibling :func:`spans_artifact_path` — the native span log for
      ``python -m repro.analysis profile``.

    Returns ``(figure_result, timeline)``.
    """
    import os

    from repro.legion import timeline as tl_mod

    tl_mod.drain_timelines()  # don't export stale runs
    previous = tl_mod.set_profile_default(True)
    try:
        fig = run_fn(columns=columns)
    finally:
        tl_mod.set_profile_default(previous)
    recorded = [t for t in tl_mod.drain_timelines() if t.name == "legate"]
    if not recorded:
        raise RuntimeError("profiled figure run recorded no legate timelines")
    chosen = max(recorded, key=lambda t: (t.meta.get("procs", 0), len(t.spans)))
    # Process-wide kernel-compile cache totals ride along so
    # ``python -m repro.analysis profile`` can report codegen reuse
    # next to the runtime's host-phase/cache meta.
    from repro.distal.codegen import compile_cache_stats

    chosen.meta["compile_cache"] = compile_cache_stats()
    parent = os.path.dirname(trace_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    chosen.save_chrome_trace(trace_path)
    chosen.save(spans_artifact_path(trace_path))
    return fig, chosen


def reduced_size(full_size: int, procs: int, per_proc_floor: int = 512, cap: int = 400_000) -> int:
    """Pick a host-RAM-friendly build size for a full-scale problem.

    The runtime's ``data_scale`` makes up the difference; the build size
    keeps at least ``per_proc_floor`` elements per processor so the
    distribution (and its halos) stays representative.
    """
    return int(min(full_size, max(procs * per_proc_floor, min(cap, full_size))))
