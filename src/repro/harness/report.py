"""Regenerate every paper artifact and write EXPERIMENTS.md.

Usage::

    python -m repro.harness.report            # full column sets (~10 min)
    python -m repro.harness.report --fast     # reduced columns (~2 min)

This is the reproduction's equivalent of the artifact's
``scripts/summit/run_all.sh`` + ``scripts/plot/plot.py``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.harness.config import WEAK_SCALING_COLUMNS
from repro.harness.figures import FigureResult

FAST_COLUMNS = [(1, 1), (1, 3), (2, 6), (8, 24), (64, 192)]
FAST_QUANTUM = [1, 2, 4, 16, 64]

PAPER_EXPECTATIONS = {
    "Figure 8": [
        "All distributed systems weak-scale ~flat (trivially parallel).",
        "SciPy is flat and lowest; Legate-CPU is multi-threaded and far above it.",
        "Legate-GPU sits slightly below CuPy and PETSc-GPU (local reshape cost).",
    ],
    "Figure 9": [
        "Legate-GPU ~85% of PETSc-GPU at 1 GPU; ~65% at 192 GPUs.",
        "Legate's falloff appears from ~32 nodes (allreduce overheads).",
        "PETSc weak-scales nearly perfectly, dipping slightly at 192 GPUs.",
        "Legate-CPU >> SciPy; PETSc-CPU slightly ahead of Legate-CPU.",
    ],
    "Figure 10": [
        "CuPy ~1.3x Legate-GPU at 1 GPU (small V-cycle tasks expose overhead).",
        "Legate-GPU weak-scales well initially, then degrades.",
        "Legate-CPU significantly outperforms SciPy with good weak scaling.",
    ],
    "Figure 11": [
        "CuPy ~1.4x Legate-GPU at 1 GPU.",
        "GPUs >> CPUs at 1-4 processors (NVLink).",
        "GPU throughput sinks to/below CPU at 16 processors (NIC per byte).",
        "64-GPU point runs out of framebuffer memory.",
        "Weak-scaling efficiency degrades (near-all-to-all communication).",
    ],
    "Figure 12": [
        "CuPy ~2.8x Legate on ML-10M (1 GPU each).",
        "CuPy fits ML-25M but at ~half the throughput of Legate on 2 GPUs.",
        "CuPy OOMs on ML-50M/100M; Legate scales by adding GPUs.",
        "Legate's minimum resources grow with the dataset (1/2/6/12 GPUs).",
    ],
}


def run_all(fast: bool = False, only: Optional[List[str]] = None) -> List[FigureResult]:
    """Run every figure experiment; reduced columns when fast=True."""
    from repro.harness.experiments import (
        fig8_spmv,
        fig9_cg,
        fig10_gmg,
        fig11_quantum,
        fig12_matfact,
    )

    columns = FAST_COLUMNS if fast else WEAK_SCALING_COLUMNS
    jobs = {
        "fig8": lambda: fig8_spmv.run(columns=columns),
        "fig9": lambda: fig9_cg.run(columns=columns),
        "fig10": lambda: fig10_gmg.run(columns=columns),
        "fig11": lambda: fig11_quantum.run(
            proc_counts=FAST_QUANTUM if fast else None
        ),
        "fig12": lambda: fig12_matfact.run(),
    }
    results = []
    for name, job in jobs.items():
        if only and name not in only:
            continue
        start = time.time()
        print(f"[report] running {name}...", file=sys.stderr, flush=True)
        result = job()
        print(
            f"[report] {name} done in {time.time() - start:.1f}s",
            file=sys.stderr,
            flush=True,
        )
        results.append(result)
    return results


KNOWN_DEVIATIONS = [
    "Absolute throughputs come from the roofline machine model, not "
    "Summit; only relative shapes are claimed.",
    "Fig. 9: Legate/PETSc = 0.84 at 1 GPU and 0.72 at 192 GPUs vs the "
    "paper's 0.85/0.65 (0.85/0.72 while a solve's set-up was timed as "
    "iterations: each cell of Figs. 9 and 10 is now a warm "
    "`maxiter = iters` solve less a `maxiter = 0` one, on every system, "
    "which moved Fig. 9's cells 3-4 % and Fig. 10's 22 % up; "
    "0.85/0.75 while both sides' CG computed a zero "
    "start's residual with an SpMV and `cg` waited on each `p·q` "
    "breakdown test; 0.83/0.62 while `cg` waited on each convergence "
    "check before issuing the iteration's SpMV); Legate's efficiency "
    "declines slightly more gradually than the paper's sharp knee at 32 "
    "nodes.  The ratio at 192 GPUs was 0.66 while an inter-node copy "
    "waited for the busier of its two NICs and held the idle one: one "
    "SpMV's halo copies then ran one after another across all 32 nodes, "
    "so part of the earlier match with the paper came from that convoy. "
    "Copies now take the earliest window idle on both NICs (Legate-GPU "
    "47.4 -> 53.9 it/s; the PETSc side books its messages by the same "
    "rule: PETSc-GPU unchanged, PETSc-CPU 5.61 -> 5.65).",
    "Fig. 10/11: the CuPy single-GPU advantage measures 1.16x (Fig. 10) "
    "and 1.4x (Fig. 11) vs the paper's 1.3x/1.4x; per-GPU problem sizes "
    "were calibrated to put the workloads in the same overhead-vs-kernel "
    "regime.  Fig. 10 measured 1.22 while `cg` waited on each "
    "iteration's convergence test before issuing its body: the host now "
    "issues the body first and reads the test one body late, which the "
    "V-cycle's small coarse CG gains most from, and Legate more than "
    "CuPy (Legate-GPU 33.9 -> 35.5 it/s, CuPy 41.2 unchanged, before "
    "the set-up left the timing).  It measured 1.34 while `cg` blocked on each "
    "iteration's `p·q` breakdown test right after issuing its "
    "allreduce and computed a zero start's residual with an SpMV: "
    "without them the V-cycle's small tasks and allreduces run under "
    "issue time on both sides, and Legate, whose issue time is the "
    "larger, gains more (29.5 -> 33.9 it/s, CuPy 39.5 -> 41.2).",
    "Fig. 11: CPU weak-scaling degrades more steeply than the paper's "
    "curve: Legate-CPU falls 10.3 -> 0.056 it/s over 1 -> 64 sockets "
    "(10.3 -> 0.035 while the SpMV's cast of the Hamiltonian's values "
    "was cut in even tiles, not at the rows of its `pos` tiles) -- our "
    "bounding-rect halos fetch nearly the whole vector; the paper "
    "reports tens-to-hundreds of MB per peer.",
    "Fig. 12: minimum resources measure 1/2/3/6 GPUs vs the paper's "
    "1/2/6/12 — our even row-wise partitioning packs the expanded "
    "datasets roughly 2x tighter than the authors' configuration; the "
    "qualitative claim (CuPy stops at 25M, Legate scales by adding "
    "GPUs, monotone growth) holds.",
    "Fig. 12: Legate's ML-25M advantage over CuPy measures ~5x vs the "
    "paper's ~2x (the memory-pressure model is coarse).",
]


# What the published system names as future work and this reproduction
# implements; the figures above are regenerated without it
# (harness.config.paper_legate).
BEYOND_THE_PAPER = [
    "Fig. 10, single GPU: §6.1 blames Legate's loss to CuPy on per-task "
    "launch overhead and predicts that task fusion and dynamic tracing "
    "close it.  Measured CuPy/Legate-GPU on the Fig. 10 point "
    "(`fig10_gmg._legate_gmg`, 1 GPU): 1.16 under `paper_legate` "
    "(43.5 vs 50.3 it/s, the published shape; 1.16, 35.5 vs 41.2, "
    "while a solve's set-up was timed as iterations; 1.22, 33.9 vs "
    "41.2, before `cg` read its convergence test one body late; "
    "1.34, 29.5 vs 39.5, "
    "before `cg` read its `p·q` breakdown test one body late and a zero "
    "start stopped computing a residual; 1.35 and 29.3 before a "
    "one-shard launch became a single task, 1.37, 28.5 vs 39.2, "
    "before `cg` issued each iteration's SpMV ahead of its convergence "
    "wait, which both sides run), 0.95 with the deferred fusion window "
    "alone (`legate(trace_replay_fraction=1.0)`, 53.65 it/s; 0.94 and "
    "43.97 while the set-up was timed, 0.95 and 43.39 before the "
    "convergence test moved and one-color reductions fed their "
    "consumers inside the shard, 1.00 and "
    "39.4 before the breakdown test moved, 1.03 and "
    "38.5 before one-shard launches, 1.05 and 37.4 before the SpMV "
    "moved ahead of the wait, 1.06 and 37.1 before generated kernels "
    "joined the window, 1.13 and 34.6 before scalar reductions did), "
    "1.04 with replays alone (`paper_legate(trace_replay_fraction=0.15)`"
    ", 48.2 it/s; 39.49 while the set-up was timed, as before the "
    "convergence test moved; 1.05 and 37.79 before the breakdown test "
    "moved, "
    "37.16 before one-shard launches, 37.10 with the "
    "trace scopes `cg` and the V-cycle used to open, 1.08 and 36.4 "
    "before that) and 0.95 under "
    "`RuntimeConfig.legate()` defaults — fusion plus the launches the "
    "runtime finds repeated itself, replayed launches charged 0.15 of "
    "the launch overhead (54.21 it/s, 0.93; 44.46 while the set-up was "
    "timed, 43.54 before the convergence test moved, 41.50 before the "
    "breakdown test moved, 40.52 before one-shard launches, "
    "40.47 with the scopes, 40.3 before that, 39.9 before the SpMVs "
    "joined): the gap closes, as predicted.  A one-shard launch is a "
    "single task: its scalar folds pay no allreduce charge, and at one "
    "color fusion rule 2 lets a group read through an image what it "
    "wrote through a tile, and rule 5 lets a reduction's consumer run "
    "in the reduction's own task, which resolves the future from its "
    "one partial.  "
    "When the V-cycle's SpMVs joined the window "
    "the two fusion rows were expected to rise and the `paper_legate` "
    "rows to stay put (they pin fusion off); they rose 0.9 % and 0.8 %, "
    "because at this point's size the kernels, not the launches, "
    "dominate a V-cycle.  `benchmarks/test_tracing.py` shows the same "
    "on the GBS8 quantum step (1.11x; an earlier 2.1x no longer held "
    "before automatic tracing either).",
    "Fig. 9, 192 GPUs: the paper blames the CG falloff at scale on "
    "Legion's scalar-allreduce cost.  Under `RuntimeConfig.legate()` "
    "defaults a CG iteration issues 2 allreduces where it issued 3 — "
    "`norm(r)` joins the fused group of `vdot(r, z)` and shares its "
    "tree — and none of them waits behind the `p` update: "
    "`fig9_cg._legate_cg` at 192 GPUs 46.9 -> 48.5 it/s (1 GPU: 93.5 "
    "-> 93.9; `paper_legate`, which pins fusion off, 44.7 before and "
    "after).  At the paper's problem size the kernels dominate the "
    "iteration, so the gain is small there; where launches are small "
    "it is not (`benchmarks/test_reduction_fusion.py`: CG 1.45-1.56x, "
    "two-level GMG 1.44-1.57x at 6 and 48 GPUs against `fusion=False`; "
    "`gmg_small_tasks` of `bench/`: modeled seconds -30 %).  Since "
    "`cg` issues each iteration's SpMV before it waits on the previous "
    "body's `norm(r)`, that allreduce runs under the SpMV instead of "
    "ahead of it: 48.5 -> 49.9 it/s at 192 GPUs under `legate()` and "
    "44.7 -> 47.4 under `paper_legate` (1 GPU: 94.0 -> 94.4 and 86.3 "
    "-> 87.6; `cg_wide` of `bench/`, one iteration on 448 GPUs: modeled "
    "seconds -40 %).  Since `cg` reads its `p·q == 0` breakdown test "
    "one body late (keeping the `x` from before the body to return if "
    "it trips), the host no longer waits on the `p·q` allreduce it has "
    "just issued, and since a zero start takes `r = b` without an SpMV "
    "(PETSc's side does the same), a solve's set-up is one SpMV, its "
    "halo exchange and one allreduce shorter: 57.56 -> 59.71 it/s at "
    "192 GPUs under `legate()` and 53.88 -> 57.59 under `paper_legate` "
    "(1 GPU: 93.3 -> 101.9 and 87.9 -> 96.6; `gmg_small_tasks` of "
    "`bench/`: modeled seconds -14.5 %, `cg_wide` -0.65 %).  Since "
    "`cg` issues each body before the convergence test that reads the "
    "last one, the host waits on no allreduce it has just issued: "
    "57.56 -> 60.22 it/s at 192 GPUs under `legate()`, `paper_legate` "
    "unchanged at 57.59 (1 GPU: 101.9 -> 102.0 and 96.6; "
    "`gmg_small_tasks`, whose one-GPU coarse CG now runs one fused task "
    "per iteration: modeled seconds -19 %, `cg_wide` unchanged).  "
    "Timed without the solve's set-up: 64.95 and 59.77 it/s at 192 "
    "GPUs, 109.7 and 100.1 at 1 GPU.",
    "Fig. 10 and Legate's minimum chunk: the V-cycle runs its coarse CG "
    "on `Runtime.colors_for(n_coarse)` colors, Legate Core's rule on the "
    "modeled volume (`LEGATE_MIN_GPU_CHUNK` = 2^20 elements, "
    "`LEGATE_MIN_CPU_CHUNK` = 2^14).  Fig. 10 builds a 317 x 317 grid at "
    "every column and magnifies it to the column's rows, so its 158 x 158 "
    "coarse grid models 24 964 / 100 489 of them: 1.99 M rows per GPU "
    "(1.90 chunks) and 5.96 M per socket (364 chunks).  The ceiling is at "
    "least the processor count at every column, the coarse CG keeps every "
    "processor, and the figure is the same with or without the rule.  "
    "`gmg_small_tasks` of `bench/` (6 GPUs, a coarse grid of 8.6-10 k "
    "rows) runs it on one GPU: modeled seconds 0.0639 -> 0.0197.",
]


def write_experiments_md(results: List[FigureResult], path: str = "EXPERIMENTS.md") -> None:
    """Write EXPERIMENTS.md: tables, checks, deviations."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated with `python -m repro.harness.report`.  Numbers are",
        "*simulated* throughputs on the Summit-like machine model (see",
        "DESIGN.md): the claim checked here is the paper's **shape** —",
        "who wins, by roughly what factor, and where crossovers fall —",
        "not Summit's absolute numbers.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.figure}: {result.title}")
        lines.append("")
        lines.append("Paper's reported behaviour:")
        for expectation in PAPER_EXPECTATIONS.get(result.figure, []):
            lines.append(f"- {expectation}")
        lines.append("")
        lines.append("Measured (simulated) series:")
        lines.append("")
        lines.append("```")
        lines.append(result.format_table())
        lines.append("```")
        lines.append("")
        for check in shape_checks(result):
            lines.append(f"- {check}")
        lines.append("")
    lines.append("## Known deviations from the paper")
    lines.append("")
    for item in KNOWN_DEVIATIONS:
        lines.append(f"- {item}")
    lines.append("")
    lines.append("## Beyond the paper")
    lines.append("")
    for item in BEYOND_THE_PAPER:
        lines.append(f"- {item}")
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"[report] wrote {path}", file=sys.stderr)


def shape_checks(result: FigureResult) -> List[str]:
    """Human-readable pass/fail lines for the paper's shape claims."""
    checks: List[str] = []

    def check(label: str, ok: bool) -> None:
        checks.append(f"{'PASS' if ok else 'MISS'}: {label}")

    s = result.series
    if result.figure == "Figure 8":
        lg = s["Legate-GPU"]
        check("Legate-GPU weak-scales flat (last >= 0.9x first)",
              lg.last() >= 0.9 * lg.first())
        check("SciPy flat and lowest",
              s["SciPy"].last() == s["SciPy"].first()
              and s["SciPy"].first() < s["Legate-CPU"].first())
        check("Legate-GPU slightly below CuPy",
              0.7 * s["CuPy (1 GPU)"].first() < lg.first() < s["CuPy (1 GPU)"].first())
    elif result.figure == "Figure 9":
        r1 = result.ratio("Legate-GPU", "PETSc-GPU", 1)
        rN = result.ratio("Legate-GPU", "PETSc-GPU", s["Legate-GPU"].points[-1][0])
        check(f"Legate/PETSc ~0.85 at 1 GPU (measured {r1:.2f})",
              0.75 <= r1 <= 0.95)
        check(f"Legate/PETSc ~0.65 at scale (measured {rN:.2f})",
              0.5 <= rN <= 0.8)
        check("Legate-CPU >> SciPy (>4x)",
              s["Legate-CPU"].first() > 4 * s["SciPy"].first())
        check("PETSc-CPU slightly ahead of Legate-CPU",
              1.0 < s["PETSc-CPU"].first() / s["Legate-CPU"].first() < 1.6)
    elif result.figure == "Figure 10":
        ratio = s["CuPy (1 GPU)"].first() / s["Legate-GPU"].first()
        check(f"CuPy ~1.3x Legate-GPU at 1 GPU (measured {ratio:.2f})",
              1.1 <= ratio <= 1.8)
        check("Legate-CPU >> SciPy (>4x)",
              s["Legate-CPU"].first() > 4 * s["SciPy"].first())
        lg = s["Legate-GPU"]
        check("Legate-GPU efficiency degrades at scale",
              lg.last() < lg.at(3) if lg.at(3) else True)
    elif result.figure == "Figure 11":
        ratio = s["CuPy (1 GPU)"].first() / s["Legate-GPU"].first()
        check(f"CuPy ~1.4x Legate-GPU at 1 GPU (measured {ratio:.2f})",
              1.1 <= ratio <= 2.0)
        gpu4 = s["Legate-GPU"].at(4)
        cpu4 = s["Legate-CPU"].at(4)
        if gpu4 and cpu4:
            check("GPUs >> CPUs at 4 processors (NVLink)", gpu4 > 1.5 * cpu4)
        gpu16 = s["Legate-GPU"].at(16)
        cpu16 = s["Legate-CPU"].at(16)
        if gpu16 and cpu16:
            check("GPU sinks to/below CPU at 16 processors", gpu16 <= 1.25 * cpu16)
        check("64-GPU point out of memory",
              s["Legate-GPU"].points[-1][1] is None)
    elif result.figure == "Figure 12":
        cupy = s["CuPy (samples/s)"]
        legate = s["Legate Sparse (samples/s)"]
        res = s["Legate min resources (GPUs)"]
        r10 = cupy.at(0) / legate.at(0) if (cupy.at(0) and legate.at(0)) else None
        if r10:
            check(f"CuPy ~2.8x Legate on ML-10M (measured {r10:.2f})",
                  1.8 <= r10 <= 4.0)
        if cupy.at(1) and legate.at(1):
            check("Legate beats CuPy on ML-25M",
                  legate.at(1) > cupy.at(1))
        check("CuPy OOM on ML-50M and ML-100M",
              cupy.at(2) is None and cupy.at(3) is None)
        vals = [v for _, v in res.points]
        check("Legate min resources grow monotonically",
              all(a <= b for a, b in zip(vals, vals[1:]) if a and b))
    return checks


def main():  # pragma: no cover - CLI entry
    """CLI: run experiments, print tables/plots, write the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset, e.g. --only fig8 fig12")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII log-log charts")
    args = parser.parse_args()
    results = run_all(fast=args.fast, only=args.only)
    for result in results:
        print(result.format_table())
        for check in shape_checks(result):
            print("  " + check)
        if args.plot:
            from repro.harness.plotting import ascii_plot

            print()
            print(ascii_plot(result))
        print()
    write_experiments_md(results, args.out)


if __name__ == "__main__":  # pragma: no cover
    main()
