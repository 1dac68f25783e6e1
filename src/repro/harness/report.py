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
    "Fig. 9: Legate/PETSc = 0.83 at 1 GPU and 0.62 at 192 GPUs vs the "
    "paper's 0.85/0.65; Legate's efficiency declines slightly more "
    "gradually than the paper's sharp knee at 32 nodes.",
    "Fig. 10/11: the CuPy single-GPU advantage measures 1.3-1.4x vs the "
    "paper's 1.3x/1.4x; per-GPU problem sizes were calibrated to put the "
    "workloads in the same overhead-vs-kernel regime.",
    "Fig. 11: CPU weak-scaling degrades more steeply than the paper's "
    "curve (our bounding-rect halos fetch nearly the whole vector; the "
    "paper reports tens-to-hundreds of MB per peer).",
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
    "(`fig10_gmg._legate_gmg`, 1 GPU): 1.37 under `paper_legate` "
    "(28.5 vs 39.2 it/s, the published shape), 1.06 with the deferred "
    "fusion window alone (`legate(trace_replay_fraction=1.0)`, 37.1 "
    "it/s; 1.13 and 34.6 before scalar reductions joined the window), "
    "1.08 with traces alone "
    "(`paper_legate(trace_replay_fraction=0.15)`, 36.4 it/s) and 0.98 "
    "under `RuntimeConfig.legate()` defaults — fusion plus the traces "
    "`cg` and the V-cycle open themselves, replayed launches charged "
    "0.15 of the launch overhead (39.9 it/s): the gap closes, as "
    "predicted.  `benchmarks/test_tracing.py` shows the same on the "
    "GBS8 quantum step (2.1x).",
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
    "`gmg_small_tasks` of `bench/`: modeled seconds -30 %).",
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
