#!/usr/bin/env python
"""Fusion benchmark driver: writes ``artifacts/BENCH_fusion.json``.

Runs the Fig. 9 CG and Fig. 10 GMG solver loops in three modes —
merged (window + kernel fusion), replay (window only) and unfused
(``repro.harness.fusion_bench``) — prints a summary table, writes the
full payload to ``artifacts/BENCH_fusion.json`` (or ``--output``), and
exits non-zero if any acceptance bar fails:

* >= 30 % fewer launches with fusion on, per workload;
* strictly lower modeled issue-clock launch overhead;
* at least one merge-safe group executed as a single loop nest, with
  merged modeled compute strictly below issue-order replay;
* bitwise-identical solution vectors across all three modes.

Usage::

    PYTHONPATH=src python scripts/bench.py [--procs 2] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.fusion_bench import run_all

MIN_LAUNCHES_SAVED = 0.30


def format_pair(key: str, pair: dict) -> str:
    fused, replay, unfused = pair["fused"], pair["replay"], pair["unfused"]
    return "\n".join(
        [
            f"{key}:",
            f"  launches:        {unfused['tasks_launched']} -> "
            f"{fused['tasks_launched']} "
            f"({100 * pair['launches_saved_fraction']:.1f}% saved)",
            f"  launch overhead: {unfused['modeled_launch_overhead_s']:.6f}s -> "
            f"{fused['modeled_launch_overhead_s']:.6f}s (modeled)",
            f"  modeled time:    {unfused['modeled_time_s']:.6f}s -> "
            f"{fused['modeled_time_s']:.6f}s",
            f"  modeled compute: {replay['modeled_compute_s']:.6f}s (replay) "
            f"-> {fused['modeled_compute_s']:.6f}s (merged, "
            f"x{pair['compute_ratio']:.3f})",
            f"  fused groups:    {fused['fused_tasks']} "
            f"({fused['tasks_fused_away']} launches merged, "
            f"{fused['regions_elided']} temporaries elided)",
            f"  kernel fusion:   {fused['kernel_merges']} merged loop nests "
            f"({fused['nest_temps_eliminated']} temporaries never "
            f"materialized)",
            f"  host wall clock: unfused {unfused['host_wall_clock_s']:.3f}s, "
            f"replay {replay['host_wall_clock_s']:.3f}s, "
            f"merged {fused['host_wall_clock_s']:.3f}s",
            f"  bitwise match:   {pair['bitwise_identical']}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_fusion.json",
    )
    args = parser.parse_args(argv)

    payload = run_all(procs=args.procs)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    failures = []
    for key in ("fig9_cg", "fig10_gmg"):
        pair = payload[key]
        print(format_pair(key, pair))
        if pair["launches_saved_fraction"] < MIN_LAUNCHES_SAVED:
            failures.append(
                f"{key}: only {100 * pair['launches_saved_fraction']:.1f}% "
                f"launches saved (< {100 * MIN_LAUNCHES_SAVED:.0f}%)"
            )
        if pair["overhead_ratio"] >= 1.0:
            failures.append(f"{key}: launch overhead did not drop")
        if pair["fused"]["kernel_merges"] < 1:
            failures.append(f"{key}: no merge-safe group executed as a nest")
        if pair["compute_ratio"] >= 1.0:
            failures.append(
                f"{key}: merged modeled compute did not drop below replay"
            )
        if not pair["bitwise_identical"]:
            failures.append(f"{key}: fused result is not bitwise identical")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
