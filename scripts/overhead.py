#!/usr/bin/env python
"""Host-runtime scale probe: writes ``artifacts/BENCH_runtime_overhead.json``.

Runs ``repro.harness.overhead_bench``: the Fig. 9 CG inner loop at
summit:64 and summit:1024 simulated GPUs, in host wall-clock seconds
per 1 000 task launches, with the profiler's host phases and the
batched-write / solve-memo counters.  Prints a summary table and writes
the full payload to ``artifacts/BENCH_runtime_overhead.json`` (or
``--output``).  A probe, not a gate: it enforces nothing — performance
claims go through ``bench/run.py``.

Usage::

    PYTHONPATH=src python scripts/overhead.py [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.overhead_bench import run_all


def format_scale(key: str, run: dict) -> str:
    lines = [
        f"{key} ({run['tasks_launched']} launches, "
        f"{run['iters']} CG iterations):",
        f"  host s / 1k launches: {run['host_s_per_1k_launches']:.4f}s",
        f"  host wall clock:      {run['host_wall_clock_s']:.3f}s",
        f"  modeled time:         {run['modeled_time_s']:.6f}s",
    ]
    phases = run["host_phases_s"]
    if phases:
        lines.append(
            "  host phases:          "
            + ", ".join(
                f"{k} {v:.4f}s"
                for k, v in sorted(phases.items(), key=lambda kv: -kv[1])
            )
        )
    counters = run["fastpath_counters"]
    if counters:
        lines.append(
            "  counters:             "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_runtime_overhead.json",
    )
    args = parser.parse_args(argv)

    payload = run_all()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    for key, run in payload["scales"].items():
        print(format_scale(key, run))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
