#!/usr/bin/env python
"""Chaos benchmark driver: writes ``artifacts/BENCH_chaos.json``.

Runs the Fig. 9 CG loop fault-free and under three deterministic fault
schedules — transient copy faults, flaky allocations, and a whole-GPU
loss recovered by checkpoint/journal replay
(``repro.harness.chaos_bench``) — prints a summary table, writes the
full payload to ``artifacts/BENCH_chaos.json`` (or ``--output``), and
exits non-zero if any acceptance bar fails:

* at least one fault injected per schedule (the schedule actually bit);
* bitwise-identical solution vector vs. the fault-free baseline;
* zero offline-checker violations in the recorded event log;
* modeled solve time within ``MAX_OVERHEAD_RATIO`` of the baseline.

Usage::

    PYTHONPATH=src python scripts/chaos.py [--procs 2] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.chaos_bench import MAX_OVERHEAD_RATIO, run_all


def format_run(name: str, run: dict) -> str:
    faults = ", ".join(f"{k}={v}" for k, v in run["faults_injected"].items()) or "none"
    return "\n".join(
        [
            f"{name}:",
            f"  faults injected: {faults}",
            f"  retries:         {run['retries']} "
            f"({run['backoff_seconds']:.6f}s modeled backoff)",
            f"  checkpoints:     {run['checkpoints']} "
            f"({run['checkpoint_bytes']:,}B), "
            f"{run['tasks_reexecuted']} tasks replayed",
            f"  modeled time:    {run['modeled_time_s']:.6f}s "
            f"({run['overhead_ratio']:.3f}x baseline)",
            f"  bitwise match:   {run['bitwise_identical']}",
            f"  checker clean:   {run['checker_clean']}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_chaos.json",
    )
    args = parser.parse_args(argv)

    payload = run_all(procs=args.procs)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    baseline = payload["baseline"]
    print(
        f"baseline: {baseline['modeled_time_s']:.6f}s modeled, "
        f"sha256 {baseline['solution_sha256'][:16]}…, "
        f"{len(baseline['checker_violations'])} checker violations"
    )
    failures = []
    if baseline["checker_violations"]:
        failures.append("baseline: checker violations in a fault-free run")
    for name, run in payload["scenarios"].items():
        print(format_run(name, run))
        if not run["faults_injected"]:
            failures.append(f"{name}: schedule injected no faults")
        if not run["bitwise_identical"]:
            failures.append(f"{name}: solution differs from fault-free baseline")
        if not run["checker_clean"]:
            failures.append(
                f"{name}: {len(run['checker_violations'])} checker violations"
            )
        if run["overhead_ratio"] > MAX_OVERHEAD_RATIO:
            failures.append(
                f"{name}: overhead {run['overhead_ratio']:.2f}x "
                f"(> {MAX_OVERHEAD_RATIO:.1f}x)"
            )
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
