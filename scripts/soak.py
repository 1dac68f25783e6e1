#!/usr/bin/env python
"""Chaos soak driver: writes ``artifacts/BENCH_soak.json``.

Runs the Fig. 9 CG loop against a seeded stream of randomized
multi-fault schedules (``repro.harness.soak_bench``) — concurrent
node+GPU losses, losses during checkpoint drains and journal replays,
fault storms at varying replica counts — prints a per-scenario table,
writes the full payload to ``artifacts/BENCH_soak.json`` (or
``--output``), and exits non-zero if any scenario breaks the soak
invariant:

* every run either completes bitwise-identical to the fault-free
  baseline with a checker-clean event log, or raises a clean
  ``FaultError`` naming what was exhausted — never a silent wrong
  answer (and never any other exception);
* the pinned ``replicas=2`` node-0-loss scenario *completes* — losing
  the primary checkpoint store is survivable once replicated.

Usage::

    PYTHONPATH=src python scripts/soak.py [--scenarios 22] [--seed 0]
                                          [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.soak_bench import run_soak


def format_scenario(rec: dict) -> str:
    losses = ", ".join(
        f"{l['kind']}:{l['target']}@{l['at']:.4f}" for l in rec["losses"]
    )
    head = (
        f"{rec['name']:<24} replicas={rec['replicas']} "
        f"ckpt={rec['checkpoint_every']:<2} losses=[{losses}]"
    )
    if rec["outcome"] == "completed":
        tail = (
            f"completed bitwise={rec['bitwise_identical']} "
            f"clean={rec['checker_clean']} "
            f"recoveries={rec['recoveries']} "
            f"replayed={rec['tasks_reexecuted']} "
            f"det={rec['detection_seconds']:.2e}s "
            f"overhead={rec['overhead_ratio']:.2f}x"
        )
    else:
        tail = f"{rec['outcome']}: {rec['error']}"
    mark = "ok " if rec["invariant_ok"] else "BAD"
    return f"  {mark} {head}\n        -> {tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=int, default=22)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_soak.json",
    )
    args = parser.parse_args(argv)

    payload = run_soak(scenarios=args.scenarios, seed=args.seed)
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
    for rec in payload["scenarios"]:
        print(format_scenario(rec))
        if not rec["invariant_ok"]:
            kind = (
                "silent corruption"
                if rec.get("silent_corruption")
                else rec["outcome"]
            )
            failures.append(f"{rec['name']}: soak invariant broken ({kind})")
    pinned = payload["scenarios"][0]
    if pinned["outcome"] != "completed" or not pinned.get("bitwise_identical"):
        failures.append(
            "pinned node0-replicas2 scenario did not complete bitwise-"
            "identical: replicated stores must survive node-0 loss"
        )
    s = payload["summary"]
    print(
        f"summary: {s['scenarios']} scenarios, {s['completed']} completed "
        f"({s['survived_with_faults']} with faults injected), "
        f"{s['fault_errors']} clean fault-errors, "
        f"{s['silent_corruptions']} silent corruptions, "
        f"{s['crashes']} crashes"
    )
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
