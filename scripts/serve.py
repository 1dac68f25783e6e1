#!/usr/bin/env python
"""Serve bench driver: writes ``artifacts/BENCH_serve.json``.

Runs the seeded load generator against the multi-tenant serving layer
(``repro.harness.serve_bench``): throughput and p50/p99 modeled latency
at several tenant counts, cross-request batching on vs off, result
caching, version churn, chaos isolation and execution-backend
equivalence.  Prints a summary table, writes the payload to
``artifacts/BENCH_serve.json`` (or ``--output``), and exits non-zero
unless:

* batched results are bitwise-identical (sha256 per request) to
  per-request execution, and batching strictly reduced total modeled
  launch overhead;
* at least one scheduling window actually batched (>= 1 multi-RHS
  launch) and the duplicate-heavy scenario hit the result cache;
* cached and fault-injected runs stayed bitwise-identical for
  unaffected tenants;
* the simulated, sync and asyncio backends produced identical bits.

Usage::

    PYTHONPATH=src python scripts/serve.py [--tenants 2 4 8]
        [--requests 24] [--seed 0] [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.harness.serve_bench import run_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed workload for CI (3 tenant counts, 12 requests)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "artifacts" / "BENCH_serve.json",
    )
    args = parser.parse_args(argv)
    tenants = [2, 3, 4] if args.smoke else args.tenants
    requests = 12 if args.smoke else args.requests

    payload = run_all(
        tenant_counts=tenants, requests_per_tenant=requests, seed=args.seed
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"model: {payload['model']['dataset']} nnz={payload['model']['nnz']}")
    print("tenants  requests  throughput      p50          p99      batches  cache-hits")
    for rec in payload["scaling"]:
        print(
            f"{rec['tenants']:>7}  {rec['requests']:>8}  "
            f"{rec['throughput_rps']:>8.0f} r/s  "
            f"{rec['p50_latency_s']*1e3:>7.3f}ms  {rec['p99_latency_s']*1e3:>7.3f}ms  "
            f"{rec['batches']:>7}  {rec['cache_hits']:>10}"
        )
    bat = payload["batching"]
    print(
        f"batching: identical={bat['bitwise_identical']} "
        f"overhead {bat['unbatched']['launch_overhead_s']:.6f}s -> "
        f"{bat['batched']['launch_overhead_s']:.6f}s "
        f"({bat['batched']['launches']} vs {bat['unbatched']['launches']} launches)"
    )
    cac = payload["caching"]
    print(
        f"caching: identical={cac['bitwise_identical']} "
        f"hits={cac['cached']['cache_hits']}/{cac['cached']['requests']}"
    )
    iso = payload["isolation"]
    print(
        f"isolation: others_unperturbed={iso['others_unperturbed']} "
        f"chaotic_faults={iso['chaotic_faults']} "
        f"shared_faults={iso['shared_faults']}"
    )
    print(f"backends: identical={payload['backends']['identical']}")
    for lint in payload["churn"]["lints"]:
        print(f"lint: {lint}")
    print(f"wrote {args.output}")

    failures = []
    if len(payload["scaling"]) < 3:
        failures.append("scaling must cover >= 3 tenant counts")
    for rec in payload["scaling"]:
        if rec["throughput_rps"] <= 0 or rec["p99_latency_s"] <= 0:
            failures.append(
                f"degenerate scaling record at {rec['tenants']} tenants"
            )
    if not bat["bitwise_identical"]:
        failures.append("batched results differ from per-request execution")
    if bat["launch_overhead_reduction"] <= 0:
        failures.append("batching did not reduce modeled launch overhead")
    if bat["batched"]["batches"] < 1:
        failures.append("no multi-RHS launch was ever batched")
    if cac["cached"]["cache_hits"] < 1:
        failures.append("duplicate-heavy workload never hit the result cache")
    if not cac["bitwise_identical"]:
        failures.append("cached results differ from uncached execution")
    if not iso["others_unperturbed"]:
        failures.append("chaos tenant perturbed other tenants' results")
    if not payload["backends"]["identical"]:
        failures.append("execution backends disagree on served bits")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
