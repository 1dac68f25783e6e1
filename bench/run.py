#!/usr/bin/env python3
"""The repository's one benchmark: four workloads, both clocks.

    python3 bench/run.py                       all workloads, untraced
    python3 bench/run.py --trace               the traced pass (per-layer)
    python3 bench/run.py --workload cg_wide --seed 3 --seconds 24 --trace 0
    python3 bench/run.py --smoke               tiny sizes, every check on
    python3 bench/run.py compare A.json B.json
    python3 bench/run.py --selftest

Per workload, PROCESSES fresh single-threaded child processes run one
after another (bench/child.py); each sets up once and then times two
repeats (more when --seconds is above BENCHMARK.json's run_seconds).  An end-to-end value is the median over all samples;
quartiles and the sample count are printed beside it.  Metric names,
units, directions and bounds are the ones in BENCHMARK.json.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

PROCESSES = 5  # fresh children per workload
SMOKE_PROCESSES = 2
MIN_REPEATS = 3  # timed repeats per child at the nominal --seconds
# One BLAS/OpenMP thread and a fixed hash seed in every child: unpinned,
# the multigrid workload burns twice its wall in BLAS threads.
PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Modeled-clock metrics repeat exactly for one seed and one set of
# sizes, so ``compare`` holds them to this relative tolerance then.
EXACT = {"modeled_s": 1e-6, "modeled_p99_ms": 1e-6}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(samples: List[float], unit: str) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def spread(entry: dict) -> float:
    """Interquartile range as a share of the median."""
    return (entry["q3"] - entry["q1"]) / abs(entry["median"]) if entry["median"] else 0.0


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, smoke: bool, extra: List[str]) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)] + extra + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **PINNING},
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: child printed no result") from None


def cross_process_checks(children: List[dict]) -> List[dict]:
    """Same seed, so every process must produce the same bits and the
    same modeled seconds."""
    digests = {c["digest"] for c in children}
    first = children[0]["modeled_s"]
    drift = max(
        abs(a - b) / abs(b)
        for c in children
        for a, b in zip(c["modeled_s"], first)
    )
    return [
        {
            "name": f"solution sha256 identical across {len(children)} processes",
            "passed": len(digests) == 1,
            "detail": f"{len(digests)} distinct",
        },
        {
            "name": f"modeled_s identical across {len(children)} processes",
            "passed": drift <= 1e-9,
            "detail": f"max relative difference {drift:.1e}",
        },
    ]


def repeats_for(seconds: float, smoke: bool) -> int:
    """Repeats per child: a fixed count, so that every child of a run
    ends in the same state (same digest); --seconds scales it."""
    if smoke:
        return MIN_REPEATS
    return max(MIN_REPEATS, int(MIN_REPEATS * seconds / SPEC["run_seconds"]))


def processes_for(smoke: bool) -> int:
    return SMOKE_PROCESSES if smoke else PROCESSES


def tally(children: List[dict], own_checks: List[dict]) -> dict:
    """Operations attempted and failed: the children's own counts plus
    the checks made here in the parent."""
    attempted = sum(c["attempted"] for c in children) + len(own_checks)
    failed = sum(c["failed"] for c in children) + sum(
        not c["passed"] for c in own_checks
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
    }


def run_timed(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    processes = processes_for(smoke)
    repeats = repeats_for(seconds, smoke)
    children = [
        run_child(workload, seed, smoke, ["--repeats", str(repeats)])
        for _ in range(processes)
    ]
    samples = {
        # One sample per repeat ...
        "host_wall_s": [v for c in children for v in c["host_wall_s"]],
        "modeled_s": [v for c in children for v in c["modeled_s"]],
        # ... and one per process.
        "setup_s": [c["setup_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "modeled_p99_ms": [c["modeled_p99_ms"] for c in children],
    }
    if any(c["trace_module_imported"] for c in children):
        raise BenchError("an untraced child imported bench/trace.py")
    across = cross_process_checks(children)
    return {
        "params": children[0]["params"],
        "processes": processes,
        "repeats": repeats,
        "metrics": {
            name: summarize(samples[name], END_TO_END[name]["unit"])
            for name in END_TO_END
        },
        "beside": {
            "modeled_p50_ms": children[0]["modeled_p50_ms"],
            "operations_per_repeat": children[0]["operations_per_repeat"],
            "generate_s": statistics.median(c["generate_s"] for c in children),
            **{f"baseline.{k}": v for k, v in children[-1]["baselines"].items()},
        },
        **tally(children, across),
        "checks": children[-1]["checks"] + across,
        "digest": children[0]["digest"],
    }


def run_traced(workload: str, seed: int, smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    trace_file = OUT / f"trace_{workload}{suffix}.json"
    child = run_child(workload, seed, smoke, [
        "--mode", "trace", "--trace-file", str(trace_file),
    ])
    restored = {
        "name": "every wrap point is the original object after the pass",
        "passed": not child["wrappers_not_restored"],
        "detail": ", ".join(child["wrappers_not_restored"]) or "all restored",
    }
    missing = set(PER_LAYER) - set(child["metrics"])
    if missing:
        raise BenchError(f"traced pass lacks {sorted(missing)}")
    return {
        "params": child["params"],
        "processes": 1,
        "metrics": {
            name: summarize([child["metrics"][name]["value"]], spec["unit"])
            for name, spec in PER_LAYER.items()
        },
        "beside": {
            "untraced_wall_s": child["untraced_wall_s"],
            "traced_wall_s": child["traced_wall_s"],
            "spans_recorded": child["spans_recorded"],
            "trace_file": str(trace_file.relative_to(ROOT)),
        },
        "top_functions": child["functions"][:12],
        **tally([child], [restored]),
        "checks": child["checks"] + [restored],
        "digest": child["digest"],
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def envelope(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "pinning": PINNING,
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": processes_for(args.smoke),
        "repeats": repeats_for(args.seconds, args.smoke),
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_report(name: str, result: dict, traced: bool) -> None:
    print(f"\n== {name}  {result['params']}")
    if traced:
        wall = result["metrics"]["trace.wall_s"]["median"]
        for metric, entry in result["metrics"].items():
            share = (
                f"  {entry['median'] / wall:6.1%} of traced wall"
                if metric.endswith(".self_s") else ""
            )
            print(f"  {metric:46s} {entry['median']:14.6g} {entry['unit']:6s}{share}")
        print("  top functions by self time:")
        for f in result["top_functions"]:
            print(f"    {f['layer']:18s} {f['function']:44s} "
                  f"{f['calls']:8d} calls {f['self_s']:9.4f} s")
    else:
        for metric, e in result["metrics"].items():
            print(f"  {metric:16s} {e['median']:14.6g} {e['unit']:4s} "
                  f"q1 {e['q1']:.6g}  q3 {e['q3']:.6g}  n {e['n']}  "
                  f"spread {spread(e):.2%}")
    for key, value in result["beside"].items():
        print(f"  {key:16s} {value}")
    print(f"  failed_share     {result['failed_share']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for c in result["checks"]:
        print(f"  [{'ok' if c['passed'] else 'FAILED'}] {c['name']}: {c['detail']}")


def contract_line(result: dict) -> str:
    """The one-line JSON object the driver reads."""
    metrics = {
        name: {"value": e["median"], "unit": e["unit"]}
        for name, e in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run(args) -> int:
    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    for name in names:
        if args.trace:
            results[name] = run_traced(name, args.seed, args.smoke)
        else:
            results[name] = run_timed(name, args.seed, args.seconds, args.smoke)
        print_report(name, results[name], bool(args.trace))
    payload = {"envelope": envelope(args), "workloads": results}
    if args.out:
        out = Path(args.out)
    else:
        stem = "trace" if args.trace else "result"
        tag = f"_{args.workload}" if args.workload else ""
        out = OUT / f"{stem}{tag}{'_smoke' if args.smoke else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1))
    print(f"\nwrote {out}")
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        print(contract_line(results[args.workload]))
    return 1 if failed and not args.workload else 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``regressed`` / ``unresolved`` for
    one metric on one workload, B against base A."""
    base = abs(a["median"]) or 1.0
    worse = (b["median"] - a["median"]) / base
    if better == "higher":
        worse = -worse
    lo_a, hi_a = min(a["samples"]), max(a["samples"])
    lo_b, hi_b = min(b["samples"]), max(b["samples"])
    overlap = not (hi_b < lo_a or hi_a < lo_b)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def _cell(entry: dict) -> str:
    return f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}] {entry['n']}"


def compare(path_a: str, path_b: str) -> int:
    A, B = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    same_inputs = all(
        A["envelope"][k] == B["envelope"][k] for k in ("seed", "smoke")
    )
    print(f"A = {path_a} ({A['envelope']['git_sha'][:12]})   "
          f"B = {path_b} ({B['envelope']['git_sha'][:12]})   ratio = B / A")
    print(f"{'workload':16s} {'metric':15s} {'A median [q1, q3] n':38s} "
          f"{'B median [q1, q3] n':38s} {'ratio':>8s}  verdict")
    regressed = 0
    for name in WORKLOADS:
        wa, wb = A["workloads"].get(name), B["workloads"].get(name)
        if not wa or not wb:
            continue
        rows = []
        for metric, spec in END_TO_END.items():
            a, b = wa["metrics"][metric], wb["metrics"][metric]
            bound = spec["bound"]
            if metric in EXACT and same_inputs and wa["params"] == wb["params"]:
                bound = EXACT[metric]
            rows.append((metric, a, b, verdict(a, b, spec["better"], bound)))
        # Any rise in the share of failed operations is a regression.
        fa, fb = (
            {"median": w["failed_share"], "q1": w["failed_share"],
             "q3": w["failed_share"], "n": w["attempted"]}
            for w in (wa, wb)
        )
        rows.append((
            "failed_share", fa, fb,
            "regressed" if fb["median"] > fa["median"]
            else "improved" if fb["median"] < fa["median"] else "unchanged",
        ))
        for metric, a, b, v in rows:
            ratio = f"{b['median'] / a['median']:8.4f}" if a["median"] else f"{'-':>8s}"
            print(f"{name:16s} {metric:15s} {_cell(a):38s} {_cell(b):38s} "
                  f"{ratio}  {v}")
            regressed += v == "regressed"
    print(f"{regressed} regressed")
    return 1 if regressed else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                    help="measuring budget per workload, set-up included")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="1: the traced pass (per-layer metrics)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, < 30 s, every check still on")
    ap.add_argument("--out", help="result file (default bench/out/...)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
