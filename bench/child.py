"""One workload in one fresh process; spawned by bench/run.py.

Prints one JSON object as the last line of stdout.

``--mode timed``: set-up once, then ``--repeats`` timed repeats with
``gc.collect()`` before each, then the correctness checks.  No tracing
code is imported.

``--mode trace``: set-up, then untraced and traced repeats alternating;
for each traced repeat the wrappers of bench/trace.py are installed and
removed again, and the removal is verified at the end.
"""

import time

CHILD_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# Raw spans written per trace file; the per-function table is complete.
SPAN_FILE_LIMIT = 20_000


def timed_repeat(w):
    w.prepare()
    gc.collect()
    t0 = time.perf_counter()
    modeled = w.repeat()
    return time.perf_counter() - t0, modeled


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def finish(w, out):
    """Checks, digest and failure counts shared by both modes."""
    checks = w.checks()
    out["checks"] = [
        {"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks
    ]
    out["attempted"] = len(checks) + w.requests_attempted
    out["failed"] = sum(not ok for _, ok, _ in checks) + w.requests_failed
    out["digest"] = w.digest()
    out["baselines"] = w.baselines
    lat = w.latencies_ms()
    out["modeled_p50_ms"] = percentile(lat, 50)
    out["modeled_p99_ms"] = percentile(lat, 99)
    out["operations_per_repeat"] = int(len(lat))
    return out


def run_timed(w, repeats, generate_s):
    # Child start to first timed repeat, less the benchmark's own input
    # generation: what is left is the program's.
    setup_s = time.perf_counter() - CHILD_START - generate_s
    samples = [timed_repeat(w) for _ in range(repeats)]
    wall, modeled = zip(*samples)
    out = {
        "host_wall_s": wall,
        "modeled_s": modeled,
        "setup_s": setup_s,
        # High-water mark up to the end of the timed repeats (the
        # checks below build host references and would add to it).
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace_module_imported": "trace" in sys.modules,
    }
    return finish(w, out)


def traced_repeat(w, layer_trace):
    """One repeat with every wrap point wrapped, then unwrapped again."""
    tracer = layer_trace.Tracer()
    undo = layer_trace.install(tracer)
    try:
        w.prepare()
        gc.collect()
        snap = w.rt.profiler.snapshot()
        with tracer.root():
            modeled = w.repeat()
        delta = w.rt.profiler.since(snap)
    finally:
        layer_trace.uninstall(undo)
    counts = layer_trace.profiler_counts(w.rt, delta, getattr(w, "svc", None))
    return tracer, tracer.summary(), modeled, counts


def run_traced(w, trace_file):
    import trace as layer_trace

    # Untraced and traced repeats alternate (U T U T U) so that one slow
    # spell on a shared box cannot pass for tracing overhead: the layer
    # numbers come from the faster traced repeat, the overhead compares
    # it with the median untraced one.
    originals = layer_trace.snapshot()
    untraced, traced = [timed_repeat(w)[0]], []
    for _ in range(2):
        traced.append(traced_repeat(w, layer_trace))
        untraced.append(timed_repeat(w)[0])
    not_restored = layer_trace.leftovers(originals)
    tracer, summary, modeled, counts = min(
        traced, key=lambda t: t[1]["wall_s"]
    )
    service = getattr(w, "svc", None)

    untraced_wall = sorted(untraced)[len(untraced) // 2]
    metrics = {}
    for layer in layer_trace.LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.calls"] = (float(entry["calls"]), "count")
    metrics["untraced.self_s"] = (
        summary["layers"][layer_trace.UNTRACED]["self_s"], "s")
    metrics["trace.wall_s"] = (summary["wall_s"], "s")
    metrics["trace.overhead_pct"] = (
        (summary["wall_s"] / untraced_wall - 1.0) * 100.0, "%")
    metrics.update(counts)
    metrics["serve.windows"] = (
        float(sum(
            f["calls"] for f in summary["functions"]
            if f["function"] == "FairShareScheduler.take_window"
        )),
        "count",
    )

    out = {
        "modeled_s": [modeled],
        "untraced_wall_s": untraced,
        "traced_wall_s": [t[1]["wall_s"] for t in traced],
        "wrappers_not_restored": not_restored,
        "functions": summary["functions"],
        "spans_recorded": summary["spans"],
    }
    finish(w, out)
    metrics["serve.modeled_p50_ms"] = (
        out["modeled_p50_ms"] if service is not None else 0.0, "ms")
    metrics["baseline.scipy_cg_s"] = (
        w.baselines.get("scipy_cg_s", 0.0), "s")
    out["metrics"] = {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
    }
    if trace_file:
        path = Path(trace_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": w.name,
                    "seed": w.seed,
                    "params": w.params(),
                    "metrics": out["metrics"],
                    "functions": summary["functions"],
                    "spans": tracer.spans(SPAN_FILE_LIMIT),
                },
                fh,
            )
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("timed", "trace"), default="timed")
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    t0 = time.perf_counter()
    w.generate()
    generate_s = time.perf_counter() - t0
    w.setup()
    if args.mode == "trace":
        out = run_traced(w, args.trace_file)
    else:
        out = run_timed(w, args.repeats, generate_s)
    out.update(
        workload=w.name, seed=w.seed, params=w.params(), generate_s=generate_s,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
