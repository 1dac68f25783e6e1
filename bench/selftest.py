"""``python3 bench/run.py --selftest``: the harness checks itself.

Smoke-sized children only; takes a few seconds and writes nothing
outside bench/out/.
"""

from __future__ import annotations

import json

import numpy as np

import inputs
import run
import trace as layer_trace


def check_self_time_arithmetic():
    """A hand-built tree:

        root(untraced) 0..10
          a(core) 1..9
            b(numeric) 2..4
            c(numeric) 5..8
              d(core) 6..7
          e(core) 9..10
    """
    parent = np.array([-1, 0, 1, 1, 3, 0])
    start = np.array([0.0, 1, 2, 5, 6, 9])
    end = np.array([10.0, 9, 4, 8, 7, 10])
    own = layer_trace.self_times(parent, start, end)
    expected = [1.0, 3.0, 2.0, 2.0, 1.0, 1.0]
    ok = np.allclose(own, expected) and np.isclose(own.sum(), 10.0)

    # A fake clock that ticks once per open/close: root 0..7,
    # outer 1..6, inner 2..3 and 4..5.
    ticks = iter(range(8))
    tracer = layer_trace.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "numeric", "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "core", "outer")
    with tracer.root():
        outer()
    layers = tracer.summary()["layers"]
    ok = ok and (
        layers["core"] == {"self_s": 3.0, "calls": 1}
        and layers["numeric"] == {"self_s": 2.0, "calls": 2}
        and layers["untraced"] == {"self_s": 2.0, "calls": 1}
    )
    return ok, f"self times {own.tolist()}, wrapped tree {layers['core']}"


def check_traced_pass(workload):
    child = run.run_child(workload, 0, True, ["--mode", "trace"])
    m = {k: v["value"] for k, v in child["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in layer_trace.LAYERS)
    total = layers + m["untraced.self_s"]
    wall = m["trace.wall_s"]
    restored = not child["wrappers_not_restored"]
    sums = abs(total - wall) <= 0.01 * wall
    names = set(child["metrics"]) == set(run.PER_LAYER)
    return (
        restored and sums and names,
        f"{workload}: wrap points restored {restored}; layers + untraced "
        f"{total:.6f} s vs traced wall {wall:.6f} s; metric names match "
        f"BENCHMARK.json {names}",
    )


def check_untraced_child():
    child = run.run_child("cg_wide", 0, True, ["--repeats", "2"])
    clean = not child["trace_module_imported"]
    return clean, f"bench/trace.py imported in an untraced child: {not clean}"


def check_serve_generator():
    def digest(seed):
        return inputs.serve_traffic(seed, 64, 32, 400, 300, 1e4, 8).digest()

    same = digest(7) == digest(7)
    differs = digest(7) != digest(8)
    return same and differs, f"seed 7 twice equal {same}, seed 8 differs {differs}"


def check_contract_names():
    result = run.run_timed("matfact_sgd", 0, 0.0, True)
    line = json.loads(run.contract_line(result))
    ok = (
        set(line) == {"correct", "attempted", "failed", "metrics"}
        and set(line["metrics"]) == set(run.END_TO_END)
        and all(v["value"] != 0 for v in line["metrics"].values())
        and line["attempted"] >= 1
    )
    return ok, f"end-to-end metrics {sorted(line['metrics'])}"


def check_verdicts():
    def entry(samples):
        return run.summarize(samples, "s")

    base = entry([1.00, 1.01, 0.99, 1.00, 1.02])
    cases = {
        "unchanged": entry([1.01, 1.00, 1.02, 0.99, 1.01]),
        "regressed": entry([1.20, 1.21, 1.19, 1.22, 1.20]),
        "improved": entry([0.80, 0.81, 0.79, 0.80, 0.82]),
        "unresolved": entry([0.70, 1.40, 0.90, 1.30, 1.00]),
    }
    got = {
        want: run.verdict(base, b, "lower", 0.10) for want, b in cases.items()
    }
    # A noisy run that is better on every sample is still a win.
    got["improved (noisy, separated)"] = run.verdict(
        base, entry([0.50, 0.90, 0.60, 0.80, 0.70]), "lower", 0.10)
    ok = all(v == k.split(" ")[0] for k, v in got.items())
    return ok, str(got)


CHECKS = [
    ("self-time arithmetic on a synthetic span tree", check_self_time_arithmetic),
    ("traced pass: wrappers removed, layers sum to wall (cg_wide)",
     lambda: check_traced_pass("cg_wide")),
    ("traced pass: wrappers removed, layers sum to wall (serve_mixed)",
     lambda: check_traced_pass("serve_mixed")),
    ("untraced children never import the tracer", check_untraced_child),
    ("serve generator is a pure function of the seed", check_serve_generator),
    ("driver line carries exactly BENCHMARK.json's end-to-end metrics",
     check_contract_names),
    ("compare verdicts", check_verdicts),
]


def main() -> int:
    failed = 0
    for name, fn in CHECKS:
        ok, detail = fn()
        failed += not ok
        print(f"[{'ok' if ok else 'FAILED'}] {name}\n       {detail}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} self-tests passed")
    return 1 if failed else 0
