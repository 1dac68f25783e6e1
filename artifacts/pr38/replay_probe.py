"""Modeled seconds, p99, launches and replayed launches per bench workload.

    python3 artifacts/pr38/replay_probe.py <tree> <seed> [workload ...]

Runs each workload of ``<tree>/bench`` in this process: set-up, then two
repeats, printing per repeat the modeled seconds, modeled p99 (ms),
host seconds, executed launches and launches charged as replays, and
the workload digest.  On a tree from before automatic tracing the
replays are those of its explicit trace scopes.
"""
import os
import sys
import time

import numpy as np

root, seed = sys.argv[1], int(sys.argv[2])
names = sys.argv[3:] or ["cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed"]
sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
import workloads  # noqa: E402


def replayed(rt):
    profiler = rt.profiler
    if hasattr(profiler, "launches_replayed"):
        return profiler.launches_replayed
    return sum(t.replayed_launches for t in getattr(rt, "_traces", {}).values())


for name in names:
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    w.setup()
    rows = []
    for rep in range(2):
        w.prepare()
        launched, before = w.rt.profiler.tasks_launched, replayed(w.rt)
        t0 = time.perf_counter()
        modeled = w.repeat()
        wall = time.perf_counter() - t0
        p99 = np.percentile(w.latencies_ms(), 99)
        rows.append(
            f"rep{rep}: modeled={modeled:.7g} p99={p99:.5g} wall={wall:.2f} "
            f"launches={w.rt.profiler.tasks_launched - launched} "
            f"replayed={replayed(w.rt) - before}"
        )
    print(name, w.digest()[:16], *rows, sep="\n  ", flush=True)
