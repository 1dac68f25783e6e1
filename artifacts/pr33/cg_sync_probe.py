"""CG synchronization probe: how often a solve blocks the issuing program.

For ``cg_wide`` and ``gmg_small_tasks`` (seed 0, and seed 7 which the
change was not built on; set-up then three repeats as bench/child.py
runs them) it records over the three repeats, without changing
behaviour:

* ``cg`` calls (a GMG repeat is one fine solve plus one coarse solve
  per V-cycle) and host waits (``Runtime.wait`` calls: a float, bool or
  comparison of a deferred ``Scalar``), in total and per solve;
* waits that found a non-empty window and flushed it;
* executed launches and allreduces;
* the last repeat's modeled seconds and the workload's digest.

Run it over one or more checkouts; each ``label=ROOT`` runs in its own
process against ``ROOT/src`` and ``ROOT/bench``:

    python3 artifacts/pr33/cg_sync_probe.py parent=PARENT change=. > artifacts/pr33/cg_sync_probe.json
"""
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("cg_wide", "gmg_small_tasks")
REPEATS = 3
SEEDS = (0, 7)


def probe(root: Path, seed: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    import repro.core.linalg as linalg
    from repro.legion import runtime as runtime_mod

    counts = Counter()
    live = [False]  # count during the repeats only

    real_wait = runtime_mod.Runtime.wait

    def wait(self, future):
        if live[0]:
            counts["host_waits"] += 1
            counts["flushing_waits"] += bool(self._window)
        return real_wait(self, future)

    runtime_mod.Runtime.wait = wait

    real_cg = linalg.cg

    def cg(*args, **kwargs):
        if live[0]:
            counts["cg_calls"] += 1
        return real_cg(*args, **kwargs)

    linalg.cg = cg  # ``sp.linalg`` is this module

    rows = {}
    for name in WORKLOADS:
        counts.clear()
        w = workloads.WORKLOADS[name](seed, False)
        w.generate()
        w.setup()
        launches = allreduces = 0
        for _ in range(REPEATS):
            w.prepare()
            rt = w.rt
            snap = rt.profiler.snapshot()
            live[0] = True
            modeled = w.repeat()
            live[0] = False
            delta = rt.profiler.since(snap)
            launches += delta.tasks_launched
            allreduces += delta.allreduces
        rows[name] = {
            "cg_calls": counts["cg_calls"],
            "host_waits": counts["host_waits"],
            "host_waits_per_solve": counts["host_waits"] / counts["cg_calls"],
            "flushing_waits": counts["flushing_waits"],
            "launches": launches,
            "allreduces": allreduces,
            "modeled_s_last_repeat": modeled,
            "digest": w.digest(),
        }
    return rows


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(probe(Path(argv[1]).resolve(), int(argv[2]))))
        return
    out = {"repeats": REPEATS}
    for seed in SEEDS:
        out[f"seed {seed}"] = runs = {}
        for spec in argv:
            label, root = spec.split("=", 1)
            run = subprocess.run(
                [sys.executable, __file__, "--one", root, str(seed)],
                check=True, capture_output=True, text=True,
            )
            runs[label] = json.loads(run.stdout.strip().splitlines()[-1])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
