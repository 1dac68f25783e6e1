"""The GMG coarse solve before and after it runs on the colors its grid
earns: ``gmg_small_tasks`` per seed and per tree.

    python3 artifacts/pr43/coarse_probe.py parent=<dir> change=. [seeds=0,1]

Each (tree, seed) runs in its own process over that tree's ``bench/``
and ``src/``: set-up, then one timed repeat, with ``REPRO_PROFILE=1``.
It prints the repeat's ``modeled_s``, its executed launches, its
allreduces (with how many folded a single shard, ``p = 1``), its
copies and their bytes (the gather and scatter around a narrowed
coarse solve land here), the host seconds of the repeat, the residual check, and the critical path by
step kind (``Timeline.critical_path().time_by_kind()``) over set-up
plus the repeat.  The thread count is pinned to one, as ``bench/``
pins it, before NumPy is imported.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def child(root: str, seed: int) -> dict:
    os.environ["REPRO_PROFILE"] = "1"
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import workloads
    from repro.legion.runtime import Runtime

    widths = []
    charge = Runtime._allreduce_ready

    def counted(self, p, *args, **kwargs):
        widths.append(p)
        return charge(self, p, *args, **kwargs)

    Runtime._allreduce_ready = counted
    w = workloads.WORKLOADS["gmg_small_tasks"](seed)
    w.generate()
    w.setup()
    prof = w.rt.profiler
    launches, allreduces = prof.tasks_launched, prof.allreduces
    copies, nbytes = sum(prof.copy_count.values()), sum(prof.copy_bytes.values())
    del widths[:]
    w.prepare()
    t0 = time.perf_counter()
    modeled = w.repeat()
    host = time.perf_counter() - t0
    path = w.rt.timeline.critical_path()
    shares = {
        kind: round(t / path.length, 4)
        for kind, t in sorted(path.time_by_kind().items(), key=lambda kv: -kv[1])
        if t > 0
    }
    return {
        "modeled_s": modeled,
        "launches": prof.tasks_launched - launches,
        "allreduces": prof.allreduces - allreduces,
        "allreduces_p1": widths.count(1),
        "copies": sum(prof.copy_count.values()) - copies,
        "copy_bytes": sum(prof.copy_bytes.values()) - nbytes,
        "host_repeat_s": round(host, 3),
        "check": w.checks()[0][2],
        "critical_path": shares,
    }


def main(argv) -> None:
    args = dict(a.split("=", 1) for a in argv)
    seeds = [int(s) for s in args.get("seeds", "0,1").split(",")]
    for seed in seeds:
        for side in ("parent", "change"):
            if side not in args:
                continue
            out = subprocess.run(
                [sys.executable, __file__, "child", os.path.abspath(args[side]), str(seed)],
                check=True, capture_output=True, text=True,
            ).stdout.strip().splitlines()[-1]
            r = json.loads(out)
            path = " | ".join(f"{k} {v:.1%}" for k, v in r["critical_path"].items())
            print(
                f"seed {seed} {side:6}: modeled_s {r['modeled_s']:.6f}  "
                f"launches {r['launches']}  allreduces {r['allreduces']} "
                f"(p=1: {r['allreduces_p1']})  copies {r['copies']} "
                f"({r['copy_bytes'] / 1e6:.2f} MB)  host {r['host_repeat_s']:.2f} s  "
                f"{r['check']}\n    critical path: {path}",
                flush=True,
            )


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]))))
    else:
        main(sys.argv[1:])
