"""CG's breakdown guard read one body late, and a zero start without a
residual: the four bench workloads per seed and per tree.

    python3 artifacts/pr47/cg_guard_probe.py parent=<dir> change=. [seeds=0]

``artifacts/pr44/one_shard_probe.py`` with three more counts per
repeat: members (launches issued before fusion: executed launches plus
``Profiler.tasks_fused_away``), executed launches charged as replays,
and the launch overhead the issue clock was charged (with its share of
``modeled_s``).

Each (tree, workload, seed) runs in its own process over that tree's
``bench/`` and ``src/``: set-up, then one timed repeat, with
``REPRO_PROFILE=1``.  It prints the repeat's ``modeled_s`` and
``modeled_p99_ms`` (full precision), its executed launches, its
scalar folds by width (``p: count``; a ``p = 1`` fold is a one-shard
launch's), the result digest, the workload's first correctness check
(GMG's residual), and the critical path by step kind
(``Timeline.critical_path().time_by_kind()``) over set-up plus the
repeat.  The thread count is pinned to one, as ``bench/`` pins it,
before NumPy is imported.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")


def child(root: str, name: str, seed: int) -> dict:
    os.environ["REPRO_PROFILE"] = "1"
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import numpy as np
    import workloads
    from repro.legion.runtime import Runtime

    widths = []
    charge = Runtime._allreduce_ready

    def counted(self, p, *args, **kwargs):
        widths.append(p)
        return charge(self, p, *args, **kwargs)

    Runtime._allreduce_ready = counted
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    w.setup()
    w.prepare()
    prof = w.rt.profiler
    launches = prof.tasks_launched
    fused_away = prof.tasks_fused_away
    replayed = prof.launches_replayed
    overhead = prof.launch_overhead_seconds
    del widths[:]
    modeled = w.repeat()
    path = w.rt.timeline.critical_path()
    shares = {
        kind: round(t / path.length, 4)
        for kind, t in sorted(path.time_by_kind().items(), key=lambda kv: -kv[1])
        if t > 0
    }
    return {
        "modeled_s": modeled,
        "modeled_p99_ms": float(np.percentile(w.latencies_ms(), 99)),
        "launches": prof.tasks_launched - launches,
        "members": prof.tasks_launched - launches + prof.tasks_fused_away - fused_away,
        "replayed": prof.launches_replayed - replayed,
        "overhead_s": prof.launch_overhead_seconds - overhead,
        "folds": dict(sorted(Counter(widths).items())),
        "digest": w.digest()[:16],
        "check": w.checks()[0][2],
        "critical_path": shares,
    }


def main(argv) -> None:
    args = dict(a.split("=", 1) for a in argv)
    seeds = [int(s) for s in args.get("seeds", "0").split(",")]
    names = args.get("workloads", ",".join(WORKLOADS)).split(",")
    for name in names:
        for seed in seeds:
            for side in ("parent", "change"):
                if side not in args:
                    continue
                out = subprocess.run(
                    [sys.executable, __file__, "child",
                     os.path.abspath(args[side]), name, str(seed)],
                    check=True, capture_output=True, text=True,
                ).stdout.strip().splitlines()[-1]
                r = json.loads(out)
                path = " | ".join(
                    f"{k} {v:.1%}" for k, v in r["critical_path"].items()
                )
                folds = ", ".join(f"{p}: {n}" for p, n in r["folds"].items())
                print(
                    f"{name} seed {seed} {side:6}: modeled_s "
                    f"{r['modeled_s']!r}  p99 {r['modeled_p99_ms']!r} ms  "
                    f"launches {r['launches']} (members {r['members']}, "
                    f"replayed {r['replayed']})  folds by width {{{folds}}}  "
                    f"digest {r['digest']}\n    issue overhead "
                    f"{r['overhead_s'] * 1e3:.2f} ms "
                    f"({r['overhead_s'] / r['modeled_s']:.1%} of modeled_s)"
                    f"\n    check: {r['check']}\n"
                    f"    critical path: {path}",
                    flush=True,
                )


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
    else:
        main(sys.argv[1:])
