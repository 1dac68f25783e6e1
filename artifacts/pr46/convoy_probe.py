"""Copies on the critical path, before and after the gap-filling
channel reservation: the four bench workloads per seed and per tree.

    python3 artifacts/pr46/convoy_probe.py parent=<dir> change=. [seeds=0,3] [workloads=cg_wide]

Each (tree, workload, seed) runs in its own process over that tree's
``bench/`` and ``src/``: set-up, then one timed repeat, with
``REPRO_PROFILE=1`` and one BLAS thread (as ``bench/`` pins it).  It
prints the repeat's ``modeled_s`` and ``modeled_p99_ms`` (full
precision), the result digest, the critical path by step kind over
set-up plus the repeat, the copy steps on that path inside the repeat
(count and seconds), and the repeat's copies that start before the
issue clock of the launch that stages them (count, and the largest
lead in microseconds).
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")


def child(root: str, name: str, seed: int) -> dict:
    os.environ["REPRO_PROFILE"] = "1"
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import numpy as np
    import workloads
    from repro.legion.runtime import Runtime

    copies = []  # (start, issue clock) per copy
    copy = Runtime._copy

    def traced(self, src, dst, nbytes, ready, *args, **kwargs):
        clock = self.issue_time
        finish = copy(self, src, dst, nbytes, ready, *args, **kwargs)
        spans = self.timeline._cols
        copies.append((spans[3][-1], clock))
        return finish

    Runtime._copy = traced
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    w.setup()
    w.prepare()
    begin = w.rt.elapsed()
    del copies[:]
    modeled = w.repeat()
    path = w.rt.timeline.critical_path()
    shares = {
        kind: round(t / path.length, 4)
        for kind, t in sorted(path.time_by_kind().items(), key=lambda kv: -kv[1])
        if t > 0
    }
    steps = [s for s in path.steps if s.kind == "copy" and s.start >= begin]
    early = [clock - start for start, clock in copies if start < clock]
    return {
        "modeled_s": modeled,
        "modeled_p99_ms": float(np.percentile(w.latencies_ms(), 99)),
        "digest": w.digest()[:16],
        "critical_path": shares,
        "path_copies": len(steps),
        "path_copy_s": sum(s.duration for s in steps),
        "copies": len(copies),
        "early": len(early),
        "early_max_us": max(early, default=0.0) * 1e6,
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
                print(
                    f"{name} seed {seed} {side:6}: modeled_s "
                    f"{r['modeled_s']!r}  p99 {r['modeled_p99_ms']!r} ms  "
                    f"digest {r['digest']}\n"
                    f"    critical path: {path}\n"
                    f"    repeat: {r['path_copies']} copy steps on the path "
                    f"({r['path_copy_s'] * 1e3:.3f} ms); {r['early']} of "
                    f"{r['copies']} copies start before their issue clock "
                    f"(up to {r['early_max_us']:.1f} us)",
                    flush=True,
                )


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        print(json.dumps(child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
    else:
        main(sys.argv[1:])
