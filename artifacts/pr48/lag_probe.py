"""One-color rule 5 and CG's lagged convergence check: the four bench
workloads, and converging solves, per tree.

    python3 artifacts/pr48/lag_probe.py parent=<dir> change=. [seeds=0,3]

Part 1, per workload, seed and tree (as ``artifacts/pr47/cg_guard_probe.py``):
set-up, then one timed repeat under ``REPRO_PROFILE=1``, each in its own
process over that tree's ``bench/`` and ``src/``.  It prints the repeat's
``modeled_s`` and ``modeled_p99_ms`` (full precision), executed launches,
members (launches issued before fusion), launches charged as replays,
scalar folds by width (``p: count``), the issue overhead and its share of
``modeled_s``, the digest, the first correctness check and the critical
path by step kind over set-up plus the repeat.

Part 2, per tree: solves that converge, so that the lagged check pays
the one body a converged solve issues and discards.  A plain CG on a
63 x 63 Poisson grid (rtol 1e-8) on 6 GPUs, and the two-level GMG-PCG
(``apps.multigrid.gmg_preconditioned_cg``, rtol 1e-8) on a 39 x 39 grid
on 6 GPUs and on 1 GPU, each under ``RuntimeConfig.legate()`` after a
warm-up solve: modeled milliseconds of the timed solve, its iterations
(callbacks), ``info``, and the sha256 prefix of the solution.

The thread count is pinned to one, as ``bench/`` pins it, before NumPy
is imported.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")
GRID = 63  # the plain CG's grid
GMG_GRID = 39  # injection GMG-PCG stops converging in 200 iterations past ~41


def workload(root: str, name: str, seed: int) -> dict:
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


def converging(root: str) -> list:
    sys.path[:0] = [os.path.join(root, "src")]
    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.apps.multigrid import gmg_preconditioned_cg
    from repro.apps.poisson import poisson2d_scipy
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind, summit

    def plain(A, b):
        seen = []
        x, info = sp.linalg.cg(A, b, rtol=1e-8, callback=seen.append)
        return x, info, len(seen)

    def gmg(A, b):
        return gmg_preconditioned_cg(A, b, GMG_GRID, rtol=1e-8)

    rows = []
    for label, solve, gpus, grid in (
        ("CG", plain, 6, GRID), ("GMG-PCG", gmg, 6, GMG_GRID),
        ("GMG-PCG", gmg, 1, GMG_GRID),
    ):
        rt = Runtime(
            summit(nodes=1).scope(ProcessorKind.GPU, gpus),
            RuntimeConfig.legate(),
        )
        with runtime_scope(rt):
            A = sp.csr_matrix(poisson2d_scipy(grid))
            b = rnp.ones(grid * grid)
            solve(A, b)  # warm-up
            t0 = rt.barrier()
            x, info, iters = solve(A, b)
            t1 = rt.barrier()
            digest = hashlib.sha256(x.to_numpy().tobytes()).hexdigest()[:16]
        rows.append({
            "solve": f"{label} {grid} x {grid}", "gpus": gpus,
            "ms": (t1 - t0) * 1e3,
            "iterations": iters, "info": info, "digest": digest,
        })
    return rows


def run_child(*args) -> object:
    out = subprocess.run(
        [sys.executable, __file__, "child", *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    return json.loads(out)


def main(argv) -> None:
    args = dict(a.split("=", 1) for a in argv)
    seeds = [int(s) for s in args.get("seeds", "0").split(",")]
    names = args.get("workloads", ",".join(WORKLOADS)).split(",")
    sides = [side for side in ("parent", "change") if side in args]
    for name in names:
        for seed in seeds:
            for side in sides:
                r = run_child("workload", os.path.abspath(args[side]), name, str(seed))
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
    print("\nConverging solves (Poisson, rtol 1e-8, legate()):")
    print("| solve | GPUs | " + " | ".join(f"{s} ms (iterations, info)" for s in sides)
          + " | change / parent | solution |")
    print("|---|---|" + "---|" * len(sides) + "---|---|")
    tables = {side: run_child("converging", os.path.abspath(args[side])) for side in sides}
    for i, row in enumerate(tables[sides[0]]):
        cells = [
            f"{tables[s][i]['ms']:.2f} ({tables[s][i]['iterations']}, {tables[s][i]['info']})"
            for s in sides
        ]
        ratio = (
            f"{tables['change'][i]['ms'] / tables['parent'][i]['ms'] - 1:+.1%}"
            if len(sides) == 2 else ""
        )
        same = "same" if len({tables[s][i]['digest'] for s in sides}) == 1 else "differs"
        print(f"| {row['solve']} | {row['gpus']} | " + " | ".join(cells)
              + f" | {ratio} | {same} |", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        kind = sys.argv[2]
        if kind == "workload":
            result = workload(sys.argv[3], sys.argv[4], int(sys.argv[5]))
        else:
            result = converging(sys.argv[3])
        print(json.dumps(result))
    else:
        main(sys.argv[1:])
