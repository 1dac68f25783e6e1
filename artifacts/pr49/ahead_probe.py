"""A one-GPU CG that issues ahead of its host checks: the four bench
workloads, converging solves, and the look-ahead depth, per tree.

    python3 artifacts/pr49/ahead_probe.py parent=<dir> change=. [seeds=0,3]

Every figure is a modeled one (no host seconds), so a re-run over the
same trees prints the same bytes.

Part 1, per workload, seed and tree (the fields of
``artifacts/pr48/lag_probe.py``): set-up, then one timed repeat under
``REPRO_PROFILE=1``, each in its own process over that tree's ``bench/``
and ``src/``.  It prints the repeat's ``modeled_s`` and
``modeled_p99_ms`` (full precision), executed launches, members
(launches issued before fusion), launches charged as replays, scalar
folds by width (``p: count``), the issue overhead and its share of
``modeled_s``, the digest, the first correctness check and the critical
path by step kind over set-up plus the repeat.

Part 2, per tree: solves that converge, under ``RuntimeConfig.legate()``
on ``summit(nodes=1)`` after a warm-up solve.  A plain CG (rtol 1e-8) on
63 x 63 and 31 x 31 Poisson grids on 1, 2 and 6 GPUs, and the two-level
GMG-PCG (``apps.multigrid.gmg_preconditioned_cg``, rtol 1e-8) on a
39 x 39 grid on 1 and 6 GPUs: modeled milliseconds of the timed solve,
its iterations (callbacks), ``info``, the sha256 prefix of the solution
and ``legion.instance.peak_modeled_mb`` after it.

Part 3, on the ``change`` tree only: the look-ahead depth
(``repro.core.linalg.iterative._AHEAD``) set to each of 2, 4, 8 and 16
before anything runs, for ``gmg_small_tasks``' ``modeled_s`` at the
first seed and the modeled milliseconds of part 2's solves.

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
SOLVES = (
    ("CG", 63, 1), ("CG", 63, 2), ("CG", 63, 6),
    ("CG", 31, 1), ("CG", 31, 2), ("CG", 31, 6),
    ("GMG-PCG", 39, 1), ("GMG-PCG", 39, 6),
)
DEPTHS = (2, 4, 8, 16)


def _tree(root: str, ahead: int, *parts: str) -> None:
    sys.path[:0] = [os.path.join(root, part) for part in parts]
    if ahead:
        from repro.core.linalg import iterative

        iterative._AHEAD = ahead


def workload(root: str, name: str, seed: int, ahead: int) -> dict:
    os.environ["REPRO_PROFILE"] = "1"
    _tree(root, ahead, "bench", "src")
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


def converging(root: str, ahead: int) -> list:
    _tree(root, ahead, "src")
    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.apps.multigrid import gmg_preconditioned_cg
    from repro.apps.poisson import poisson2d_scipy
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind, summit

    def plain(A, b, grid):
        seen = []
        x, info = sp.linalg.cg(A, b, rtol=1e-8, callback=seen.append)
        return x, info, len(seen)

    def gmg(A, b, grid):
        return gmg_preconditioned_cg(A, b, grid, rtol=1e-8)

    rows = []
    for label, grid, gpus in SOLVES:
        solve = plain if label == "CG" else gmg
        rt = Runtime(
            summit(nodes=1).scope(ProcessorKind.GPU, gpus),
            RuntimeConfig.legate(),
        )
        with runtime_scope(rt):
            A = sp.csr_matrix(poisson2d_scipy(grid))
            b = rnp.ones(grid * grid)
            solve(A, b, grid)  # warm-up
            t0 = rt.barrier()
            x, info, iters = solve(A, b, grid)
            t1 = rt.barrier()
            digest = hashlib.sha256(x.to_numpy().tobytes()).hexdigest()[:16]
        rows.append({
            "solve": f"{label} {grid} x {grid}", "gpus": gpus,
            "ms": (t1 - t0) * 1e3,
            "iterations": iters, "info": info, "digest": digest,
            "peak_mb": rt.instances.total_peak_bytes() / 2**20,
        })
    return rows


def run_child(*args) -> object:
    out = subprocess.run(
        [sys.executable, __file__, "child", *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    return json.loads(out)


def _change(new: float, old: float) -> str:
    return f"{new / old - 1:+.1%}"


def main(argv) -> None:
    args = dict(a.split("=", 1) for a in argv)
    seeds = [int(s) for s in args.get("seeds", "0").split(",")]
    names = args.get("workloads", ",".join(WORKLOADS)).split(",")
    sides = [side for side in ("parent", "change") if side in args]
    roots = {side: os.path.abspath(args[side]) for side in sides}
    print("Part 1: the bench workloads, one repeat after set-up")
    base = {}
    for name in names:
        for seed in seeds:
            for side in sides:
                r = run_child("workload", roots[side], name, str(seed), "0")
                base.setdefault((name, seed), r["modeled_s"])
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
    print("\nPart 2: converging solves (Poisson, rtol 1e-8, legate())")
    print("| solve | GPUs | " + " | ".join(
        f"{s} ms (iterations, info) peak MiB" for s in sides
    ) + " | change / parent | solution |")
    print("|---|---|" + "---|" * len(sides) + "---|---|")
    tables = {side: run_child("converging", roots[side], "0") for side in sides}
    for i, row in enumerate(tables[sides[0]]):
        cells = [
            f"{tables[s][i]['ms']:.4f} ({tables[s][i]['iterations']}, "
            f"{tables[s][i]['info']}) {tables[s][i]['peak_mb']:.4f}"
            for s in sides
        ]
        ratio = (
            _change(tables["change"][i]["ms"], tables["parent"][i]["ms"])
            if len(sides) == 2 else ""
        )
        digests = {tables[s][i]["digest"] for s in sides}
        same = "same" if len(digests) == 1 else "differs"
        print(f"| {row['solve']} | {row['gpus']} | " + " | ".join(cells)
              + f" | {ratio} | {same} ({'/'.join(sorted(digests))}) |",
              flush=True)
    if "change" not in roots:
        return
    first = seeds[0]
    print(f"\nPart 3: look-ahead depth on the change tree (gmg_small_tasks "
          f"at seed {first}; part 2's solves in ms), change against "
          f"{sides[0]}")
    print("| depth | gmg_small_tasks modeled_s | " + " | ".join(
        f"{label} {grid}² {gpus} GPU" for label, grid, gpus in SOLVES
    ) + " |")
    print("|---|---|" + "---|" * len(SOLVES))
    reference = tables[sides[0]]
    for depth in DEPTHS:
        r = run_child(
            "workload", roots["change"], "gmg_small_tasks", str(first), str(depth)
        )
        rows = run_child("converging", roots["change"], str(depth))
        cells = [
            f"{row['ms']:.4f} ({_change(row['ms'], ref['ms'])})"
            + ("" if row["digest"] == ref["digest"] else " DIFFERS")
            for row, ref in zip(rows, reference)
        ]
        gmg = f"{r['modeled_s']:.7f} ({_change(r['modeled_s'], base[('gmg_small_tasks', first)])})"
        print(f"| {depth} | {gmg} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        kind = sys.argv[2]
        if kind == "workload":
            result = workload(
                sys.argv[3], sys.argv[4], int(sys.argv[5]), int(sys.argv[6])
            )
        else:
            result = converging(sys.argv[3], int(sys.argv[4]))
        print(json.dumps(result))
    else:
        main(sys.argv[1:])
