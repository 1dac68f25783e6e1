"""Recovery's observable behaviour, for comparing two trees byte for byte.

    python3 artifacts/pr45/recovery_probe.py <tree> > out.txt

Runs over ``<tree>/src`` and prints three sections:

1. ``run_soak(20, 0)`` (``repro.harness.soak_bench``) as JSON;
2. the ``repro.harness.chaos_bench`` result: a fault-free baseline of
   its CG loop on two summit nodes (4 GPUs) and each of its three
   fault schedules compared against it, as JSON;
3. ``EventLog.to_lines()`` of a validated CG run whose chaos config
   comes from ``REPRO_CHAOS``: ``ckpt_replicas=2``, a GPU loss and a
   node-0 loss on three nodes inside the solve window of a fault-free run.

The thread count is pinned to one before NumPy is imported, so that
no BLAS reduction order differs between runs.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("REPRO_CHAOS", None)
os.environ.pop("REPRO_VALIDATE", None)

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from repro.harness import chaos_bench  # noqa: E402
from repro.harness.soak_bench import run_soak  # noqa: E402
from repro.machine import summit  # noqa: E402


def dump(title, value):
    print(f"== {title}")
    print(json.dumps(value, indent=1, sort_keys=True, default=repr))


def chaos_bench_result():
    machine = summit(nodes=2)
    base = chaos_bench._measure(machine, 4, None)
    window = (base["t_solve_start"], base["t_solve_end"])
    runs = {
        name: chaos_bench._compare(base, chaos_bench._measure(machine, 4, cfg))
        for name, cfg in chaos_bench._scenarios(window).items()
    }
    return {"baseline": base, "runs": runs}


def env_chaos_log():
    import repro.numeric as rnp
    import repro.sparse as sp
    from repro.apps.poisson import poisson2d_scipy
    from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
    from repro.machine import ProcessorKind

    def solve():
        rt = Runtime(
            summit(nodes=3).scope(ProcessorKind.GPU, 6),
            RuntimeConfig.legate(validate=True),
        )
        with runtime_scope(rt):
            A = sp.csr_matrix(poisson2d_scipy(24))
            b = rnp.ones(24 * 24)
            sp.linalg.cg(A, b, rtol=0.0, maxiter=1)
            t0 = rt.barrier()
            sp.linalg.cg(A, b, rtol=0.0, maxiter=8)
            t1 = rt.barrier()
        return rt, t0, t1

    _, t0, t1 = solve()
    gpu_at, node_at = t0 + 0.3 * (t1 - t0), t0 + 0.6 * (t1 - t0)
    os.environ["REPRO_CHAOS"] = (
        f"seed:3,replicas=2,ckpt:30,heartbeat=1e-4,detect=5e-5,"
        f"lose-gpu:1@{gpu_at!r},lose-node:0@{node_at!r}"
    )
    try:
        rt, _, _ = solve()
    finally:
        del os.environ["REPRO_CHAOS"]
    prof = rt.profiler
    print(
        f"faults {dict(sorted(prof.faults_injected.items()))} "
        f"checkpoints {prof.checkpoints} recoveries {prof.recoveries} "
        f"reexecuted {prof.tasks_reexecuted} restores {prof.restores} "
        f"replication_bytes {prof.replication_bytes}"
    )
    return rt.event_log.to_lines()


dump("run_soak(20, 0)", run_soak(20, 0))
dump("chaos_bench", chaos_bench_result())
print("== REPRO_CHAOS event log")
lines = env_chaos_log()
print(f"{len(lines)} events")
print("\n".join(lines))
