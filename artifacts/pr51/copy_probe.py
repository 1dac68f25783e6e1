"""Every copy's records, for comparing two trees byte for byte.

    python3 artifacts/pr51/copy_probe.py <tree> > out.txt

Runs over ``<tree>/src`` with validation and profiling on, and prints,
per run, the elapsed modeled seconds, the Profiler's copy, fault,
retry, spill, checkpoint and restore counters, the solution digest,
``EventLog.to_lines()`` and every timeline span (category, lane, start,
finish, bytes, flops, then the label).  The runs: a one-GPU spill, a
four-GPU ``A.T @ x`` fold, CG under copy faults and under allocation
faults (each also with retries exhausted), and a six-GPU CG with
checkpoints, a GPU loss and a node loss.  The thread count is pinned
to one before NumPy is imported.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
for k in ("REPRO_CHAOS", "REPRO_VALIDATE", "REPRO_PROFILE"):
    os.environ.pop(k, None)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
sys.path.insert(0, sys.argv[1])

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

import repro.numeric as rnp  # noqa: E402
import repro.sparse as sp  # noqa: E402
from repro.apps.poisson import poisson2d_scipy  # noqa: E402
from repro.legion import FaultError, Runtime, RuntimeConfig  # noqa: E402
from repro.legion.chaos import ChaosConfig, LossSchedule  # noqa: E402
from repro.legion.runtime import runtime_scope  # noqa: E402
from repro.machine import Machine, ProcessorKind, summit  # noqa: E402
from repro.machine.model import MachineConfig  # noqa: E402


def dump(title, rt, x=None):
    print(f"== {title}")
    prof = rt.profiler
    print("elapsed", repr(rt.elapsed()))
    for k in ("copy_count", "copy_bytes", "faults_injected"):
        print(k, dict(sorted(getattr(prof, k).items())))
    for k in ("retries", "backoff_seconds", "spills", "spill_bytes", "evictions",
              "eviction_bytes", "resize_copies", "resize_bytes", "checkpoints",
              "restores", "tasks_reexecuted", "shards_executed", "tasks_launched"):
        print(k, repr(getattr(prof, k, None)))
    print("fastpath", dict(sorted(prof.fastpath_counters.items())))
    if x is not None:
        print("digest", hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())
    if rt.event_log is not None:
        lines = rt.event_log.to_lines()
        print(f"{len(lines)} events")
        print("\n".join(lines))
    if rt.timeline is not None:
        spans = rt.timeline.spans
        print(f"{len(spans)} spans")
        for s in spans:
            print(f"{s.category}|{s.resource}|{s.start!r}|{s.finish!r}|{s.nbytes}|{s.flops!r}|LABEL {s.name}")


def cfg(**kw):
    return RuntimeConfig.legate(validate=True, profile=True, **kw)


def spill_run():
    machine = Machine(MachineConfig(nodes=1, sockets_per_node=1, gpus_per_node=2,
                                    gpu_memory=2**20, sysmem_per_node=2 * 2**30))
    rt = Runtime(machine.scope(ProcessorKind.GPU, 1), cfg())
    with runtime_scope(rt):
        n = 30_000
        arrays = []
        for i in range(6):
            arrays.append(rnp.full(n, float(i + 1)))
            rt.barrier()
        total = rnp.zeros(n)
        rt.barrier()
        for a in arrays:
            total = total + a
            rt.barrier()
        out = total.to_numpy().copy()
    dump("spill", rt, out)


def fold_run():
    rt = Runtime(summit(nodes=1).scope(ProcessorKind.GPU, 4), cfg())
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(12))
        x = rnp.ones(144)
        y = A.T @ x
        z = (A.T @ y) + y
        out = z.to_numpy().copy()
    dump("fold", rt, out)


def cg_chaos(title, chaos, procs=2, nodes=1, grid=16, iters=4):
    rt = Runtime(summit(nodes=nodes).scope(ProcessorKind.GPU, procs, per_node=min(procs, 2)),
                 cfg(chaos=chaos))
    try:
        with runtime_scope(rt):
            A = sp.csr_matrix(poisson2d_scipy(grid))
            b = rnp.ones(grid * grid)
            sp.linalg.cg(A, b, rtol=0.0, maxiter=1)
            rt.barrier()
            rt.recovery.checkpoint()
            x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=iters)
            rt.barrier()
            out = x.to_numpy().copy()
    except FaultError as exc:
        print(f"== {title}: FaultError {exc}")
        dump(title + " (failed)", rt)
        return
    dump(title, rt, out)


def window():
    rt = Runtime(summit(nodes=3).scope(ProcessorKind.GPU, 6, per_node=2),
                 RuntimeConfig.legate())
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(24))
        b = rnp.ones(576)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)
        t0 = rt.barrier()
        sp.linalg.cg(A, b, rtol=0.0, maxiter=8)
        t1 = rt.barrier()
    return t0, t1


spill_run()
fold_run()
cg_chaos("copy faults", ChaosConfig(seed=7, copy_fault_rate=0.1))
cg_chaos("alloc faults", ChaosConfig(seed=7, alloc_fault_rate=0.1))
cg_chaos("copy exhausted", ChaosConfig(seed=0, copy_fault_rate=0.99, max_retries=2))
cg_chaos("alloc exhausted", ChaosConfig(seed=0, alloc_fault_rate=0.99, max_retries=2))
t0, t1 = window()
cg_chaos("losses", ChaosConfig(seed=3, copy_fault_rate=0.05, alloc_fault_rate=0.05,
                               checkpoint_every=30, ckpt_replicas=2,
                               losses=(LossSchedule("gpu", 1, t0 + 0.3 * (t1 - t0)),
                                       LossSchedule("node", 0, t0 + 0.6 * (t1 - t0)))),
         procs=6, nodes=3, grid=24, iters=8)
