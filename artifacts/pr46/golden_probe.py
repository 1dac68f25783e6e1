"""Fig. 9 CG goldens with and without times, for one tree.

    python3 artifacts/pr46/golden_probe.py <tree>

Runs ``tests/legion/test_trace_replay.py``'s fig9 CG (24 GPUs on four
summit nodes, validated, fused and unfused) from ``<tree>`` and prints
its event-log digest with times (the ``GOLDEN_LOG`` /
``GOLDEN_LOG_UNFUSED`` form) and without (``_digest(..., times=False)``:
the same copies, sources and bytes, times stripped), and the
modeled seconds.
"""
import os
import sys

root = os.path.abspath(sys.argv[1])
os.chdir(root)
sys.path[:0] = [root, os.path.join(root, "src")]

import repro.numeric as rnp  # noqa: E402
import repro.sparse as sp  # noqa: E402
from repro.apps.poisson import poisson2d_scipy  # noqa: E402
from repro.legion.runtime import runtime_scope  # noqa: E402
from repro.machine import ProcessorKind, summit  # noqa: E402
from tests.legion import test_trace_replay as tr  # noqa: E402

for fusion in (True, False):
    rt = tr._runtime(
        summit(nodes=4).scope(ProcessorKind.GPU, tr.GPUS),
        validate=True, trace_replay_fraction=1.0, fusion=fusion,
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(tr.GRID))
        b = rnp.ones(tr.GRID * tr.GRID)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        modeled = rt.barrier()
    print(f"fusion={fusion}: times {tr._digest(rt, modeled)}")
    print(f"fusion={fusion}: no times {tr._digest(rt, modeled, times=False)}")
    print(f"fusion={fusion}: modeled {modeled!r}")
