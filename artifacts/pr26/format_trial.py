"""Format trial: 100 SpMVs of power_law_csr(8192, 4096, seed=42) per format and GPU count."""
import hashlib, json, math, sys
import numpy as np
import repro.numeric as rnp
import repro.sparse as sp
from repro.harness.skew import power_law_csr
from repro.legion.runtime import Runtime, RuntimeConfig, set_runtime
from repro.machine import summit, ProcessorKind

S = power_law_csr(8192, 4096, seed=42)
rows = []
for gpus in (2, 6, 24):
    for fmt in ("csr", "ell", "sell", "hyb"):
        rt = Runtime(summit(nodes=math.ceil(gpus / 6)).scope(ProcessorKind.GPU, gpus), RuntimeConfig.legate())
        set_runtime(rt)
        A = sp.csr_matrix(S)
        if fmt != "csr":
            A = A.asformat(fmt)
        x = rnp.ones(A.shape[1])
        rt.barrier()
        t0, k0 = rt.elapsed(), rt.profiler.kernel_seconds
        y = None
        for _ in range(100):
            y = A @ x
        yh = np.asarray(y.to_numpy() if hasattr(y, "to_numpy") else y)
        rt.barrier()
        rows.append(dict(format=fmt, gpus=gpus, machine=f"summit:{math.ceil(gpus/6)}",
                         elapsed_s=rt.elapsed() - t0, kernel_s=rt.profiler.kernel_seconds - k0,
                         y_sha256=hashlib.sha256(np.ascontiguousarray(yh).tobytes()).hexdigest()))
        print(json.dumps(rows[-1]), flush=True)
