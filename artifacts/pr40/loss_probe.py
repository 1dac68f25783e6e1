"""Every epoch loss and the model digest of ``matfact_sgd``, to the bit.

    python3 artifacts/pr40/loss_probe.py <tree> <seed>

Runs the workload of ``<tree>/bench`` in this process: set-up, then two
repeats, printing per repeat each epoch loss as ``float.hex`` and the
U/V/b_u/b_i digest.
"""
import os
import sys

root, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
import workloads  # noqa: E402

w = workloads.WORKLOADS["matfact_sgd"](seed)
w.generate()
w.setup()
for rep in range(2):
    w.prepare()
    w.repeat()
    print(f"rep{rep}:", *(v.hex() for v in w.losses), w.digest(), flush=True)
