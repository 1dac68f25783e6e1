"""Recompute the goldens the new CG launch order moves, with either loop.

Runs the tests' own recording helpers -- fig9 CG (fused and eager), the
GMG PCG, the GPU- and node-loss replays -- once with the tree's
``sp.linalg.cg`` and once with ``reference_cg``, the check-first loop
kept verbatim in ``tests/core/test_cg_spmv_before_wait.py``.  The reference
run must give back every digest recorded before the reorder: the
runtime did not move, the program did.

    python3 artifacts/pr33/golden_check.py > artifacts/pr33/golden_check.json
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def digests() -> dict:
    from tests.legion import test_coherence_index as ci
    from tests.legion import test_mapping_lane as ml
    from tests.legion import test_trace_replay as tr
    from repro.legion.chaos import ChaosConfig, LossSchedule

    out = {}
    for fusion, name in ((True, "GOLDEN_LOG"), (False, "GOLDEN_LOG_UNFUSED")):
        log, solution, prof = ci._fig9_cg_digests(fusion)
        out[name] = log
        out[f"{name}:solution"] = solution
        out[f"{name}:launches,allreduces"] = [prof.tasks_launched, prof.allreduces]
    for fusion, name in ((True, "GOLDEN_GMG"), (False, "GOLDEN_GMG_UNFUSED")):
        rt, modeled, solution = tr._gmg_pcg(1.0, False, fusion)
        out[name] = tr._digest(rt, modeled)
        out[f"{name}:solution"] = tr._sha(solution)
        out[f"{name}:launches,allreduces,passed"] = [
            rt.profiler.tasks_launched, rt.profiler.allreduces,
            rt.profiler.launches_passed,
        ]
    for kind, nodes in (("gpu", 1), ("node", 2)):
        for fusion in (True, False):
            name = f"GOLDEN_{kind.upper()}_LOSS" + ("" if fusion else "_UNFUSED")
            _, solve_s, _, fault_free = ml._cg(nodes, False, fusion=fusion)
            chaos = ChaosConfig(
                checkpoint_every=16,
                losses=(LossSchedule(kind, 1, solve_s / 2),),
            )
            rt, _, end, recovered = ml._cg(nodes, False, chaos, fusion)
            out[name] = ml._digest(rt, end)
            out[f"{name}:tasks_reexecuted"] = rt.profiler.tasks_reexecuted
            out[f"{name}:loss_at,solve_s"] = [solve_s / 2, solve_s]
            out[f"{name}:recovered==fault_free"] = bool(
                (recovered == fault_free).all()
            )
    return out


def main(argv):
    if argv[:1] == ["--one"]:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
        if argv[1] == "reference":
            import repro.core.linalg as linalg
            from tests.core.test_cg_spmv_before_wait import reference_cg

            linalg.cg = reference_cg  # ``sp.linalg`` is this module
        print(json.dumps(digests()))
        return
    out = {}
    for loop in ("tree", "reference"):
        run = subprocess.run(
            [sys.executable, __file__, "--one", loop],
            check=True, capture_output=True, text=True, cwd=ROOT,
        )
        out[loop] = json.loads(run.stdout.strip().splitlines()[-1])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
