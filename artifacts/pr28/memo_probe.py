"""Memo traffic probe: how often each structural memo hits, per workload.

For each bench workload (seed 0; set-up plus three repeats, as
bench/child.py runs them) it counts, without changing behaviour:

* solves: ``AutoTask.execute`` calls, and how many carry an image
  constraint (no structural key can memoize those);
* solve memo: ``SolveMemo.get`` calls that return a plan (hits) or None
  (misses);
* window-plan cache: ``Runtime._plan_window`` calls, of which the ones
  that run the planner (``fusion.plan_window``) are misses;
* ``codegen.generate_nest`` calls;
* image-epoch entries (``ImagePartitionCache.epochs``) against live
  regions (``Runtime._coherence``) on the workload's runtime at the end.

Run it over one or more checkouts; each ``label=ROOT`` runs in its own
process against ``ROOT/src`` and ``ROOT/bench``:

    python3 artifacts/pr28/memo_probe.py parent=PARENT change=. > artifacts/pr28/memo_probe.json
"""
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")
REPEATS = 3


def probe(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from repro.constraints import AutoTask, Image
    from repro.distal import codegen
    from repro.legion import fastpath, fusion
    from repro.legion.runtime import Runtime

    counts = {}

    def counted(owner, name, classify):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            key = classify(out)
            counts[key] = counts.get(key, 0) + 1
            return out

        setattr(owner, name, wrapper)

    execute = AutoTask.execute

    def counted_execute(task):
        counts["solves"] = counts.get("solves", 0) + 1
        if any(isinstance(con, Image) for con in task._constraints):
            counts["image_solves"] = counts.get("image_solves", 0) + 1
        return execute(task)

    AutoTask.execute = counted_execute
    counted(fastpath.SolveMemo, "get",
            lambda out: "solve_memo_misses" if out is None else "solve_memo_hits")
    counted(Runtime, "_plan_window", lambda out: "plan_window_calls")
    counted(fusion, "plan_window", lambda out: "window_plan_misses")
    counted(codegen, "generate_nest", lambda out: "generate_nest_calls")

    rows = {}
    for name in WORKLOADS:
        counts.clear()
        w = workloads.WORKLOADS[name](0, False)
        w.generate()
        w.setup()
        for _ in range(REPEATS):
            w.prepare()
            w.repeat()
        row = {
            key: counts.get(key, 0)
            for key in (
                "solves", "image_solves",
                "solve_memo_hits", "solve_memo_misses", "plan_window_calls",
                "window_plan_misses", "generate_nest_calls",
            )
        }
        row["window_plan_hits"] = (
            row.pop("plan_window_calls") - row["window_plan_misses"]
        )
        row["image_epoch_entries"] = len(w.rt._image_cache.epochs)
        row["live_regions"] = len(w.rt._coherence)
        row["digest"] = w.digest()
        rows[name] = row
    return rows


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(probe(Path(argv[1]).resolve())))
        return
    out = {}
    for spec in argv:
        label, root = spec.split("=", 1)
        run = subprocess.run(
            [sys.executable, __file__, "--one", root],
            check=True, capture_output=True, text=True,
        )
        out[label] = json.loads(run.stdout.strip().splitlines()[-1])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
