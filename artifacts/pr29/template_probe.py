"""Template traffic probe: how often each host template is derived, per workload.

For each bench workload (seed 0; set-up plus three repeats, as
bench/child.py runs them) it counts, without changing behaviour:

* ``fusion.fusible`` calls (window-admission verdicts derived);
* ``_LaunchShape`` builds (launch execution templates derived);
* window-plan misses (``fusion.plan_window`` calls) and
  ``codegen.generate_nest`` calls;
* ``solve_hits`` / ``solve_misses`` of the workload runtime's profiler;
* entries left at the end in the workload runtime's template memo (the
  solve memo on older checkouts) and in its window-plan cache; over
  every runtime the workload makes (``serve_mixed``'s service makes
  its own), the largest any memo of that container class grew
  (``max_memo_entries``: the template memos and, after the change, the
  window-plan caches) and how often one was cleared for being full;
* the workload's digest.

Run it over one or more checkouts; each ``label=ROOT`` runs in its own
process against ``ROOT/src`` and ``ROOT/bench``:

    python3 artifacts/pr29/template_probe.py parent=PARENT change=. > artifacts/pr29/template_probe.json
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
    from repro.distal import codegen
    from repro.legion import fastpath as fastpath_mod
    from repro.legion import fusion
    from repro.legion import runtime as runtime_mod

    counts = {}

    def counted(owner, name, label):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return real(*args, **kwargs)

        setattr(owner, name, wrapper)

    counted(fusion, "fusible", "fusible_calls")
    counted(fusion, "plan_window", "window_plan_misses")
    counted(codegen, "generate_nest", "generate_nest_calls")

    class CountedShape(runtime_mod._LaunchShape):
        __slots__ = ()

        def __init__(self, *args):
            counts["launch_shape_builds"] = counts.get("launch_shape_builds", 0) + 1
            super().__init__(*args)

    runtime_mod._LaunchShape = CountedShape

    # The memo container: SolveMemo on older checkouts, BoundedMemo
    # (templates and window plans; image caches are a subclass) after.
    memo_cls = getattr(fastpath_mod, "BoundedMemo", None) or fastpath_mod.SolveMemo
    real_put = memo_cls.put

    def put(self, key, value):
        if type(self) is memo_cls:
            size = len(self)
            if size >= self.MAX_ENTRIES:
                counts["memo_clears"] = counts.get("memo_clears", 0) + 1
            counts["max_memo_entries"] = max(
                counts.get("max_memo_entries", 0), size + 1
            )
        real_put(self, key, value)

    memo_cls.put = put

    rows = {}
    for name in WORKLOADS:
        counts.clear()
        w = workloads.WORKLOADS[name](0, False)
        w.generate()
        w.setup()
        for _ in range(REPEATS):
            w.prepare()
            w.repeat()
        rt = w.rt
        row = {
            key: counts.get(key, 0)
            for key in (
                "fusible_calls", "launch_shape_builds",
                "window_plan_misses", "generate_nest_calls",
            )
        }
        fastpath = rt.profiler.fastpath_counters
        row["solve_hits"] = fastpath["solve_hits"]
        row["solve_misses"] = fastpath["solve_misses"]
        memo = getattr(rt, "_templates", None)
        if memo is None:
            memo = rt._solve_memo
        row["memo_entries"] = len(memo)
        row["memo_bound"] = memo_cls.MAX_ENTRIES
        row["max_memo_entries"] = counts.get("max_memo_entries", 0)
        row["memo_clears"] = counts.get("memo_clears", 0)
        row["window_plan_cache_entries"] = len(rt._fusion_cache)
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
