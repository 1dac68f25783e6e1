"""Sparse-fusion probe: what the deferred window does with each bench workload.

For each bench workload (seed 0, set-up then three repeats as
bench/child.py runs them) it records, over the three repeats and
without changing behaviour:

* executed launches, and the flushed groups by ``fusion_log`` label
  (``single``, ``merged``, ``replay:<reason>``);
* launches that passed the window, hazard flushes and allreduces;
* window-plan misses (``fusion.plan_window`` calls), dependence
  classifications (``depend.classify`` calls) and ``_LaunchShape``
  builds;
* ``Runtime._stage_reads`` calls (reads that missed the steady-state
  lane);
* ``machine.copies.*`` / ``machine.copy_bytes.*`` and
  ``resize_copies`` / ``resize_bytes``;
* the last repeat's modeled seconds and the workload's digest.

Run it over one or more checkouts; each ``label=ROOT`` runs in its own
process against ``ROOT/src`` and ``ROOT/bench``:

    python3 artifacts/pr30/sparse_fusion_probe.py parent=PARENT change=. > artifacts/pr30/sparse_fusion_probe.json
"""
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")
REPEATS = 3


def probe(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from repro.analysis import depend
    from repro.legion import fusion
    from repro.legion import runtime as runtime_mod

    counts = Counter()
    live = [False]  # count during the repeats only

    def counted(owner, name, label):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if live[0]:
                counts[label] += 1
            return real(*args, **kwargs)

        setattr(owner, name, wrapper)

    counted(fusion, "plan_window", "window_plan_misses")
    counted(depend, "classify", "depend_classify_calls")
    counted(runtime_mod.Runtime, "_stage_reads", "stage_reads_calls")

    class CountedShape(runtime_mod._LaunchShape):
        __slots__ = ()

        def __init__(self, *args):
            if live[0]:
                counts["launch_shape_builds"] += 1
            super().__init__(*args)

    runtime_mod._LaunchShape = CountedShape

    rows = {}
    for name in WORKLOADS:
        counts.clear()
        w = workloads.WORKLOADS[name](0, False)
        w.generate()
        w.setup()
        labels = Counter()
        launches = passed = flushes = allreduces = 0
        copies = Counter()
        copy_bytes = Counter()
        resizes = resize_bytes = 0
        for _ in range(REPEATS):
            w.prepare()
            rt = w.rt
            logged = len(rt.fusion_log)
            snap = rt.profiler.snapshot()
            live[0] = True
            modeled = w.repeat()
            live[0] = False
            delta = rt.profiler.since(snap)
            labels.update(label for _, _, label in rt.fusion_log[logged:])
            launches += delta.tasks_launched
            passed += getattr(delta, "launches_passed", 0)
            flushes += delta.hazard_flushes
            allreduces += delta.allreduces
            copies.update(delta.copy_count)
            copy_bytes.update(delta.copy_bytes)
            resizes += delta.resize_copies
            resize_bytes += delta.resize_bytes
        row = {
            "launches": launches,
            "groups_by_label": dict(sorted(labels.items())),
            "launches_passed": passed,
            "hazard_flushes": flushes,
            "allreduces": allreduces,
        }
        for key in (
            "window_plan_misses", "depend_classify_calls",
            "launch_shape_builds", "stage_reads_calls",
        ):
            row[key] = counts[key]
        for kind in ("nvlink", "nic"):
            row[f"machine.copies.{kind}"] = copies[kind]
            row[f"machine.copy_bytes.{kind}"] = copy_bytes[kind]
        row["resize_copies"] = resizes
        row["resize_bytes"] = resize_bytes
        row["modeled_s_last_repeat"] = modeled
        row["digest"] = w.digest()
        rows[name] = row
    return rows


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(probe(Path(argv[1]).resolve())))
        return
    out = {"repeats": REPEATS, "seed": 0}
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
