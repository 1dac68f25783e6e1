"""The deferred window's ordering rules on trial, and a flush in place of
passing against the tree before it.

    python3 artifacts/pr52/window_trial.py parent=<dir> change=. [seeds=0,3]

Each (tree, rule, workload, seed) runs in its own process over that
tree's ``bench/`` and ``src/``: set-up, then one timed repeat, BLAS
pinned to one thread as ``bench/`` pins it.  On the ``parent`` tree
(a2e78df, where passing and the read-in-place check still exist) each
rule is flipped alone by a patch made in the child before the workload
is built:

``passing-off``
    ``Runtime.pass_window`` flushes every non-empty window, as the
    change does.
``in-place-lifted``
    ``_GroupState.read_in_place`` forgets what it is given, so no write
    is checked against a one-color read through an image or an explicit
    partition.
``hoisting-off``
    ``fusion._hoist_target`` finds no earlier group (rule 6).
``issue-order``
    ``fusion.segments`` keeps a group's aligned members in issue order:
    a new segment wherever the tile boundaries change.

The ``change`` tree runs unpatched (``none``), as does the parent.
Per run it prints, for the repeat: ``modeled_s`` and ``modeled_p99_ms``
(full precision), executed launches, merged nests, replays, hazard
flushes and a sha256 prefix of its ``fusion_log`` entries; over set-up
plus the repeat (``all_*``): executed launches, hazard flushes,
launches passed (parent only), non-fusible launches and how many of
them met an open window, and the ``fusion_log`` hash; and the result
digest.  One JSON line per run, then a markdown table.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")
RULES = ("passing-off", "in-place-lifted", "hoisting-off", "issue-order")


def _flip(rule: str) -> None:
    from repro.analysis import depend
    from repro.legion import fusion
    from repro.legion.runtime import Runtime

    if rule == "passing-off":
        def pass_window(self, accesses, scalars):
            if self._window:
                self.profiler.hazard_flushes += 1
                self.flush_window()

        Runtime.pass_window = pass_window
    elif rule == "in-place-lifted":
        class Forgets(dict):
            def get(self, key, default=None):
                return default

            def setdefault(self, key, default=None):
                return set()

        init = fusion._GroupState.__init__

        def __init__(self):
            init(self)
            self.read_in_place = Forgets()

        fusion._GroupState.__init__ = __init__
    elif rule == "hoisting-off":
        fusion._hoist_target = lambda *args: None
    elif rule == "issue-order":
        def in_issue_order(summaries, indices):
            out, run, bounds = [], [], None
            group = set(indices)
            for index in indices:
                summary = summaries[index]
                fence = summary.barrier or not group.isdisjoint(summary.after)
                own = next(
                    (
                        acc.boundaries for acc in summary.accesses
                        if acc.part_kind == "tile"
                    ),
                    None,
                )
                if run and (fence or own != bounds):
                    out.append(tuple(run))
                    run = []
                if summary.barrier:
                    out.append((index,))
                    continue
                run.append(index)
                bounds = own
            if run:
                out.append(tuple(run))
            return out

        fusion.segments = depend.segments = in_issue_order
    elif rule != "none":
        raise SystemExit(f"unknown rule {rule!r}")


def _sha(log) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


def child(root: str, rule: str, name: str, seed: int) -> dict:
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import numpy as np
    import workloads
    from repro.legion import fusion
    from repro.legion.runtime import Runtime

    _flip(rule)
    met = {"nonfusible": 0, "met_open": 0}
    launch = Runtime.launch

    def counted(self, task):
        if self.config.fusion and not fusion.fusible(task):
            met["nonfusible"] += 1
            met["met_open"] += bool(self._window)
        return launch(self, task)

    Runtime.launch = counted
    w = workloads.WORKLOADS[name](seed)
    w.generate()
    w.setup()
    w.prepare()
    rt = w.rt
    prof = rt.profiler
    before = prof.snapshot()
    logged = len(rt.fusion_log)
    modeled = w.repeat()
    delta = prof.since(before)
    return {
        "rule": rule,
        "workload": name,
        "seed": seed,
        "modeled_s": modeled,
        "modeled_p99_ms": float(np.percentile(w.latencies_ms(), 99)),
        "launches": delta.tasks_launched,
        "merges": delta.kernel_merges,
        "replayed": delta.launches_replayed,
        "flushes": delta.hazard_flushes,
        "log": _sha(rt.fusion_log[logged:]),
        "all_launches": prof.tasks_launched,
        "all_flushes": prof.hazard_flushes,
        "passed": getattr(prof, "launches_passed", None),
        **met,
        "all_log": _sha(rt.fusion_log),
        "digest": w.digest()[:16],
    }


COLUMNS = (
    "modeled_s", "modeled_p99_ms", "launches", "merges", "replayed",
    "flushes", "log", "all_launches", "all_flushes", "passed",
    "nonfusible", "met_open", "all_log", "digest",
)


def main(argv) -> None:
    args = dict(a.split("=", 1) for a in argv)
    seeds = [int(s) for s in args.get("seeds", "0,3").split(",")]
    names = args.get("workloads", ",".join(WORKLOADS)).split(",")
    runs = []
    for side, rules in (("parent", ("none",) + RULES), ("change", ("none",))):
        if side not in args:
            continue
        for rule in rules:
            for name in names:
                for seed in seeds:
                    out = subprocess.run(
                        [sys.executable, __file__, "child",
                         os.path.abspath(args[side]), rule, name, str(seed)],
                        check=True, capture_output=True, text=True,
                    ).stdout.strip().splitlines()[-1]
                    r = {"tree": side, **json.loads(out)}
                    print(json.dumps(r), flush=True)
                    runs.append(r)
    print()
    print("| tree | rule | workload | seed | " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * (4 + len(COLUMNS)))
    for r in runs:
        cells = [r["tree"], r["rule"], r["workload"], str(r["seed"])]
        cells += [repr(r[c]) if isinstance(r[c], float) else str(r[c])
                  for c in COLUMNS]
        print("| " + " | ".join(cells) + " |")


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        print(json.dumps(child(sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5]))))
    else:
        main(sys.argv[1:])
