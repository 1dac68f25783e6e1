"""Lifetime probe: how region frees meet the deferred window, per program.

Every program runs in its own process against ``ROOT/src`` (and
``ROOT/bench``, ``ROOT/tests``, ``ROOT/examples``); nothing it does
changes behaviour.  The programs:

* the four bench workloads at seed 0, set-up then three repeats as
  ``bench/child.py`` runs them (``workload:<name>``);
* the ten ``examples/*.py`` with their default arguments
  (``example:<file>``);
* the seeded random programs of ``tests/legion/test_reduction_fusion.py``,
  seeds 0-9, fused, on 3 GPUs (``random:<seed>``).

Per program it records, summed over every runtime the program makes:

* ``free_region`` calls, and those whose region a pending window
  launch still names (``frees_naming_pending``);
* loop-nest builds (``codegen.generate_nest`` calls), and builds whose
  ``build_nest_plan`` was handed a non-empty dead set (``null`` on a
  tree whose ``build_nest_plan`` has no ``dead_uids`` parameter);
* ``kernel_merges``, ``regions_elided``, launches, launches that passed
  the window and hazard flushes (``Profiler``), and a sha256 of every
  ``fusion_log`` entry in flush order;
* a digest: the workload's own, the sha256 of an example's stdout
  (host-second lines dropped), or the sha256 of the bytes a random
  program returns.

Run it over one or more checkouts:

    python3 artifacts/pr34/lifetime_probe.py parent=PARENT change=. > artifacts/pr34/lifetime_probe.json
"""
import contextlib
import hashlib
import inspect
import io
import json
import runpy
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cg_wide", "gmg_small_tasks", "matfact_sgd", "serve_mixed")
REPEATS = 3
SEEDS = range(10)
RANDOM_PROCS = 3


def programs(root: Path):
    names = [f"workload:{name}" for name in WORKLOADS]
    names += [f"example:{p.name}" for p in sorted((root / "examples").glob("*.py"))]
    names += [f"random:{seed}" for seed in SEEDS]
    return names


def probe(root: Path, program: str) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "bench"), str(root)]
    from repro.analysis import depend
    from repro.distal import codegen
    from repro.legion import runtime as runtime_mod

    Runtime = runtime_mod.Runtime
    counts = {
        "free_region_calls": 0, "frees_naming_pending": 0,
        "nest_builds": 0, "nest_builds_with_dead_set": 0,
    }
    runtimes = []
    log_hash = hashlib.sha256()

    def wrap(owner, name, make):
        setattr(owner, name, make(getattr(owner, name)))

    def on_init(real):
        def init(self, *args, **kwargs):
            real(self, *args, **kwargs)
            runtimes.append(self)
        return init

    def on_free(real):
        def free_region(self, region):
            counts["free_region_calls"] += 1
            if any(
                req.region.uid == region.uid
                for task in self._window for req in task.requirements
            ):
                counts["frees_naming_pending"] += 1
            return real(self, region)
        return free_region

    def on_flush(real):
        def _flush(self, window, *args):
            start = len(self.fusion_log)
            try:
                return real(self, window, *args)
            finally:
                for entry in self.fusion_log[start:]:
                    log_hash.update(repr(entry).encode())
        return _flush

    def on_generate(real):
        def generate_nest(plan):
            counts["nest_builds"] += 1
            return real(plan)
        return generate_nest

    signature = inspect.signature(depend.build_nest_plan)
    has_dead = "dead_uids" in signature.parameters
    if not has_dead:
        counts["nest_builds_with_dead_set"] = None

    def on_build(real):
        def build_nest_plan(*args, **kwargs):
            if has_dead and signature.bind(*args, **kwargs).arguments.get("dead_uids"):
                counts["nest_builds_with_dead_set"] += 1
            return real(*args, **kwargs)
        return build_nest_plan

    wrap(Runtime, "__init__", on_init)
    wrap(Runtime, "free_region", on_free)
    wrap(Runtime, "_flush", on_flush)
    wrap(codegen, "generate_nest", on_generate)
    wrap(depend, "build_nest_plan", on_build)

    kind, name = program.split(":", 1)
    if kind == "workload":
        import workloads

        w = workloads.WORKLOADS[name](0, False)
        w.generate()
        w.setup()
        for _ in range(REPEATS):
            w.prepare()
            w.repeat()
        digest = w.digest()
    elif kind == "example":
        path = root / "examples" / name
        out = io.StringIO()
        argv, sys.argv = sys.argv, [str(path)]
        try:
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            counts["exit"] = exc.code
        finally:
            sys.argv = argv
        kept = [
            line for line in out.getvalue().splitlines()
            if not line.startswith("host phases:")
        ]
        digest = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    else:
        sys.path.insert(0, str(root / "tests" / "legion"))
        import test_reduction_fusion as trf
        from repro.legion.runtime import runtime_scope

        rt = trf._runtime(RANDOM_PROCS, True)
        with runtime_scope(rt):
            values = trf._random_program(int(name))
            rt.barrier()
        digest = hashlib.sha256(b"".join(values)).hexdigest()

    totals = dict.fromkeys(
        ("kernel_merges", "regions_elided", "tasks_launched",
         "launches_passed", "hazard_flushes"), 0,
    )
    for rt in runtimes:
        for key in totals:
            totals[key] += getattr(rt.profiler, key, 0)
    row = dict(counts)
    row.update(totals)
    row["fusion_log_sha256"] = log_hash.hexdigest()
    row["digest"] = digest
    return row


def main(argv):
    if argv[:1] == ["--one"]:
        print(json.dumps(probe(Path(argv[1]).resolve(), argv[2])))
        return
    out = {"repeats": REPEATS, "seed": 0, "random_procs": RANDOM_PROCS}
    for spec in argv:
        label, root = spec.split("=", 1)
        rows = {}
        for program in programs(Path(root)):
            run = subprocess.run(
                [sys.executable, __file__, "--one", root, program],
                check=True, capture_output=True, text=True,
            )
            rows[program] = json.loads(run.stdout.strip().splitlines()[-1])
        out[label] = rows
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
