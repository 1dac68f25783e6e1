#!/usr/bin/env python3
"""Call census: which functions and methods of ``src/repro`` does anything reach?

Runs the non-test entry points, then tier-1, under a ``sitecustomize`` hook
that records each call into the package with its caller, chained to a
program's own ``sys.setprofile`` (whose ``None`` uninstalls only that one),
BLAS single-threaded as in ``bench/``.  *Reach* is ``workload``,
``test-only`` or ``none``; ``verdict`` states the rule.  Evidence, not a gate.

    make census                            # writes artifacts/census.json (ignored)
    python3 scripts/census.py --keep DIR   # and keeps the raw run in DIR
    python3 scripts/census.py --reuse DIR  # re-classify a kept raw run
    python3 scripts/census.py --reuse artifacts/pr51/census.json  # or an earlier result
                                           # of this very tree (else it exits 1)
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HOOK = r'''
import atexit, os, sys, threading
_seen, _user = {}, [None]
def _hook(frame, event, arg):
    if event == "call":
        back = frame.f_back and frame.f_back.f_code
        _seen[(id(frame.f_code), id(back))] = (frame.f_code, back)
    if _user[0] is not None:
        _user[0](frame, event, arg)
def _dump():
    where = lambda c: c and f"{os.path.abspath(c.co_filename)}:{c.co_firstlineno}"
    pairs = [(where(a), where(b) or "") for a, b in list(_seen.values())]
    root = os.environ["CENSUS_SRC"]
    rows = {row for a, b in pairs if a.startswith(root) for row in (a, f"{a} {b}")
            if row == a or b.startswith(root)}
    with open(os.path.join(os.environ["CENSUS_DIR"], f"{os.getpid()}.txt"), "w") as fh:
        fh.write("\n".join(sorted(rows)))
if os.environ.get("CENSUS_DIR"):
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    sys.setprofile = threading.setprofile = lambda fn: _user.__setitem__(0, fn)
    sys.getprofile = lambda: _user[0]
    atexit.register(_dump)
'''

API_DIRS = ("core/", "numeric/", "integrate/", "sparse/")
SAFETY_FILES = [f"analysis/{m}.py" for m in ("checker", "events", "sanitizer", "recorder", "lint")]
PROMISED = {  # subsystems the README promises, until ROADMAP item 2 runs them
    "legion/chaos.py": "fault injection", "legion/recovery.py": "checkpoint/recovery",
    "harness/soak_bench.py": "the soak driver", "harness/chaos_bench.py": "the chaos driver",
    "numeric/lazy.py": "user-directed task fusion (ROADMAP item 22)"}
RECOVERY = ("reset_for_program", "lose", "drop_instance", "record_")  # recovery's hooks elsewhere
SURFACES = ("analysis/advisor.py", "analysis/cli.py",  # the advisor library and CLIs,
            "legion/profiler.py", "legion/timeline.py")  # profiler counters, the timeline


def entry_points(tmp: Path):
    """(kind, argv) for every run: the examples, check.sh's CLIs, bench's smoke,
    self-test and seed-0 workloads, overhead.py, benchmarks/, report; tier-1."""
    py, ex = sys.executable, ROOT / "examples"
    advise, pytest = [py, "-m", "repro.analysis", "advise"], [py, "-m", "pytest", "-q"]
    return [("workload", argv) for argv in [[py, str(p)] for p in sorted(ex.glob("*.py"))] + [
        ["env", "REPRO_PROFILE=1", py, "-m", "repro.harness.experiments.fig9_cg",
         "--columns", "2", "--profile", str(tmp / "fig9.trace.json")],
        advise + [str(ex / "advisor_demo.py"), "--machine", "summit:4", "--", "--maxiter", "2"],
        advise + ["--json", str(ex / "advisor_demo.py"), "--", "--maxiter", "2"],
        advise + [str(ex / "advisor_violations.py"), "--data-scale", "4e4"],
        [py, "-m", "repro.analysis", "profile", str(tmp / "fig9.spans.json")],
        [py, "bench/run.py", "--smoke"], [py, "bench/run.py", "--selftest"],
    ] + [
        [py, "bench/child.py", "--workload", w["name"], "--seed", "0", "--repeats", "1"]
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ] + [
        [py, "scripts/overhead.py", "--output", str(tmp / "overhead.json")],
        pytest + ["-p", "no:cacheprovider", "benchmarks"],
        [py, "-m", "repro.harness.report", "--fast", "--out", str(tmp / "EXPERIMENTS.md")],
    ]] + [("test", pytest + ["-p", "no:cacheprovider", "tests"])]


def record(runs, raw: Path, src: Path, cwd: Path = ROOT) -> list:
    """Run each entry point under the hook; returns what ran and its exit code."""
    for sub in ("hook", "workload", "test"):
        (raw / sub).mkdir(parents=True, exist_ok=True)
    (raw / "hook" / "sitecustomize.py").write_text(HOOK)
    log = []
    for kind, argv in runs:
        env = {**os.environ, "CENSUS_DIR": str(raw / kind), "CENSUS_SRC": str(src),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(raw / "hook"), str(src.parent)])}
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        run = " ".join(a.replace(sys.executable, "python").replace(f"{cwd}/", "")
                       .replace(str(raw), "<tmp>") for a in argv[1:])
        log.append({"kind": kind, "exit": code, "run": run})
        print(f"census: {kind:8s} exit {code}  {log[-1]['run']}", file=sys.stderr)
    return log


def definitions(src: Path):
    """(path, qualname, first line, line count, abstract) of every def."""
    def walk(body, rel, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, rel, prefix + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                body = [n for n in node.body if not isinstance(n, ast.Expr)]  # sans docstring
                abstract = len(body) == 1 and "NotImplemented" in ast.unparse(body[0])
                yield rel, prefix + node.name, first, node.end_lineno - first + 1, abstract

    for path in sorted(src.rglob("*.py")):
        yield from walk(ast.parse(path.read_text()).body, path.relative_to(src).as_posix(), "")


def verdict(rel, name, reach, abstract, used_owner, referenced, raised):
    """(verdict, reason): the first rule that holds decides (then ``census`` keeps
    what kept code calls); "!" marks a rule that condemns."""
    leaf = name.rsplit(".", 1)[-1]
    dunder = leaf.startswith("__") and leaf.endswith("__")
    for holds, reason in [
        (reach == "workload", "a non-test entry point calls it"),
        (rel.startswith(API_DIRS) and rel not in PROMISED,
         "SciPy/NumPy API a user calls, or its implementation"),
        (reach == "none" and (dunder or abstract), "a protocol or abstract method"),
        (reach == "none" and leaf == "main", "a command-line entry point"),
        (reach == "none" and referenced, "called from code that no run reaches"),
        (reach == "none", "!nothing calls it"),
        (rel in SAFETY_FILES or any(w in leaf.lower() for w in ("check", "valid", "sanitiz")),
         "safety code: validation or an input check"),
        (raised, "safety code: the error class a check of the package raises"),
        (rel in PROMISED, f"README-promised subsystem: {PROMISED.get(rel)}"),
        (rel.startswith("legion/") and leaf.startswith(RECOVERY),
         "README-promised subsystem: fault recovery and its counters"),
        (not used_owner, "!only tests use its class or module"),
        (dunder, "Python protocol method"),
        (abstract, "abstract method: subclasses implement it"),
        (rel in SURFACES and not leaf.startswith("_"), "a user-facing surface README documents"),
        (not any(p.startswith("_") for p in name.split(".")),
         "interface of a class or module the program uses"),
    ]:
        if holds:
            return ("condemned", reason[1:]) if reason[0] == "!" else ("keep", reason)
    return "condemned", "only tests call it"


def names_read(src: Path):
    """(how often each name is read anywhere in the repo: name, obj.name;
    the classes ``src`` raises: ``raise Error(...)``)."""
    refs, root, raised = Counter(), src.parent.parent, set()
    for path in root.rglob("*.py"):
        if not any(p[0] == "." or p == "artifacts" for p in path.relative_to(root).parts):
            tree = ast.parse(path.read_text())
            refs.update(getattr(n, "attr", None) or getattr(n, "id", None) for n in ast.walk(tree))
            if src in path.parents:
                raised.update(getattr(getattr(n.exc, "func", n.exc), "id", None)
                              for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc)
    return refs, raised


def summarize(records) -> dict:
    return {key: {"definitions": len(rs), "lines": sum(r["lines"] for r in rs)}
            for key in ("total", "workload", "test-only", "none", "keep", "condemned")
            for rs in [[r for r in records if key in ("total", r["reach"], r["verdict"])]]}


def census(src: Path, raw: Path) -> dict:
    """Classify every definition under ``src`` from a raw run in ``raw``."""
    work, test = ({r for f in (raw / kind).glob("*.txt") for r in f.read_text().split("\n")}
                  for kind in ("workload", "test"))  # "callee" and "callee caller" rows
    refs, raised = names_read(src)
    defs = [(rel, name, line, n, abstract, f"{src / rel}:{line}", (rel, name.rpartition(".")[0]))
            for rel, name, line, n, abstract in definitions(src)]
    used = {d[6] for d in defs if d[5] in work} | {(d[0], "") for d in defs if d[5] in work}
    records, at = [], {}
    for rel, name, line, lines, abstract, key, owner in defs:
        reach = "workload" if key in work else "test-only" if key in test else "none"
        at[key] = {"file": rel, "name": name, "line": line, "lines": lines, "reach": reach}
        at[key]["verdict"], at[key]["reason"] = verdict(
            rel, name, reach, abstract, owner in used, refs[name.rpartition(".")[2]] > 0,
            name.partition(".")[0] in raised)
        records.append(at[key])
    changed = True
    while changed:  # code that kept code calls stays
        changed = False
        for callee, caller in (row.split(" ") for row in test if " " in row):
            a, b = at.get(callee), at.get(caller)
            if a and b and a["reason"] == "only tests call it" and b["verdict"] == "keep":
                a["verdict"], a["reason"], changed = "keep", f"called by {b['name']}", True
    return {"summary": summarize(records), "definitions": records}


def reclassify(src: Path, records: list) -> dict:
    """Re-apply the rules to the reach an earlier census recorded.  Its "called
    by" keeps stand: the caller rows that decided them are not in its file.
    Reach is keyed by ``file:line``, so records of another tree would pass stale
    reach on: exits non-zero, listing each (file, name, line) not in both."""
    defs = list(definitions(src))
    tree = {(rel, name, line) for rel, name, line, _, _ in defs}
    recorded = {(r["file"], r["name"], r["line"]) for r in records}
    if tree != recorded:
        raise SystemExit("census: the records are not of this tree; re-run the census\n" + "\n".join(
            f"  only in the {side}: {rel}:{line} {name}"
            for side, rows in (("tree", tree - recorded), ("records", recorded - tree))
            for rel, name, line in sorted(rows, key=lambda row: (row[0], row[2]))))
    refs, raised = names_read(src)
    abstract = {(rel, name): a for rel, name, _, _, a in defs}
    used = {(r["file"], owner) for r in records if r["reach"] == "workload"
            for owner in (r["name"].rpartition(".")[0], "")}
    for r in records:
        if not r["reason"].startswith("called by "):
            rel, name = r["file"], r["name"]
            r["verdict"], r["reason"] = verdict(
                rel, name, r["reach"], abstract.get((rel, name), False),
                (rel, name.rpartition(".")[0]) in used, refs[name.rpartition(".")[2]] > 0,
                name.partition(".")[0] in raised)
    return {"summary": summarize(records), "definitions": records}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(ROOT / "artifacts" / "census.json"))
    ap.add_argument("--reuse", help="classify a raw run kept with --keep, or re-classify "
                    "an earlier census.json, instead of running")
    ap.add_argument("--keep", help="keep the raw run in this directory")
    args, src = ap.parse_args(argv), ROOT / "src" / "repro"
    if args.reuse and Path(args.reuse).is_file():
        previous = json.loads(Path(args.reuse).read_text())
        result = {**reclassify(src, previous["definitions"]), "runs": previous["runs"]}
    else:
        with tempfile.TemporaryDirectory(prefix="census-") as tmp:
            raw = Path(args.reuse or args.keep or tmp)
            log = None if args.reuse else record(entry_points(raw), raw, src)
            result = {**census(src, raw), "runs": log}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["summary"], indent=1))


if __name__ == "__main__":
    main()
