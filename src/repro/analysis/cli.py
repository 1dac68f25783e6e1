"""Command-line entry points for the analysis tooling.

Three subcommands share ``python -m repro.analysis``:

* ``python -m repro.analysis <run.jsonl>`` — the PR-1 checker: replay a
  recorded event log and report races, stale reads, invalid copies.
* ``python -m repro.analysis advise <prog.py> [--machine summit:4]`` —
  the advisor: dry-run the program on the requested machine (the real
  runtime with kernels skipped), report its partitions, communication,
  footprint and modeled time, lint it, and print the report.  Exits 1
  when the lint battery finds errors (densification over threshold,
  capacity overflow).
* ``python -m repro.analysis profile <run.spans.json>`` — the timeline
  analyzer: load a span log written by ``Timeline.save`` (see
  ``RuntimeConfig.profile`` / ``REPRO_PROFILE`` and the harness
  ``--profile`` flag), print per-resource utilization, gaps and the
  critical path, and optionally re-export a Chrome/Perfetto trace.

Event logs are produced by running any program with ``RuntimeConfig``
``validate=True`` (or ``REPRO_VALIDATE=1`` in the environment) and
calling ``runtime.event_log.save(path)``; span logs by running with
``profile=True`` (``REPRO_PROFILE=1``) and ``runtime.timeline.save(path)``.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
import traceback
from typing import List, Optional

from repro.analysis.checker import check_log
from repro.analysis.events import EventLog


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Replay a runtime event log and report races, stale "
        "reads and invalid copies (a Legion-Spy-style validator).",
    )
    parser.add_argument("logfile", help="JSONL event log written by EventLog.save")
    parser.add_argument(
        "--stats", action="store_true", help="print event counts by kind"
    )
    parser.add_argument(
        "--max", type=int, default=100, metavar="N",
        help="stop after N violations (default 100)",
    )
    return parser


def build_advise_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis advise",
        description="Analyze a sparse program ahead of execution: dry-run "
        "it (kernels are skipped), report partition choices, communication "
        "volume per channel class, per-memory peak footprint and modeled "
        "time on a machine model, and lint for densification, conversion "
        "churn, broadcasts and capacity overflow.",
    )
    parser.add_argument("program", help="Python program to trace")
    parser.add_argument(
        "--machine", default="laptop", metavar="SPEC",
        help="machine model: laptop or summit[:nodes] (default laptop)",
    )
    parser.add_argument(
        "--kind", choices=["gpu", "cpu", "core"], default="gpu",
        help="processor kind to run on (default gpu)",
    )
    parser.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="processors in the scope (default: all of the kind)",
    )
    parser.add_argument(
        "--per-node", type=int, default=None, metavar="N",
        help="cap processors taken per node",
    )
    parser.add_argument(
        "--data-scale", type=float, default=1.0, metavar="X",
        help="problem magnification applied to footprints/volumes "
        "(trace at reduced size, analyze at paper scale)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "args", nargs="*", metavar="...",
        help="arguments passed to the traced program "
        "(separate with -- to pass options through)",
    )
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis profile",
        description="Analyze a recorded timeline span log: per-resource "
        "utilization and idle gaps, critical-path extraction, and "
        "Chrome-trace/Perfetto export.",
    )
    parser.add_argument(
        "tracefile", help="span log written by Timeline.save (see --profile)"
    )
    parser.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="also write a Chrome/Perfetto trace JSON to OUT",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="print every step of the critical path",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="idle gaps to list in the summary (default 10)",
    )
    return parser


def _profile_main(argv: List[str]) -> int:
    args = build_profile_parser().parse_args(argv)
    # Imported here, not at module top: repro.analysis sits below the
    # runtime layers (see repro.analysis.__init__ on the cycle rule).
    from repro.legion.timeline import Timeline

    try:
        timeline = Timeline.load(args.tracefile)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"error: cannot read trace {args.tracefile!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.chrome:
        timeline.save_chrome_trace(args.chrome)
        print(f"wrote Chrome trace: {args.chrome} ({len(timeline)} spans)")
    print(timeline.format_ascii(top=args.top))
    meta = timeline.meta
    phases = meta.get("host_phases") or {}
    if phases:
        total = sum(phases.values())
        print(f"host phases ({total:.6f}s total):")
        for name, seconds in sorted(
            phases.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name:>16}: {seconds:.6f}s")
    caches = meta.get("caches") or {}
    if caches:
        print("fast-path caches:")
        for name, count in sorted(caches.items()):
            print(f"  {name:>16}: {int(count)}")
    compile_stats = meta.get("compile_cache") or {}
    if compile_stats:
        print(
            "kernel compile cache: "
            f"{int(compile_stats.get('hits', 0))} hits / "
            f"{int(compile_stats.get('misses', 0))} misses"
        )
    if args.critical_path:
        path = timeline.critical_path()
        print(f"critical path ({len(path.steps)} steps):")
        for step in path.steps:
            where = f" on {step.resource}" if step.resource else ""
            print(
                f"  [{step.start:.6f} -> {step.finish:.6f}] "
                f"{step.kind}: {step.name}{where} ({step.duration:.6f}s)"
            )
    return 0


def _check_main(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        log = EventLog.load(args.logfile)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read log {args.logfile!r}: {exc}", file=sys.stderr)
        return 2
    if args.stats:
        for kind, count in sorted(log.stats().items()):
            print(f"{kind:>10}: {count}")
    violations = check_log(log, max_violations=args.max)
    for violation in violations:
        print(str(violation))
    if violations:
        print(f"FAILED: {len(violations)} violation(s) in {len(log)} events")
        return 1
    print(f"OK: {len(log)} events, no violations")
    return 0


def _advise_main(argv: List[str]) -> int:
    # Everything after a literal "--" belongs to the traced program.
    passthrough: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, passthrough = argv[:split], argv[split + 1 :]
    args = build_advise_parser().parse_args(argv)
    args.args = list(args.args) + passthrough
    # Imported here, not at module top: the advisor sits above the
    # runtime layers (see repro.analysis.__init__ on the cycle rule).
    from repro.analysis.advisor import (
        analyze,
        dry_run,
        parse_machine,
        _make_scope,
    )
    from repro.legion.runtime import RuntimeConfig

    try:
        machine = parse_machine(args.machine)
        scope = _make_scope(machine, args.kind, args.procs, args.per_node)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def program() -> None:
        try:
            runpy.run_path(args.program, run_name="__main__")
        except SystemExit as exc:  # traced programs may call sys.exit(0)
            if exc.code not in (None, 0):
                raise

    config = RuntimeConfig.legate(validate=False, data_scale=args.data_scale)
    saved_argv = sys.argv
    sys.argv = [args.program] + list(args.args)
    try:
        plan = dry_run(program, scope, config, name=args.program)
    except SystemExit as exc:
        print(
            f"error: traced program exited with {exc.code}", file=sys.stderr
        )
        return 2
    except Exception:
        traceback.print_exc()
        print(
            f"error: traced program {args.program!r} raised during the "
            f"dry run", file=sys.stderr,
        )
        return 2
    finally:
        sys.argv = saved_argv

    advice = analyze(plan)
    if args.json:
        print(json.dumps(advice.to_dict(), indent=2))
    else:
        print(advice.format_text())
    return 1 if advice.errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch ``advise``/``profile`` or the legacy checker; returns
    the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "advise":
        return _advise_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    return _check_main(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
