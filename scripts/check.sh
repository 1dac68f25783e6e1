#!/usr/bin/env sh
# Repository gate: lint (ruff, or its stdlib fallback), tier-1 suite,
# validation smoke, profile slice, bench/run.py smoke and self-test, and
# the kernel-fusion, profile and advisor smokes.
#
#   make check          # or: sh scripts/check.sh
#
# The validation pass re-runs a smoke slice of the suite with
# REPRO_VALIDATE=1, which turns on event-log recording, privilege
# sanitizing and the offline Legion-Spy-style checker (repro.analysis).
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

# The profile smoke writes its traces under the ignored artifacts/
# directory (CI uploads them from there); the gate leaves `git status`
# clean.
mkdir -p artifacts

echo "== ruff =="
# Without ruff the gate still fails closed: scripts/lint_fallback.py
# (stdlib ast) checks F401 and F821 under pyproject.toml's ignores and
# exits non-zero on any finding.  The other selected rules need ruff.
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests
else
    echo "ruff not installed; running the stdlib fallback (F401, F821)"
    python3 scripts/lint_fallback.py src tests
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== validation smoke (REPRO_VALIDATE=1) =="
# test_host_analysis.py and test_trace_replay.py put launches served
# from the solve memo, the window-plan cache and trace templates through
# the checker (about 3 s of the slice's 15 s on a 2-vCPU VM);
# test_launch_width.py puts narrowed and one-color launches through it;
# test_chaos.py, test_resilience2.py, test_reset.py and test_spill.py
# put checkpoints, losses, journal replay and spills (legion/recovery.py)
# through it; test_cg_spmv_before_wait.py puts CG's lagged checks,
# one-color groups that resolve a future in their shard, and one-GPU
# solves that issue up to eight bodies ahead of their checks (groups
# spanning bodies, up to eight discarded bodies) through it, and
# test_runtime.py's TestWait puts waits that leave the window open and
# waits that flush it before they stall through it; test_copy_log.py
# puts every kind of copy (stage, fold, spill, checkpoint, restore)
# through it.
REPRO_VALIDATE=1 python -m pytest -x -q \
    tests/analysis \
    tests/core/test_cg_spmv_before_wait.py \
    tests/legion/test_runtime.py \
    tests/legion/test_chaos.py \
    tests/legion/test_copy_log.py \
    tests/legion/test_resilience2.py \
    tests/legion/test_reset.py \
    tests/legion/test_spill.py \
    tests/legion/test_coherence.py \
    tests/legion/test_exact_images.py \
    tests/legion/test_host_analysis.py \
    tests/legion/test_fusion.py \
    tests/legion/test_launch_width.py \
    tests/legion/test_reduction_fusion.py \
    tests/legion/test_trace_replay.py \
    tests/integration

echo "== profile slice (REPRO_PROFILE=1) =="
# Retry, backoff, spill, checkpoint and restore spans (Runtime._copy and
# Recovery.retry) go through the timeline under the fault, spill and
# replica tests.
REPRO_PROFILE=1 python -m pytest -x -q \
    tests/legion/test_chaos.py \
    tests/legion/test_spill.py \
    tests/legion/test_resilience2.py

echo "== end-to-end bench smoke (bench/run.py: four workloads, every check on) =="
# bench/run.py is the harness for performance claims (BENCHMARK.json);
# the smoke run and the self-test write only under the ignored
# bench/out/ and exit non-zero on a failed correctness check, a digest
# or modeled-time mismatch across processes, or a broken tracer.
python3 bench/run.py --smoke > /dev/null
python3 bench/run.py --selftest > /dev/null

echo "== kernel fusion smoke (merge verdicts, demo and advisor) =="
# The demo proves at least one merge-safe group executes as one loop
# nest with results bitwise the fusion=False ones (it exits non-zero
# otherwise).
python examples/kernel_fusion_demo.py --k 12 --maxiter 2 > /dev/null
# The advisor's dry run must carry the same merge verdicts.  Capture the
# output first: POSIX sh has no pipefail, so `python ... | grep -q`
# would report grep's status and silently swallow a python failure.
advise_out=$(python -m repro.analysis advise examples/advisor_demo.py \
    -- --maxiter 2)
printf '%s\n' "$advise_out" | grep -q "kernel-merge-applied" || {
    echo "advisor produced no kernel-merge-applied verdict" >&2
    exit 1
}

echo "== profile smoke (fig9 CG under REPRO_PROFILE=1, trace artifacts) =="
REPRO_PROFILE=1 python -m repro.harness.experiments.fig9_cg \
    --columns 2 --profile artifacts/fig9_cg.trace.json > /dev/null
# The exported Chrome trace must be well-formed JSON in the trace-event
# format, and the span log must round-trip through the offline analyzer.
python - <<'PYEOF'
import json
with open("artifacts/fig9_cg.trace.json") as fh:
    trace = json.load(fh)
events = trace["traceEvents"]
assert events, "empty Chrome trace"
assert all(e["ph"] in ("X", "M") for e in events), "unexpected phase"
assert all(
    "ts" in e and "dur" in e and e["dur"] >= 0
    for e in events if e["ph"] == "X"
), "malformed duration event"
print(f"chrome trace OK: {len(events)} events")
PYEOF
python -m repro.analysis profile artifacts/fig9_cg.spans.json > /dev/null

echo "== advisor smoke (dry run of the real runtime, no kernels) =="
python -m repro.analysis advise examples/advisor_demo.py \
    --machine summit:4 -- --maxiter 2 > /dev/null
# The report's clock and groups are the dry run's own: an elapsed time
# and a non-empty fusion log must reach the JSON.  (The traced
# program's prints precede the report: parse from the first brace.)
advise_json=$(python -m repro.analysis advise --json \
    examples/advisor_demo.py -- --maxiter 2)
printf '%s\n' "$advise_json" | python -c '
import json, sys
out = sys.stdin.read()
report = json.loads(out[out.index("{"):])
assert report["modeled_elapsed_seconds"] > 0, "no modeled elapsed time"
assert report["fusion_groups"], "empty fusion_groups"
'
# The seeded-violations program must make the advisor exit non-zero.
if python -m repro.analysis advise examples/advisor_violations.py \
    --data-scale 4e4 > /dev/null 2>&1; then
    echo "advisor failed to flag seeded violations" >&2
    exit 1
fi

echo "== all checks passed =="
