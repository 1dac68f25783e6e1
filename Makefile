PYTHONPATH := src
export PYTHONPATH

.PHONY: test validate check lint advise autoformat bench bench-e2e \
	bench-smoke bench-pairs chaos soak profile kernel-fusion overhead serve

test:
	python -m pytest -x -q

# Full suite under validation mode: every runtime records an event log,
# sanitizes privileges, and the conftest fixture replays each log
# through the offline checker after every test.
validate:
	REPRO_VALIDATE=1 python -m pytest -x -q

lint:
	ruff check src tests

check:
	sh scripts/check.sh

# Advisor on the demo program: a dry run's partitions, traffic, footprint
# and modeled time on a 4-node summit, no kernels executed.
advise:
	python -m repro.analysis advise examples/advisor_demo.py --machine summit:4

# Static auto-format pass on the skew-SpMV demo: ranked ELL / SELL-C-sigma
# / HYB recommendations per operand plus the format lint battery
# (unamortized conversions are errors under --autoformat).
autoformat:
	python -m repro.analysis advise examples/format_advisor_demo.py --autoformat

# Kernel-fusion demo: runs a CG solve with merged loop nests on and off
# (bitwise-identical by construction) and prints the per-group merge
# verdicts from the dependence analyzer, then the advisor, whose dry run
# carries the same verdicts as kernel-merge findings.
kernel-fusion:
	python examples/kernel_fusion_demo.py
	python -m repro.analysis advise examples/advisor_demo.py -- --maxiter 2

# THE benchmark (BENCHMARK.json): four workloads, both clocks, medians
# over 5 fresh processes x 3 repeats.  Every performance claim is a
# (metric, workload) pair from here -- `python3 bench/run.py compare
# A.json B.json` between two commits, `--trace` for the per-layer split.
# Results go to bench/out/ (ignored).  See bench/README.md.
bench-e2e:
	python3 bench/run.py

# The same harness at tiny sizes with every check on (< 30 s), then its
# own self-test.  Writes only under bench/out/.
bench-smoke:
	python3 bench/run.py --smoke
	python3 bench/run.py --selftest

# The evidence for a host-time claim: PAIRS alternating runs of one
# workload on the PARENT commit (git-archived into artifacts/parent/)
# and on the working tree, with the median / quartiles / wins table of
# choosing-metrics section 8.  Ten pairs of cg_wide take about 8 minutes.
PARENT ?= HEAD~1
WORKLOAD ?= cg_wide
PAIRS ?= 10
SEED ?= 0
bench-pairs:
	sh scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# The drivers below are correctness gates, not perf evidence (that is
# bench-e2e); each writes its payload under the ignored artifacts/.
#
# Fusion benchmark: merged vs replay vs unfused CG + GMG, writes
# BENCH_fusion.json and fails if fusion saves < 30% of launches, if no
# merge-safe group runs as a single loop nest with strictly lower
# modeled compute than replay, or if any bit changes.
# Format benchmark: CSR vs the advised format on a power-law skew SpMV,
# writes BENCH_format.json and fails unless the advised run charges
# strictly less modeled compute with bitwise-identical results.
bench:
	python scripts/bench.py
	python scripts/format.py

# Host-runtime scale probe: CG at summit:64 and summit:1024, host
# seconds per 1k launches with host phases and cache counters, writes
# BENCH_runtime_overhead.json.  Enforces nothing — the number ROADMAP
# item 2 tracks until bench/ has a workload this wide.
overhead:
	python scripts/overhead.py

# Chaos benchmark: CG under deterministic fault schedules (transient
# copy/alloc faults, GPU loss + checkpoint/replay recovery), writes
# BENCH_chaos.json and fails unless every run is bitwise-identical to
# the fault-free baseline, checker-clean and within bounded overhead.
chaos:
	python scripts/chaos.py

# Chaos soak fuzzer: seeded randomized multi-fault schedules (concurrent
# node+GPU losses, losses during checkpoint drains and journal replays,
# fault storms at varying replica counts) against the fig9 CG loop,
# writes BENCH_soak.json and fails if any scenario breaks the soak
# invariant: complete bitwise-identical with a checker-clean log, or
# raise a clean FaultError — never a silent wrong answer.
soak:
	python scripts/soak.py

# Serve benchmark: seeded load generator against the multi-tenant
# serving layer (admission control, fair-share windows, cross-request
# SpMV batching, result cache, chaos isolation), writes BENCH_serve.json
# and fails unless batched results are bitwise-identical to per-request
# execution, batching strictly reduces modeled launch overhead, and the
# simulated/sync/asyncio backends serve identical bits.
serve:
	python scripts/serve.py

# Timeline profiling: fig9 CG + fig10 GMG with span recording on.
# Writes Chrome traces (open in chrome://tracing or ui.perfetto.dev)
# and native span logs under artifacts/, then prints the offline
# utilization/critical-path analysis of the CG trace.
profile:
	mkdir -p artifacts
	python -m repro.harness.experiments.fig9_cg \
	    --profile artifacts/fig9_cg.trace.json
	python -m repro.harness.experiments.fig10_gmg \
	    --profile artifacts/fig10_gmg.trace.json
	python -m repro.analysis profile artifacts/fig9_cg.spans.json
