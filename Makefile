PYTHONPATH := src
export PYTHONPATH

.PHONY: test validate check lint advise bench-e2e \
	bench-smoke bench-pairs profile kernel-fusion overhead census

test:
	python -m pytest -x -q

# Full suite under validation mode: every runtime records an event log,
# sanitizes privileges, and the conftest fixture replays each log
# through the offline checker after every test.
validate:
	REPRO_VALIDATE=1 python -m pytest -x -q

# ruff, or without it the stdlib fallback (F401, F821), as check.sh runs.
lint:
	if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else python3 scripts/lint_fallback.py src tests; fi

check:
	sh scripts/check.sh

# Advisor on the demo program: a dry run's partitions, traffic, footprint
# and modeled time on a 4-node summit, no kernels executed.
advise:
	python -m repro.analysis advise examples/advisor_demo.py --machine summit:4

# Kernel-fusion demo: runs a CG solve with the fusion window (merged
# loop nests) and with fusion=False (bitwise-identical by construction)
# and prints the per-group merge verdicts from the dependence analyzer,
# then the advisor, whose dry run carries the same verdicts as
# kernel-merge findings.
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
# choosing-metrics section 8.  Ten pairs of cg_wide take about 8 minutes;
# WORKLOAD=all runs every workload of BENCHMARK.json in turn.
PARENT ?= HEAD~1
WORKLOAD ?= cg_wide
PAIRS ?= 10
SEED ?= 0
bench-pairs:
	sh scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# Host-runtime scale probe: CG at summit:64 and summit:1024, host
# seconds per 1k launches with host phases and cache counters, writes
# BENCH_runtime_overhead.json.  Enforces nothing — the number ROADMAP
# item 2 tracks until bench/ has a workload this wide.
overhead:
	python scripts/overhead.py

# Call census: runs the examples, check.sh's CLIs, the bench workloads,
# smoke and self-test, scripts/overhead.py, benchmarks/ and report --fast,
# then tier-1, each under a chained profile hook; writes every
# definition's reach and verdict to the ignored artifacts/census.json
# (`python3 scripts/census.py --out PATH` keeps one elsewhere).
# Evidence, not a gate (about 10 minutes on 2 vCPUs).
census:
	python3 scripts/census.py

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
