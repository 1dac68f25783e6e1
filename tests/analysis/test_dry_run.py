"""Dry run vs real run: the differential test behind the advisor.

A dry run is the real ``Runtime`` with kernels skipped, so for one
program, config and machine the two must agree on everything that does
not depend on computed values: the event log (kind, region, rect,
memories, bytes, start/finish), ``fusion_log``, ``elapsed()``, the
profiler's counts and every memory's peak.  Where a kernel *produces
sparse structure* (GMG's Galerkin product) the dry run sees an empty
structure: launches, shards, allreduces and fused groups are still
exact, halo copies over that structure can only be missing: kernel
seconds agree to ``STRUCTURE_RTOL``, and the dry run finishes no later
than the real run and no earlier than the real run's missing copies
account for.  Row expansion declares itself a structure kernel, which
a dry run calls, alone or inside a fused group: a matfact batch, whose
gathers take images of the expanded rows, agrees exactly.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis import advise
from repro.analysis.advisor import copy_seconds, dry_run
from repro.analysis.events import EventLog
from repro.apps.poisson import poisson2d_scipy
from repro.constraints import AutoTask
from repro.harness.experiments.fig8_spmv import banded_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.coherence import RegionCoherence
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop, summit

# Kernel seconds over kernel-produced structure: an empty coarse
# operator or gather index costs its launches' fixed terms only.
# Measured 1.7e-4 (GMG 13^2).  Elapsed time is bounded by the copies
# the dry run misses instead (``missing_copy_seconds``).
STRUCTURE_RTOL = 1e-3


def fig8_spmv():
    A = sp.csr_matrix(banded_scipy(600))
    v = rnp.ones(A.shape[1])
    for _ in range(4):
        A @ v


def cg(maxiter=4, k=16):
    A = sp.csr_matrix(poisson2d_scipy(k))
    sp.linalg.cg(A, rnp.ones(A.shape[0]), rtol=0.0, maxiter=maxiter)


def reduce_folds():
    A = sp.csr_matrix(banded_scipy(300, band=2))
    A.T @ rnp.ones(A.shape[0])
    A.sum(axis=0)


def pcg_gmg():
    from repro.apps.multigrid import TwoLevelGMG

    k = 13
    A = sp.csr_matrix(poisson2d_scipy(k))
    gmg = TwoLevelGMG(A, k, coarse_rtol=0.0, coarse_maxiter=4)
    sp.linalg.cg(
        A, rnp.ones(k * k), rtol=0.0, maxiter=2, M=gmg.as_preconditioner()
    )


def matfact_batch():
    from repro.apps.matfact import MatrixFactorizationModel

    rng = np.random.default_rng(3)
    users, items = rng.integers(0, 60, 600), rng.integers(0, 40, 600)
    model = MatrixFactorizationModel(60, 40, k=4, mu=2.5, seed=0)
    model.train_batch(users, items, rng.random(600) * 5)


EXACT = [fig8_spmv, cg, reduce_folds]
STRUCTURE = [pcg_gmg, matfact_batch]
SCOPES = {
    "laptop-1": lambda: laptop().scope(ProcessorKind.GPU, 1),
    "laptop-2": lambda: laptop().scope(ProcessorKind.GPU, 2),
    "summit-1": lambda: summit(nodes=2).scope(ProcessorKind.GPU, 1, 2),
    "summit-2": lambda: summit(nodes=2).scope(ProcessorKind.GPU, 2, 2),
    # Two GPUs per node: the third processor sits across the NIC.
    "summit-3": lambda: summit(nodes=2).scope(ProcessorKind.GPU, 3, 2),
}


def canonical(log):
    """The log with region uids numbered by first appearance."""
    ids = {}

    def norm(ev):
        row = {f.name: getattr(ev, f.name) for f in dataclasses.fields(ev)}
        row.pop("region_name", None)
        if "region" in row:
            row["region"] = ids.setdefault(row["region"], len(ids))
        if "reqs" in row:
            row["reqs"] = tuple(norm(req) for req in row["reqs"])
        return tuple(row.items())

    return [norm(ev) for ev in log.events]


def timed_copies(rt):
    """Every logged copy as ``(what it moves, finish - start)``.

    What it moves is (region, rect, endpoints, bytes, why), the region
    numbered by first appearance outside copies, where a dry and a real
    run agree.  No fault is injected here, so a copy holds its route for
    latency plus bytes over bandwidth."""
    events = rt.event_log.events
    ids = {}
    for ev in events:
        for req in getattr(ev, "reqs", ()):
            ids.setdefault(req.region, len(ids))
        if ev.kind != "copy" and hasattr(ev, "region"):
            ids.setdefault(ev.region, len(ids))
    out = []
    for ev in events:
        if ev.kind != "copy":
            continue
        _, latency, bandwidth = rt._route(
            rt._memory_by_uid(ev.src_memory), rt._memory_by_uid(ev.dst_memory)
        )
        nbytes = int(ev.nbytes * rt.config.effective_comm_scale)
        key = (
            ids.setdefault(ev.region, len(ids)), ev.rect,
            ev.src_memory, ev.dst_memory, ev.nbytes, ev.why,
        )
        out.append((key, latency + nbytes / bandwidth))
    return out


def observe(rt):
    prof = rt.profiler
    return {
        "log": canonical(rt.event_log),
        "fusion_log": list(rt.fusion_log),
        "elapsed": rt.elapsed(),
        "kernel_seconds": prof.kernel_seconds,
        "launches": (prof.tasks_launched, prof.shards_executed),
        "allreduces": prof.allreduces,
        "copies": (dict(prof.copy_count), dict(prof.copy_bytes)),
        "copy_seconds": copy_seconds(prof, rt.machine),
        "peaks": [rt.instances.peak_bytes(m) for m in rt.machine.memories],
        "timed_copies": timed_copies(rt),
    }


def missing_copy_seconds(dry, real):
    """Summed ``finish - start`` of the real run's copies that the dry
    run never made: the most those copies can delay the real run."""
    made = Counter(key for key, _ in dry["timed_copies"])
    missing = 0.0
    for key, seconds in real["timed_copies"]:
        if made[key]:
            made[key] -= 1
        else:
            missing += seconds
    return missing


def run_dry(fn, scope, fusion=True):
    config = RuntimeConfig.legate(validate=False, fusion=fusion)
    return observe(dry_run(fn, SCOPES[scope](), config).runtime)


def run_real(fn, scope, fusion=True):
    rt = Runtime(
        SCOPES[scope](), RuntimeConfig.legate(validate=False, fusion=fusion)
    )
    rt.event_log = EventLog(name="real")  # a log, without validation
    with runtime_scope(rt):
        fn()
    return observe(rt)


def not_copies(log):
    kinds = (dict(row)["kind"] for row in log)
    return [kind for kind in kinds if kind != "copy"]


def assert_same(dry, real):
    for key in real:
        assert dry[key] == real[key], key


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
@pytest.mark.parametrize("fn", EXACT, ids=lambda fn: fn.__name__)
def test_attached_structure_agrees_exactly(fn, fusion, scope):
    dry, real = run_dry(fn, scope, fusion), run_real(fn, scope, fusion)
    assert_same(dry, real)
    assert bool(real["fusion_log"]) == fusion  # off: nothing is deferred


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
@pytest.mark.parametrize("fn", STRUCTURE, ids=lambda fn: fn.__name__)
def test_kernel_produced_structure_agrees_on_counts(fn, fusion, scope):
    dry, real = run_dry(fn, scope, fusion), run_real(fn, scope, fusion)
    for key in ("fusion_log", "launches", "allreduces"):
        assert dry[key] == real[key], key
    assert not_copies(dry["log"]) == not_copies(real["log"])
    for kind, count in dry["copies"][0].items():
        assert count <= real["copies"][0][kind]
    assert dry["kernel_seconds"] == pytest.approx(
        real["kernel_seconds"], rel=STRUCTURE_RTOL
    )
    # Halo copies over the structure the dry run does not see delay the
    # real run, by no more than they take.
    assert dry["elapsed"] <= real["elapsed"]
    assert real["elapsed"] - dry["elapsed"] <= missing_copy_seconds(dry, real)


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
def test_a_dry_run_expands_rows_so_a_matfact_batch_agrees_exactly(
    fusion, scope
):
    assert_same(
        run_dry(matfact_batch, scope, fusion),
        run_real(matfact_batch, scope, fusion),
    )


def test_mutant_dry_run_without_structure_kernels_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(AutoTask, "set_structure", lambda self: None)
        dry = run_dry(matfact_batch, "summit-3")
    real = run_real(matfact_batch, "summit-3")
    assert dry["copies"] != real["copies"]


def test_mutant_dry_run_without_mark_written_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(RegionCoherence, "mark_written", lambda *a: None)
        patch.setattr(RegionCoherence, "write_complete", lambda *a: None)
        dry = run_dry(cg, "laptop-2")
    with pytest.raises(AssertionError):
        assert_same(dry, run_real(cg, "laptop-2"))


def test_mutant_dry_run_without_the_allreduce_charge_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(
            Runtime, "_allreduce_ready",
            lambda self, p, times, op, nbytes: max(times),
        )
        dry = run_dry(cg, "laptop-2")
    real = run_real(cg, "laptop-2")
    assert dry["log"] != real["log"] and dry["elapsed"] < real["elapsed"]


# ----------------------------------------------------------------------
# What the report says is what the run did
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maxiter", [6, 96])
def test_advised_peak_is_the_real_peak_at_any_maxiter(maxiter):
    """Regression: a traced program never freed a temporary, so the
    advised footprint grew with the iteration count (108 864 B at 6,
    1 162 944 B at 96, against a real 41 472 B)."""
    advice = advise(cg, maxiter, 24, machine=laptop(), procs=2)
    rt = Runtime(
        laptop().scope(ProcessorKind.GPU, 2), RuntimeConfig.legate()
    )
    with runtime_scope(rt):
        cg(maxiter, 24)
    peaks = {rt.instances.peak_bytes(m) for m in rt.machine.memories}
    assert {m.peak_bytes for m in advice.memories} == peaks - {0}
    # Report fidelity: the three clocks are the run's own.
    assert advice.modeled_elapsed_seconds == rt.elapsed()
    assert advice.est_kernel_seconds == rt.profiler.kernel_seconds
    assert advice.est_copy_seconds == copy_seconds(rt.profiler, rt.machine)
    assert advice.fusion_groups == rt.fusion_log
    assert advice.to_dict()["modeled_elapsed_seconds"] == rt.elapsed()
    assert f"elapsed {rt.elapsed():.3e}s" in advice.format_text()


def test_advisor_imports_no_mapping_layer():
    """The advisor lints a run; it cannot grow a second mapper."""
    import repro.analysis.advisor as advisor

    banned = {
        "repro.constraints.solver", "repro.legion.coherence",
        "repro.legion.instance", "repro.legion.fusion",
    }
    imported = set()
    for node in ast.walk(ast.parse(Path(advisor.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported |= {f"{node.module}.{a.name}" for a in node.names}
    assert not banned & imported
