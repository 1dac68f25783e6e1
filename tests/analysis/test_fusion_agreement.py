"""Advisor-vs-runtime fusion agreement (the ISSUE's acceptance check).

Run workloads in capture-alongside mode with fusion *enabled*: the plan
records every op pre-fusion while the runtime's deferred window fuses
for real, logging each flushed group into ``Runtime.fusion_log``.  The
advisor then replays the plan through the same window simulation
(:func:`repro.legion.fusion.plan_window` over the same sync points) and
its predicted groups must agree *exactly* — group by group, name by
name, elision count by elision count.
"""

import numpy as np

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.advisor import advise, analyze
from repro.analysis.plan import PlanTrace
from repro.apps.poisson import poisson2d_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


def capture_fused(fn, procs=2):
    """Run ``fn`` with validation AND fusion on; return (plan, runtime)."""
    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(validate=True, fusion=True),
    )
    plan = PlanTrace(name=getattr(fn, "__name__", "capture"), deferred=False)
    plan.bind(runtime)
    runtime.plan_trace = plan
    try:
        with runtime_scope(runtime):
            fn()
    finally:
        runtime.plan_trace = None
    return plan, runtime


def assert_fusion_agreement(plan, runtime):
    advice = analyze(plan)
    assert advice.fusion_groups == runtime.fusion_log
    return advice


def test_elementwise_chain_agreement():
    def workload():
        x = rnp.array(np.linspace(0.0, 1.0, 128))
        b = rnp.ones(128)
        for _ in range(3):
            x = (x * 0.5 + b) - x * x

    plan, runtime = capture_fused(workload)
    advice = assert_fusion_agreement(plan, runtime)
    # The chain actually fused and elided temporaries, on both sides.
    assert any(len(names) > 1 for names, _, _ in advice.fusion_groups)
    assert any(elided > 0 for _, elided, _ in advice.fusion_groups)
    # The chain is pure known-op pointwise code: at least one group
    # must carry a merge-safe verdict on both sides.
    assert any(v == "merged" for _, _, v in advice.fusion_groups)
    assert runtime.profiler.fused_tasks > 0


def test_fig9_cg_agreement():
    def workload():
        A = sp.csr_matrix(poisson2d_scipy(14))
        b = rnp.ones(A.shape[0])
        sp.linalg.cg(A, b, rtol=0.0, maxiter=4)

    plan, runtime = capture_fused(workload)
    advice = assert_fusion_agreement(plan, runtime)
    assert any(len(names) > 1 for names, _, _ in advice.fusion_groups)
    assert any(v == "merged" for _, _, v in advice.fusion_groups)
    # SpMV (image-constrained) never enters the window on either side.
    for names, _, _ in advice.fusion_groups:
        assert not any("A(i,j)" in n for n in names)


REDUCTIONS = {"vdot", "norm2"}


def _groups_with_reductions(groups):
    return [names for names, _, _ in groups if REDUCTIONS & set(names)]


def test_cg_reduction_groups_agreement():
    """Windows that hold reductions: the advisor places each vdot and
    norm in the group the runtime does -- the norm hoisted beside the
    vdot, the p update (which takes the vdot's future) in the next --
    and gives every group the runtime's verdict."""
    def workload():
        A = sp.csr_matrix(poisson2d_scipy(14))
        b = rnp.ones(A.shape[0])
        sp.linalg.cg(A, b, rtol=0.0, maxiter=3)

    plan, runtime = capture_fused(workload)
    advice = assert_fusion_agreement(plan, runtime)
    tail = ("multiply", "add", "multiply", "subtract", "vdot", "norm2")
    assert _groups_with_reductions(advice.fusion_groups).count(tail) == 3
    assert (tail, 2, "merged") in advice.fusion_groups
    # Never the consumer of a future beside its producer.
    follows = [
        advice.fusion_groups[i + 1][0]
        for i, group in enumerate(advice.fusion_groups[:-1])
        if group[0] == tail
    ]
    assert follows == [("multiply", "add")] * 3
    assert runtime.profiler.allreduces == 2 + 2 * 3


def test_pcg_reduction_groups_agreement():
    """With a preconditioner between the r update and vdot(r, z)."""
    def workload():
        from repro.core.linalg.preconditioners import jacobi

        A = sp.csr_matrix(poisson2d_scipy(14))
        b = rnp.ones(A.shape[0])
        sp.linalg.cg(A, b, rtol=0.0, maxiter=3, M=jacobi(A))

    plan, runtime = capture_fused(workload)
    advice = assert_fusion_agreement(plan, runtime)
    with_reductions = _groups_with_reductions(advice.fusion_groups)
    assert any({"vdot", "norm2"} <= set(names) for names in with_reductions)
    assert runtime.profiler.allreduces == 2 + 2 * 3


def test_deferred_trace_predicts_the_reduction_groups():
    """``advise`` runs no kernel: reductions hand out placeholders that
    stay pending until the next sync, so the plan records the same
    future-dependence edges and the predicted groups are the ones a
    real run of the same fixed-length program logs."""
    def workload():
        A = sp.csr_matrix(poisson2d_scipy(14))
        b = rnp.ones(A.shape[0])
        sp.linalg.cg(A, b, rtol=0.0, maxiter=3)

    _, runtime = capture_fused(workload)
    advice = advise(
        workload, machine=laptop(), procs=2,
        config=RuntimeConfig.legate(fusion=True),
    )
    assert advice.fusion_groups == runtime.fusion_log


def test_fig10_gmg_agreement():
    def workload():
        from repro.apps.multigrid import TwoLevelGMG

        k = 13
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(k * k)
        gmg = TwoLevelGMG(A, k, coarse_rtol=0.0, coarse_maxiter=4)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=2, M=gmg.as_preconditioner())

    plan, runtime = capture_fused(workload)
    assert_fusion_agreement(plan, runtime)
    assert runtime.profiler.fused_tasks > 0


def test_fusion_off_predicts_no_groups():
    def workload():
        x = rnp.ones(64)
        x = x * 2.0 + 1.0

    machine = laptop()
    runtime = Runtime(
        machine.scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(validate=True, fusion=False),
    )
    plan = PlanTrace(name="off", deferred=False)
    plan.bind(runtime)
    runtime.plan_trace = plan
    try:
        with runtime_scope(runtime):
            workload()
    finally:
        runtime.plan_trace = None
    advice = analyze(plan)
    assert advice.fusion_groups == []
    assert runtime.fusion_log == []
