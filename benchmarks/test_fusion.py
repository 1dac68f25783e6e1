"""Benchmark: task and kernel fusion remove launch and compute overhead.

The paper names task fusion (with tracing) as the fix for Legate's
launch-overhead-bound losses on small-task workloads (§6.1).  With the
deferred fusion window implemented, the overhead-bound CG and GMG
solver loops launch >= 30 % fewer tasks and charge strictly less
modeled issue-clock overhead.  On top of that, merge-safe fused groups
execute as ONE generated loop nest (kernel fusion): intermediates stay
in nest values, shared operands are read once, and merged modeled
compute lands strictly below issue-order replay of the same groups —
all with bitwise-identical numerics across the three modes.  A Fig. 12
training batch -- sparse launches with element-wise glue between them
-- is the third case: the window pays there because independent
non-fusible launches pass it and groups align per region.
"""

from repro.harness.fusion_bench import bench_cg, bench_gmg

MIN_LAUNCHES_SAVED = 0.30


def _assert_triple(fused: dict, replay: dict, unfused: dict) -> None:
    saved = 1.0 - fused["tasks_launched"] / unfused["tasks_launched"]
    assert saved >= MIN_LAUNCHES_SAVED, (
        f"only {100 * saved:.1f}% launches saved"
    )
    assert (
        fused["modeled_launch_overhead_s"]
        < unfused["modeled_launch_overhead_s"]
    )
    assert fused["modeled_time_s"] < unfused["modeled_time_s"]
    assert fused["fused_tasks"] > 0
    assert fused["regions_elided"] > 0
    # Kernel fusion: at least one group was proved merge-safe and ran
    # as a single nest, and merging strictly beat issue-order replay
    # on modeled compute (deduplicated reads, eliminated temporaries).
    assert fused["kernel_merges"] >= 1
    assert replay["kernel_merges"] == 0
    assert fused["modeled_compute_s"] < replay["modeled_compute_s"]
    # Bitwise identity across all three execution strategies.
    assert (
        fused["solution_sha256"]
        == replay["solution_sha256"]
        == unfused["solution_sha256"]
    )


def test_fig9_cg_fusion(benchmark):
    fused = benchmark.pedantic(
        lambda: bench_cg(fusion=True, kernel_fusion=True),
        rounds=1, iterations=1,
    )
    replay = bench_cg(fusion=True, kernel_fusion=False)
    unfused = bench_cg(fusion=False)
    saved = 1.0 - fused["tasks_launched"] / unfused["tasks_launched"]
    print(
        f"\nCG: {unfused['tasks_launched']} -> {fused['tasks_launched']} "
        f"launches ({100 * saved:.1f}% saved), overhead "
        f"{unfused['modeled_launch_overhead_s'] * 1e3:.2f} -> "
        f"{fused['modeled_launch_overhead_s'] * 1e3:.2f} ms, compute "
        f"{replay['modeled_compute_s'] * 1e3:.2f} -> "
        f"{fused['modeled_compute_s'] * 1e3:.2f} ms"
    )
    _assert_triple(fused, replay, unfused)


def test_fig10_gmg_fusion(benchmark):
    fused = benchmark.pedantic(
        lambda: bench_gmg(fusion=True, kernel_fusion=True),
        rounds=1, iterations=1,
    )
    replay = bench_gmg(fusion=True, kernel_fusion=False)
    unfused = bench_gmg(fusion=False)
    saved = 1.0 - fused["tasks_launched"] / unfused["tasks_launched"]
    print(
        f"\nGMG: {unfused['tasks_launched']} -> {fused['tasks_launched']} "
        f"launches ({100 * saved:.1f}% saved), overhead "
        f"{unfused['modeled_launch_overhead_s'] * 1e3:.2f} -> "
        f"{fused['modeled_launch_overhead_s'] * 1e3:.2f} ms, compute "
        f"{replay['modeled_compute_s'] * 1e3:.2f} -> "
        f"{fused['modeled_compute_s'] * 1e3:.2f} ms"
    )
    _assert_triple(fused, replay, unfused)


def _matfact_batches(fusion: bool) -> dict:
    """Two fig12-style training batches on 4 GPUs; the second measured."""
    import hashlib

    import numpy as np

    from repro.apps.matfact import MatrixFactorizationModel
    from repro.legion import Runtime, RuntimeConfig
    from repro.legion.runtime import runtime_scope
    from repro.machine import ProcessorKind, summit

    rt = Runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 4),
        RuntimeConfig.legate(fusion=fusion),
    )
    data = np.random.default_rng(12)
    n, users, items = 20_000, 3_000, 1_000
    u, i = data.integers(0, users, n), data.integers(0, items, n)
    r = data.uniform(1.0, 5.0, n)
    with runtime_scope(rt):
        model = MatrixFactorizationModel(users, items, k=16, mu=3.0, seed=12)
        model.train_batch(u[: n // 2], i[: n // 2], r[: n // 2])
        start = rt.barrier()
        before = rt.profiler.snapshot()
        model.train_batch(u[n // 2 :], i[n // 2 :], r[n // 2 :])
        modeled = rt.barrier() - start
        delta = rt.profiler.since(before)
        sha = hashlib.sha256()
        for a in (model.U, model.V, model.bu, model.bi):
            sha.update(a.to_numpy().tobytes())
    return {
        "tasks_launched": delta.tasks_launched,
        "launches_passed": delta.launches_passed,
        "modeled_launch_overhead_s": delta.launch_overhead_seconds,
        "modeled_time_s": modeled,
        "model_sha256": sha.hexdigest(),
        "labels": {label for _, _, label in rt.fusion_log},
    }


def test_fig12_matfact_window(benchmark):
    """Sparse launches with element-wise glue between them: the window
    pays here because independent non-fusible launches pass it and a
    group aligns per region (U and V updates share a launch)."""
    fused = benchmark.pedantic(
        lambda: _matfact_batches(fusion=True), rounds=1, iterations=1
    )
    unfused = _matfact_batches(fusion=False)
    print(
        f"\nmatfact batch: {unfused['tasks_launched']} -> "
        f"{fused['tasks_launched']} launches "
        f"({fused['launches_passed']} passed the window), modeled "
        f"{unfused['modeled_time_s'] * 1e3:.2f} -> "
        f"{fused['modeled_time_s'] * 1e3:.2f} ms"
    )
    assert fused["model_sha256"] == unfused["model_sha256"]
    assert fused["tasks_launched"] <= 13 < unfused["tasks_launched"]
    assert fused["launches_passed"] >= 2 and unfused["launches_passed"] == 0
    assert (
        fused["modeled_launch_overhead_s"]
        < unfused["modeled_launch_overhead_s"]
    )
    assert fused["modeled_time_s"] < unfused["modeled_time_s"]
    assert "replay:iteration-space-mismatch" not in fused["labels"]
