"""``Runtime.reset_for_program``: program-boundary state leak regression.

A runtime historically lived as long as one program; a serving host
reuses one across many.  These tests pin each audited leak closed:
the deferred fusion window, the checkpoint cadence counter, the
recovery journal, the fusion/autoformat logs, and the structural
caches (opt-in) — while proving numerics of a reused runtime match a
fresh one bitwise.
"""

import numpy as np
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.runtime import Runtime, RuntimeConfig, runtime_scope
from repro.machine import ProcessorKind, laptop

N = 40


def _runtime(**overrides):
    machine = laptop()
    return Runtime(
        machine.scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(**overrides),
    )


def _host_matrix(seed=0):
    return sps.random(
        N, N, density=0.2, random_state=seed, format="csr", dtype=np.float64
    )


def _program(rt, seed):
    """One client program: build a matrix, SpMV, return host bytes."""
    rng = np.random.default_rng(seed)
    with runtime_scope(rt):
        A = sp.csr_matrix(_host_matrix(seed))
        y = (A @ rnp.asarray(rng.standard_normal(N))).to_numpy().copy()
    return y


def test_reset_flushes_the_deferred_window():
    rt = _runtime()
    with runtime_scope(rt):
        A = sp.csr_matrix(_host_matrix())
        y = A @ rnp.asarray(np.ones(N))
        # Launches may still sit in the deferred window here...
        rt.reset_for_program()
        # ...but a program boundary is a sync point: nothing buffered
        # may flush into the next program.
        assert rt._window == []
        assert rt._window_refs == {}
        assert rt._pending_writes is None
        # The computed value was not lost by the flush.
        np.testing.assert_allclose(y.to_numpy(), _host_matrix() @ np.ones(N))


def test_reset_clears_checkpoint_cadence_counter():
    # A far-future scheduled loss turns journaling on; the cadence of
    # 100 launches never fires within one small program.
    chaos = ChaosConfig(
        seed=0,
        checkpoint_every=100,
        losses=(LossSchedule("gpu", 0, 1e9),),
    )
    rt = _runtime(chaos=chaos)
    _program(rt, 0)
    assert rt._launches_since_ckpt > 0  # the leak: carried into program 2
    ckpts_before = rt.profiler.checkpoints
    rt.reset_for_program()
    assert rt._launches_since_ckpt == 0
    # Journaled work existed, so the boundary took a real checkpoint
    # (coverage is never silently dropped).
    assert rt.profiler.checkpoints == ckpts_before + 1
    assert rt._journal == []
    assert not rt._freed_uids


def test_reset_without_journaling_skips_checkpoint():
    rt = _runtime()  # no chaos -> no journaling
    _program(rt, 0)
    rt.reset_for_program()
    assert rt.profiler.checkpoints == 0


def test_reset_clears_fusion_and_autoformat_logs():
    rt = _runtime(autoformat=True)
    _program(rt, 0)
    rt.fusion_log.append(("sentinel",))
    rt.autoformat_log.append(("sentinel",))
    rt.reset_for_program()
    assert rt.fusion_log == []
    assert rt.autoformat_log == []


def test_reset_keeps_structural_caches_warm_by_default():
    rt = _runtime()
    _program(rt, 0)
    rt.reset_for_program()
    warm = len(rt._solve_memo)
    _program(rt, 0)
    # Identical program shape: the memo served from cache, not regrown.
    assert len(rt._solve_memo) == warm
    rt.reset_for_program(clear_caches=True)
    assert len(rt._solve_memo) == 0
    assert len(rt._fusion_cache) == 0
    assert len(rt._nest_cache) == 0


def test_reused_runtime_matches_fresh_runtime_bitwise():
    """Back-to-back programs on one reset runtime produce exactly the
    bytes each program produces on its own fresh runtime."""
    reused = _runtime()
    got = []
    for seed in (1, 2, 3):
        got.append(_program(reused, seed))
        reused.reset_for_program()
    for seed, y in zip((1, 2, 3), got):
        fresh = _program(_runtime(), seed)
        assert y.tobytes() == fresh.tobytes()


def test_reset_drops_traces():
    """The registry, an open scope and the template epoch: one
    program's captured bodies never discount the next program's."""
    rt = _runtime()
    trace = rt.trace("loop", key=(1,))
    assert rt.trace("loop", key=(1,)) is trace
    epoch = rt._template_epoch
    with trace:
        rt.reset_for_program()
        assert rt._trace is None
    assert rt.trace("loop", key=(1,)) is not trace
    assert rt._template_epoch > epoch


def test_profiler_counters_survive_reset():
    rt = _runtime()
    _program(rt, 0)
    launched = rt.profiler.tasks_launched
    assert launched > 0
    rt.reset_for_program()
    # Cumulative observability state is not program-scoped.
    assert rt.profiler.tasks_launched == launched
