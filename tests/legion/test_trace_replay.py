"""Traces replay on both clocks -- and the host templates are neutral.

* **matching** -- a position matches by structural fingerprint, not by
  task name: the same names over other shapes or another partition do
  not replay; journal replay after a loss never goes through a trace;
* **neutrality** -- with ``trace_replay_fraction=1.0`` the fig9 CG, the
  spill/eviction run and a two-level GMG PCG reproduce, event for event
  and to the modeled second, digests recorded from the runtime *before*
  any scope was opened or template kept (CG and the V-cycles open their
  scopes themselves, so every run below is a traced one);
* **the discount** -- at ``0.15`` only times move: the event log
  without times and the solution bits equal the run at ``1.0``, and the
  launch overhead is ``overhead x (full + 0.15 x replayed)``;
* **divergence** -- a mismatch mid-body runs the rest dynamically and
  re-captures, an epoch bump (recovery, pressure relief) re-captures, a
  body that diverges every time backs off;
* **lifetime** -- a template keeps no region alive;
* **mutation** -- the tests above can fail: a runtime that never bumps
  the epoch, a fingerprint blind to partitions and a lane that drops the
  LRU tick each fail a named test.
"""

import contextlib
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.analysis.events import EventLog
from repro.apps.multigrid import TwoLevelGMG
from repro.apps.poisson import poisson2d_scipy
from repro.constraints.task import AutoTask
from repro.legion import Runtime, RuntimeConfig, Tiling, Trace
from repro.legion import runtime as runtime_module
from repro.legion import tracing
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.instance import MemoryState
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind, laptop, summit
from repro.machine.model import MachineConfig

from tests.legion.test_coherence_index import (
    GOLDEN_LOG, GOLDEN_LOG_UNFUSED, GOLDEN_SOLUTION, GPUS, GRID,
    _canonical_log,
)
from tests.legion import test_fastpath as fastpath_tests
from tests.legion.test_mapping_lane import GOLDEN_SPILL

# The same two digests of _lru_program below, recorded at fb01e37: the
# array read last survives the pressure that follows.
GOLDEN_LRU = "beb915e252f32fa018eaf4b09aaf0940b9a0ca16901d5b140ddcf9c001cae400"

# sha256 over the canonical event log + modeled seconds (and over the
# solution bytes) of _gmg_pcg below, validated or not.  GOLDEN_GMG is
# the ``fusion=True`` run and was re-recorded three times.  When scalar
# reductions joined the deferred window (it was d535fb33...7d42 from
# fb01e37 -- no scope in cg or vcycle, no template anywhere -- to
# 0a10023): 133 launches and 42 allreduces where there were 178 and 62.
# And when independent non-fusible launches began to pass the window
# (it was c5cb2205...697b from cfa088a to 919c296): 4 of the program's
# launches run ahead of deferred ones they do not depend on, so those
# events change places in the log and modeled seconds go from
# 0.020844158819 to 0.020844158598; still 133 launches, 42 allreduces.
# And when generated kernels joined the window (it was 7c2d33ea...c43f
# from 919c296 to 71733fd): each SpMV shares a launch with its
# neighbours, 88 launches and 43 allreduces (a norm hoists to the
# group before its vdot's), modeled seconds 0.014864354461.
# GOLDEN_GMG_UNFUSED is the run with ``fusion=False`` (288 launches, 62
# allreduces), recorded at 0a10023 before that change touched ``src/``:
# the runtime's eager path it pins must never move.  Both moved once
# with the *program*: when ``cg`` began to issue each iteration's SpMV
# before its convergence wait and ``_setup`` stopped waiting on ||b||
# (they were 6b4870d0...7008 and c9c546c9...b292 up to 9e88c84).  Fused,
# the longer windows meet the 16-launch capacity where waits used to
# flush them, which splits two groups: 90 launches, still 43 allreduces,
# modeled seconds 0.013814141789.  Eager: 288 launches and 62
# allreduces in another order.  The check-first loop kept in
# tests/core/test_cg_spmv_before_wait.py still gives back both old digests.
# The solution bytes are one digest for all of them.
GOLDEN_GMG = "d18d6257ab4d81de549bfa6467dc78e61d6d0c3220a9d7beb913d94c0d94bab3"
GOLDEN_GMG_UNFUSED = (
    "0a22e67a8deea6d1c4f81a2aa4a38a92c5c639f04f2f7c7776f2d743102774eb"
)
GOLDEN_GMG_SOLUTION = (
    "02f52a2bb9037fd30bdd145ea6ad0b9b21edaaf231cba52dd23a882f25ecdab1"
)

OVERHEAD = 1e-3


def _runtime(scope=None, **config) -> Runtime:
    rt = Runtime(
        scope or laptop().scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(**config),
    )
    if rt.event_log is None:
        rt.event_log = EventLog(name="trace-replay")
    return rt


def _digest(rt: Runtime, modeled: float, times: bool = True) -> str:
    digest = hashlib.sha256()
    for line in _canonical_log(rt.event_log):
        if not times:
            event = json.loads(line)
            event.pop("start", None)
            event.pop("finish", None)
            line = json.dumps(event, sort_keys=True)
        digest.update(line.encode())
    if times:
        digest.update(repr(modeled).encode())
    return digest.hexdigest()


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _replayed(rt: Runtime, *traces: Trace) -> int:
    """Executed launches charged at the fraction, over the runtime's
    own traces and any private ones."""
    return sum(
        t.replayed_launches for t in (*rt._traces.values(), *traces)
    )


def _assert_overhead_is_full_plus_discounted(rt: Runtime, *traces: Trace):
    config = rt.config
    replayed = _replayed(rt, *traces)
    full = rt.profiler.tasks_launched - replayed
    assert rt.profiler.launch_overhead_seconds == pytest.approx(
        config.launch_overhead
        * (full + config.trace_replay_fraction * replayed),
        rel=1e-12,
    )
    return replayed


def power_step(A, x):
    y = A @ x
    y /= rnp.linalg.norm(y)
    return y


# ----------------------------------------------------------------------
# Matching: a structural fingerprint per position, not the task name
# ----------------------------------------------------------------------
def test_same_names_over_other_shapes_do_not_replay():
    """One trace object reused for a 10 000-row and a 100-row system:
    equal task names, nothing to replay (a name-list matcher charged
    the second body 0.15)."""
    rt = _runtime(launch_overhead=OVERHEAD)
    with runtime_scope(rt):
        big, small = sp.eye(10_000, format="csr"), sp.eye(100, format="csr")
        x, y = rnp.ones(10_000), rnp.ones(100)
        rt.barrier()
        trace = Trace(rt, "power-iter")
        with trace:
            x = power_step(big, x)
        rt.barrier()
        launched = rt.profiler.tasks_launched
        charged = rt.profiler.launch_overhead_seconds
        with trace:
            y = power_step(small, y)
        rt.barrier()
    assert trace.replays == 0 and trace.replayed_launches == 0
    assert (trace.captures, trace.divergences) == (2, 1)
    body = rt.profiler.tasks_launched - launched
    assert body == 2  # {SpMV, norm} and the divide
    assert rt.profiler.launch_overhead_seconds - charged == pytest.approx(
        body * OVERHEAD, rel=1e-12
    )


def _repartitioned_program(traced: bool):
    """Three power steps; before the third, x's key partition moves."""
    rt = _runtime(trace_replay_fraction=1.0)
    with runtime_scope(rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        rt.barrier()
        trace = Trace(rt, "power-iter")
        for step in range(3):
            if step == 2:
                x.store.set_key_partition(Tiling(x.store.region, (0, 10, 64)))
            with trace if traced else contextlib.nullcontext():
                x = x * 0.5
                x = power_step(A, x)
        modeled = rt.barrier()
    return rt, trace, modeled


def test_repartitioned_operand_does_not_replay():
    """Same shapes, another key partition: the position's solve plan and
    row shapes belong to the old tiling and must not be reused -- the
    body diverges and every shard covers what the untraced run's does."""
    rt, trace, modeled = _repartitioned_program(traced=True)
    assert (trace.captures, trace.replays, trace.divergences) == (2, 1, 1)
    plain, _, plain_modeled = _repartitioned_program(traced=False)
    assert _digest(rt, modeled) == _digest(plain, plain_modeled)


def _lossy_cg(fraction: float, chaos=None):
    rt = _runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 2, per_node=2),
        chaos=chaos, trace_replay_fraction=fraction,
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(16))
        b = rnp.ones(256)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up: the capture
        t0 = rt.barrier()
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        t1 = rt.barrier()
        solution = x.to_numpy().copy()
    return rt, (t0 + t1) / 2, solution


def test_recovery_launches_bypass_the_trace():
    """A GPU lost inside a scope: the re-executed journal is charged in
    full and recorded nowhere, the open body diverges, the epoch moves
    (the goldens of test_mapping_lane are this run at 1.0)."""
    _, midway, fault_free = _lossy_cg(0.15)
    chaos = ChaosConfig(
        checkpoint_every=16, losses=(LossSchedule("gpu", 1, midway),)
    )
    rt, _, recovered = _lossy_cg(0.15, chaos)
    assert rt.profiler.faults_injected["gpu-loss"] == 1
    assert rt.profiler.tasks_reexecuted > 0
    assert np.array_equal(recovered, fault_free)
    assert rt._template_epoch == 1
    trace = next(iter(rt._traces.values()))
    assert trace.replays > 0
    # The body the loss fell into kept nothing; the next one captured.
    assert trace.captures == 2
    replayed = _assert_overhead_is_full_plus_discounted(rt)
    assert 0 < replayed < rt.profiler.tasks_launched - rt.profiler.tasks_reexecuted


# ----------------------------------------------------------------------
# Neutrality at 1.0 and the discount at 0.15
# ----------------------------------------------------------------------
def _assert_fig9_cg_replays_and_matches(golden: str, fusion: bool) -> None:
    rt = _runtime(
        summit(nodes=4).scope(ProcessorKind.GPU, GPUS),
        validate=True, trace_replay_fraction=1.0, fusion=fusion,
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(GRID))
        b = rnp.ones(GRID * GRID)
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        modeled = rt.barrier()
        solution = x.to_numpy()
    (trace,) = rt._traces.values()
    assert (trace.captures, trace.replays) == (1, 3)
    assert trace.replayed_launches > 0
    assert check_log(rt.event_log) == []
    assert _digest(rt, modeled) == golden
    assert _sha(solution) == GOLDEN_SOLUTION


def test_fig9_cg_replays_and_matches_golden():
    _assert_fig9_cg_replays_and_matches(GOLDEN_LOG, fusion=True)


def test_fig9_cg_replays_and_matches_unfused_golden():
    _assert_fig9_cg_replays_and_matches(GOLDEN_LOG_UNFUSED, fusion=False)


def _spill_program(rt: Runtime) -> float:
    """test_mapping_lane's spill/eviction run, every step in a scope."""
    with runtime_scope(rt):
        n = 30_000
        fill, add = rt.trace("fill"), rt.trace("add")
        arrays = []
        for i in range(6):
            with fill:
                arrays.append(rnp.full(n, float(i + 1)))
                rt.barrier()
        total = rnp.zeros(n)
        rt.barrier()
        for a in arrays:
            with add:
                total = total + a
                rt.barrier()
        return rt.barrier()


def _tight_gpu():
    return Machine(MachineConfig(
        nodes=1, sockets_per_node=1, gpus_per_node=2,
        gpu_memory=1 << 20, sysmem_per_node=2 << 30,
    )).scope(ProcessorKind.GPU, 1)


def test_spill_inside_scopes_matches_golden():
    """Launches matched or captured between reliefs map as ever."""
    rt = _runtime(_tight_gpu(), trace_replay_fraction=1.0)
    modeled = _spill_program(rt)
    assert (rt.profiler.evictions, rt.profiler.spills) == (5, 6)
    assert rt.trace("fill").replays > 0
    assert _digest(rt, modeled) == GOLDEN_SPILL


def _lru_program(rt: Runtime) -> float:
    with runtime_scope(rt):
        n = 30_000
        fill, touch = rt.trace("fill"), rt.trace("touch")
        arrays = []
        for i in range(3):
            with fill:
                arrays.append(rnp.full(n, float(i + 1)))
                rt.barrier()
        for _ in range(3):
            with touch:
                # Lane hits: the oldest array becomes the latest used.
                s = float(rnp.linalg.norm(arrays[0]))
        for _ in range(2):  # make room: the least recently used go
            arrays.append(rnp.full(n, s))
            rt.barrier()
        float(rnp.linalg.norm(arrays[0])), float(rnp.linalg.norm(arrays[1]))
        return rt.barrier()


def test_replayed_lane_hits_keep_the_lru_order():
    rt = _runtime(_tight_gpu(), trace_replay_fraction=1.0)
    modeled = _lru_program(rt)
    assert rt.trace("touch").replays == 2
    assert (rt.profiler.evictions, rt.profiler.spills) == (0, 3)
    assert _digest(rt, modeled) == GOLDEN_LRU


def test_pressure_relief_recaptures():
    """Every relief bumps the template epoch: a body captured before it
    is captured again, and a body it fell into keeps nothing."""
    rt = _runtime(_tight_gpu(), launch_overhead=OVERHEAD)
    _spill_program(rt)
    add = rt.trace("add")
    assert rt._template_epoch == rt.profiler.evictions + rt.profiler.spills > 0
    assert add.replays == 0 and add.replayed_launches == 0
    _assert_overhead_is_full_plus_discounted(rt)


def _gmg_pcg(fraction: float, validate: bool = False, fusion: bool = True):
    rt = _runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 3),
        validate=validate, trace_replay_fraction=fraction, fusion=fusion,
    )
    with runtime_scope(rt):
        k = 15
        A = sp.csr_matrix(poisson2d_scipy(k))
        b = rnp.ones(k * k)
        gmg = TwoLevelGMG(A, k, coarse_rtol=0.0, coarse_maxiter=3)
        x, _ = sp.linalg.cg(
            A, b, rtol=0.0, maxiter=3, M=gmg.as_preconditioner()
        )
        modeled = rt.barrier()
        solution = x.to_numpy().copy()
    return rt, modeled, solution


def _assert_gmg_pcg_is_neutral(golden: str, validate: bool, fusion: bool):
    rt, modeled, solution = _gmg_pcg(1.0, validate, fusion)
    outer = rt.trace("cg", key=((225, 225), "<f8", False))
    assert (outer.captures, outer.replays) == (1, 2)
    # cg -> vcycle -> coarse cg is one body: the inner scopes joined.
    assert not rt.trace("cg", key=((49, 49), "<f8", True)).is_captured
    if validate:
        assert check_log(rt.event_log) == []
    assert rt.profiler.launches_passed == (4 if fusion else 0)
    assert _digest(rt, modeled) == golden
    assert _sha(solution) == GOLDEN_GMG_SOLUTION


@pytest.mark.parametrize("validate", [False, True])
def test_gmg_pcg_is_neutral_at_full_charge(validate):
    _assert_gmg_pcg_is_neutral(GOLDEN_GMG, validate, fusion=True)


@pytest.mark.parametrize("validate", [False, True])
def test_gmg_pcg_is_neutral_at_full_charge_unfused(validate):
    _assert_gmg_pcg_is_neutral(GOLDEN_GMG_UNFUSED, validate, fusion=False)


def test_discount_moves_times_only():
    full, full_modeled, full_solution = _gmg_pcg(1.0)
    rt, modeled, solution = _gmg_pcg(0.15)
    assert modeled < full_modeled
    assert _digest(rt, modeled, times=False) == _digest(
        full, full_modeled, times=False
    )
    assert np.array_equal(solution, full_solution)
    assert rt.fusion_log == full.fusion_log
    replayed = _assert_overhead_is_full_plus_discounted(rt)
    assert replayed == _replayed(full) > rt.profiler.tasks_launched // 3
    assert full.profiler.launch_overhead_seconds == pytest.approx(
        full.config.launch_overhead * full.profiler.tasks_launched, rel=1e-12
    )


# ----------------------------------------------------------------------
# Divergence, re-capture, back-off
# ----------------------------------------------------------------------
def test_mismatch_mid_body_runs_the_rest_dynamically():
    rt = _runtime(launch_overhead=OVERHEAD, fusion=False)
    with runtime_scope(rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        rt.barrier()
        trace = Trace(rt, "t")

        def body(odd: bool):
            nonlocal x
            before = trace.replayed_launches
            with trace:
                x = x * 0.5
                x = x + (rnp.ones(64) if odd else 1.0)  # the mismatch
                x = A @ x
                x = x * 2.0
            return trace.replayed_launches - before

        assert body(False) == 0  # capture
        assert body(False) == 4
        # fill matches nothing: the multiply before it replays, the
        # rest of the body is dynamic and the body is re-captured.
        assert body(True) == 1
        assert (trace.captures, trace.replays, trace.divergences) == (2, 1, 1)
        assert body(True) == 5
        rt.barrier()
    _assert_overhead_is_full_plus_discounted(rt, trace)


def test_a_body_that_stops_early_keeps_the_capture():
    """The convergence check returned: a prefix of the capture, neither
    a replay nor a reason to re-capture."""
    rt = _runtime()
    with runtime_scope(rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        trace = Trace(rt, "t")
        for stop in (False, False, True, False):
            with trace:
                y = A @ x
                if stop:
                    continue
                x = y / rnp.linalg.norm(y)
    assert (trace.captures, trace.replays, trace.divergences) == (1, 2, 0)


def test_always_divergent_body_backs_off():
    rt = _runtime(launch_overhead=OVERHEAD)
    with runtime_scope(rt):
        bodies = Trace.BACKOFF_AFTER + 4
        operands = [  # another system every time
            (sp.eye(n, format="csr"), rnp.ones(n))
            for n in range(32, 32 + 8 * bodies, 8)
        ]
        rt.barrier()
        trace = Trace(rt, "t")
        recorded = []
        for A, x in operands:
            with trace:
                recorded.append(trace.recording)
                power_step(A, x)
        rt.barrier()
    # capture, then BACKOFF_AFTER divergent bodies, then one body off,
    # a fourth miss, two bodies off.
    assert recorded == [True] * (Trace.BACKOFF_AFTER + 1) + [False, True, False]
    assert trace.backoffs == 2 and trace.replays == 0
    assert trace.divergences == Trace.BACKOFF_AFTER + 1
    assert trace.replayed_launches == 0
    _assert_overhead_is_full_plus_discounted(rt, trace)


# ----------------------------------------------------------------------
# Lifetime: a template holds no region
# ----------------------------------------------------------------------
def _temporaries_loop(traced: bool):
    rt = _runtime()
    refs = []
    with fastpath_tests.counting_shapes() as builds, runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(12))
        x = rnp.ones(144)
        trace = rt.trace("loop")
        for _ in range(4):
            with trace if traced else contextlib.nullcontext():
                t = A @ x  # an iteration temporary
                refs.append(weakref.ref(t.store.region))
                x = t * 0.25 + x
                del t
                # Each iteration its own window: the next SpMV's image
                # reads the x this one writes, so a longer window holds
                # one group per iteration, each with its own shape.
                rt.barrier()
        rt.barrier()
        gc.collect()
        alive = [ref() is not None for ref in refs]
        pooled = {
            mem: (st.used_bytes, st.peak_bytes)
            for mem, st in rt.instances._states.items()
        }
    return rt, alive, pooled, builds[0]


def test_templates_keep_no_region_alive():
    """The SpMV and fused launches of a loop take their shapes from
    templates, traced or not, and no iteration temporary survives."""
    rt, alive, pooled, builds = _temporaries_loop(traced=True)
    assert rt.trace("loop").replays == 3
    assert alive == [False] * 4
    plain, plain_alive, plain_pooled, plain_builds = _temporaries_loop(
        traced=False
    )
    assert plain_alive == alive
    # Five launches -- the fill, then {SpMV, multiply, add} four times --
    # and three shapes: the fill's, and one per window structure (the
    # first window also holds the fill; the three after it are equal).
    assert plain.profiler.tasks_launched == 5
    assert builds == plain_builds == 3
    assert pooled == plain_pooled
    assert rt.instances.total_peak_bytes() == plain.instances.total_peak_bytes()


# ----------------------------------------------------------------------
# Mutation: the tests above can fail
# ----------------------------------------------------------------------
def test_runtime_that_never_bumps_the_epoch_fails(monkeypatch):
    monkeypatch.setattr(Runtime, "_invalidate_templates", lambda self: None)
    with pytest.raises(AssertionError):
        test_pressure_relief_recaptures()
    with pytest.raises(AssertionError):
        test_recovery_launches_bypass_the_trace()


def test_fingerprint_blind_to_partitions_fails(monkeypatch):
    """Rows, solve plan and launch shape reused across a repartition or
    another image: traced, untraced and image launches each fail."""
    real = AutoTask._fingerprint

    def blind(self, colors):
        fingerprint = real(self, colors)
        if fingerprint is None:
            return None
        *head, rows, constraints = fingerprint
        return (*head, tuple(row[:-1] for row in rows), constraints)

    real_launch = tracing.launch_fingerprint

    def blind_launch(task, ids, derived=False):
        fingerprint = real_launch(task, ids, derived)
        if fingerprint is None:
            return None
        *head, rows = fingerprint
        return (*head, tuple(row[:-1] for row in rows))

    with monkeypatch.context() as patch:
        patch.setattr(AutoTask, "_fingerprint", blind)
        with pytest.raises(AssertionError):
            test_repartitioned_operand_does_not_replay()
        with pytest.raises(AssertionError):
            fastpath_tests.test_untraced_templates_match_fresh_ones()
    monkeypatch.setattr(tracing, "launch_fingerprint", blind_launch)
    monkeypatch.setattr(runtime_module, "launch_fingerprint", blind_launch)
    with pytest.raises(AssertionError):
        fastpath_tests.test_image_templates_match_fresh_ones()


def test_lane_without_the_lru_tick_fails(monkeypatch):
    def use(self, region_uid, rect):
        for inst in self.instances.get(region_uid, ()):
            if inst.rect.contains(rect):
                return inst
        return None

    monkeypatch.setattr(MemoryState, "use", use)
    with pytest.raises(AssertionError):
        test_replayed_lane_hits_keep_the_lru_order()
