"""Replays on both clocks -- and the host templates are neutral.

* **matching** -- a launch replays by its template and dependence
  edges, not by task name: the same names over other shapes or another
  partition do not replay; journal replay after a loss never does;
* **neutrality** -- with ``trace_replay_fraction=1.0`` the fig9 CG, the
  spill/eviction run and a two-level GMG PCG reproduce, event for event
  and to the modeled second, digests recorded from the runtime *before*
  any launch replayed or template was kept (every run below replays);
* **the discount** -- at ``0.15`` only times move: the event log
  without times and the solution bits equal the run at ``1.0``, and the
  launch overhead is ``overhead x (full + 0.15 x replayed)``;
* **epochs** -- recovery and pressure relief clear the history;
* **lifetime** -- a template keeps no region alive;
* **mutation** -- the tests above can fail: a runtime that never bumps
  the epoch, a fingerprint blind to partitions and a lane that drops the
  LRU tick each fail a named test.
"""

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
from repro.legion import Runtime, RuntimeConfig, Tiling
from repro.legion import runtime as runtime_module
from repro.legion import tracing
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.instance import MemoryState
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind, laptop, summit
from repro.machine.model import MachineConfig

from tests.legion.test_coherence_index import (
    GOLDEN_LOG, GOLDEN_LOG_SHAPE, GOLDEN_LOG_UNFUSED, GOLDEN_LOG_UNFUSED_SHAPE,
    GOLDEN_SOLUTION, GPUS, GRID, _canonical_log,
)
from tests.legion import test_host_analysis as host_tests
from tests.legion.test_mapping_lane import GOLDEN_SPILL

# The same two digests of _lru_program below, recorded at fb01e37: the
# array read last survives the pressure that follows.  Re-recorded when
# a one-shard fold stopped paying the allreduce base charge (it was
# beb915e2...e400 up to fa696ea): the program runs on one GPU, so each
# of its five norms is ready when its shard is, 20 us earlier; modeled
# seconds 0.001510126829 -> 0.001410126829.
GOLDEN_LRU = "f91d0af19df869e6812c6eb498354d96c20e638d4dc148913b7fddbec2cff7f3"

# sha256 over the canonical event log + modeled seconds (and over the
# solution bytes) of _gmg_pcg below, validated or not.  GOLDEN_GMG is
# the ``fusion=True`` run and was re-recorded three times.  When scalar
# reductions joined the deferred window (it was d535fb33...7d42 from
# fb01e37 -- no replay in cg or vcycle, no template anywhere -- to
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
# All three moved once more with the program when the V-cycle began to
# run its coarse CG on the colors its grid earns (Runtime.colors_for:
# one for this 49-row grid, where it ran on all three GPUs; they were
# d18d6257...bab3, 0a22e67a...74eb and 02f52a2b...dab1 up to d7eafc0).
# The coarse dot products fold one partial, not three, so the solution
# moves by 1.3e-15 relative.  Fused, each V-cycle's restriction SpMV no
# longer shares a group with the coarse solve's zero fill and ||b||
# (a group has one width): 93 launches and 3 more replayed, still 43
# allreduces, modeled seconds 0.012868180293.  Eager: 288 launches and
# 62 allreduces as before, modeled seconds 0.040196036650 ->
# 0.038452024911.
# Both moved once more when a one-shard launch became a single task
# (they were 7bbb5521...d49a and 4eb2c53f...85be up to fa696ea).  A
# one-shard fold pays no allreduce charge: eager, the coarse CGs' 16
# folds are each 20 us earlier, modeled seconds 0.038452024911 ->
# 0.038132024911, still 288 launches and 62 allreduces.  Fused, each
# coarse iteration's p = z + p*beta also shares a group with A @ p and
# p.q (fusion rule 2's one-color case): 80 launches and 38 allreduces
# where there were 93 and 43, 52 replayed where 62 were, modeled
# seconds 0.012868180293 -> 0.010938250865.
# Both moved once more with the program when ``cg`` began to read its
# ``p·q == 0`` test one body late and a zero start stopped computing a
# residual (they were c9b5bb73...41b3 and 125cf9f2...9c88 up to
# d1078ee).  Each of the five CG calls (the outer PCG and four coarse
# solves) starts from ``r = b.copy()`` with ``‖r₀‖`` taken from
# ``‖b‖``'s fold, and each body writes ``x + p α`` into a new region.
# Fused: 79 launches and 37 allreduces where there were 80 and 38,
# modeled seconds 0.010938250865 -> 0.010309051177.  Eager: 278
# launches and 57 allreduces where there were 288 and 62, modeled
# seconds 0.038132024911 -> 0.036325005208.
# Both moved once more when ``cg`` began to issue each body before the
# checks that read the last one, and a one-color launch began to take a
# future its own group resolves (fusion rule 5's one-color case; they
# were fdabbc79...cd1d and 79fde134...928b up to e7f113c).  Fused, each
# coarse iteration is one group where it was two (``{x+=, r-=, vdot,
# norm} | {p=, A@p, p.q}``): 61 launches and 23 allreduces where there
# were 79 and 37, modeled seconds 0.010309051177 -> 0.008017164741.
# Eager: the same 278 launches and 57 allreduces in the same order and
# the same modeled seconds, 0.036325005208; the host issues a body
# before it waits, which moves times inside the log.
# GOLDEN_GMG moved once more when the one-GPU coarse CG began to issue
# ahead of host checks that would stall, and a wait on a ready future
# at one color stopped flushing the window (it was 894c31ca...7766 up
# to c6688af).  The coarse windows fill to the 16-launch capacity
# across bodies instead of closing at each body's checks, so each
# coarse solve's groups span bodies: still 61 launches, 23 allreduces,
# 38 replayed and 4 passed, modeled seconds 0.008017164741 ->
# 0.007993038380.  The eager run issues no body ahead: unchanged.
# GOLDEN_GMG moved once more when a non-fusible launch began to flush a
# non-empty window instead of running ahead of members it does not
# depend on (it was 4bc1064c...0f99 up to a2e78df).  The four launches
# that passed the window while the preconditioner was built over a
# pending fill are one flush now, so the fill runs first: still 61
# launches, 49 groups, 23 allreduces and 38 replayed, modeled seconds
# 0.007993038380 -> 0.007993038600.
# The solution bytes are one digest for all of them.
GOLDEN_GMG = "0bbf25e89bb5c1bcde0bbf9925b5420f2ce955c8c303df7b9590203722b42d4e"
GOLDEN_GMG_UNFUSED = (
    "b3aa80e1f6481282558d7c86bffa8b69685b22179f3d0b769a5a37c2339803d2"
)
GOLDEN_GMG_SOLUTION = (
    "a811afa70fc6f5b29cdde7c573db4b150e1dbb15dd41989ed5215f9c5de74a7b"
)

OVERHEAD = 1e-3

# Executed launches charged as replays in the runs below, by fusion:
# the fig9 CG's four iterations, and the GMG PCG's three (each with a
# V-cycle and its coarse CG).  A fused group counts once, and only when
# all its members replay.  They were {6, 27} and {52, 229} up to
# d1078ee, when a zero start stopped issuing its SpMV and subtract and
# a body began to write ``x + p α`` into a new region.  A token is a
# template with its edges' distances, and both changed the distances
# in the first two bodies, so more of their launches repeat an earlier
# token (fused, the first body's multiplies and ``r·z``; eager, the
# second body's ``x`` update too).  Fig9: 8 of 13 fused, 30 of 46
# eager; GMG: 54 of 79 fused, 227 of 278 eager.  GMG's fused count was
# 54 up to e7f113c: each coarse iteration became one group of ten
# launches, so 38 of 61 replay.
FIG9_REPLAYED = {True: 8, False: 30}
GMG_REPLAYED = {True: 38, False: 227}
# _lru_program: the second, third and fourth fills, and the last norm
# (the one before it also read an array written eight launches back).
# The touches do not: each reads arrays[0] one launch further back.
LRU_REPLAYED = 4
# _spill_program under pressure: the three fills before the first
# relief; every launch after it follows another relief.
RELIEF_REPLAYED = 3


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


def _assert_overhead_is_full_plus_discounted(rt: Runtime):
    config = rt.config
    replayed = rt.profiler.launches_replayed
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
# Matching: a template and dependence edges, not the task name
# ----------------------------------------------------------------------
def test_same_names_over_other_shapes_do_not_replay():
    """A power step on a 10 000-row and then on a 100-row system:
    equal task names, nothing to replay (a name-list matcher charged
    the second step 0.15)."""
    rt = _runtime(launch_overhead=OVERHEAD)
    with runtime_scope(rt):
        big, small = sp.eye(10_000, format="csr"), sp.eye(100, format="csr")
        x, y = rnp.ones(10_000), rnp.ones(100)
        rt.barrier()
        x = power_step(big, x)
        rt.barrier()
        launched = rt.profiler.tasks_launched
        charged = rt.profiler.launch_overhead_seconds
        y = power_step(small, y)
        rt.barrier()
    assert rt.profiler.launches_replayed == 0
    body = rt.profiler.tasks_launched - launched
    assert body == 2  # {SpMV, norm} and the divide
    assert rt.profiler.launch_overhead_seconds - charged == pytest.approx(
        body * OVERHEAD, rel=1e-12
    )


def _repartitioned_program():
    """Three power steps; before the third, x's key partition moves.
    Returns each step's issued launches: (name, replayed)."""
    rt = _runtime(trace_replay_fraction=1.0)
    steps = []
    with runtime_scope(rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        rt.barrier()
        for step in range(3):
            if step == 2:
                x.store.set_key_partition(Tiling(x.store.region, (0, 10, 64)))
            x = x * 0.5
            x = power_step(A, x)
            steps.append([(task.name, task.replayed) for task in rt._window])
            rt.barrier()
    return steps


def test_repartitioned_operand_does_not_replay():
    """Same shapes, another key partition: the multiply's solve plan
    and row shapes belong to the old tiling, so it is no replay of the
    old one.  What it writes is read through the matrix's image, which
    the tiling does not move: the rest of the step replays."""
    first, second, third = _repartitioned_program()
    assert len(first) == 4  # the multiply, SpMV, norm and divide
    assert [replayed for _, replayed in first] == [False] * 4
    assert [replayed for _, replayed in second] == [True] * 4
    assert [replayed for _, replayed in third] == [False, True, True, True]


def _lossy_cg(fraction: float, chaos=None):
    rt = _runtime(
        summit(nodes=1).scope(ProcessorKind.GPU, 2, per_node=2),
        chaos=chaos, trace_replay_fraction=fraction,
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(16))
        b = rnp.ones(256)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up: first occurrences
        t0 = rt.barrier()
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=4)
        t1 = rt.barrier()
        solution = x.to_numpy().copy()
    return rt, (t0 + t1) / 2, solution


def test_recovery_launches_bypass_the_trace():
    """A GPU lost mid-solve: the re-executed journal is charged in
    full, and the history starts over (the goldens of test_mapping_lane
    are this run at 1.0)."""
    fault_free_rt, midway, fault_free = _lossy_cg(0.15)
    chaos = ChaosConfig(
        checkpoint_every=16, losses=(LossSchedule("gpu", 1, midway),)
    )
    rt, _, recovered = _lossy_cg(0.15, chaos)
    assert rt.profiler.faults_injected["gpu-loss"] == 1
    assert rt.profiler.tasks_reexecuted > 0
    assert np.array_equal(recovered, fault_free)
    # The same launches were issued; after the loss, those issued
    # before it are first occurrences again.
    assert 0 < rt.profiler.launches_replayed < (
        fault_free_rt.profiler.launches_replayed
    )
    replayed = _assert_overhead_is_full_plus_discounted(rt)
    assert replayed < rt.profiler.tasks_launched - rt.profiler.tasks_reexecuted


# ----------------------------------------------------------------------
# Neutrality at 1.0 and the discount at 0.15
# ----------------------------------------------------------------------
def _assert_fig9_cg_replays_and_matches(
    golden: str, shape: str, fusion: bool
) -> None:
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
    assert rt.profiler.launches_replayed == FIG9_REPLAYED[fusion]
    assert check_log(rt.event_log) == []
    assert _digest(rt, modeled, times=False) == shape
    assert _digest(rt, modeled) == golden
    assert _sha(solution) == GOLDEN_SOLUTION


def test_fig9_cg_replays_and_matches_golden():
    _assert_fig9_cg_replays_and_matches(
        GOLDEN_LOG, GOLDEN_LOG_SHAPE, fusion=True
    )


def test_fig9_cg_replays_and_matches_unfused_golden():
    _assert_fig9_cg_replays_and_matches(
        GOLDEN_LOG_UNFUSED, GOLDEN_LOG_UNFUSED_SHAPE, fusion=False
    )


def _spill_program(rt: Runtime) -> float:
    """test_mapping_lane's spill/eviction run."""
    with runtime_scope(rt):
        n = 30_000
        arrays = []
        for i in range(6):
            arrays.append(rnp.full(n, float(i + 1)))
            rt.barrier()
        total = rnp.zeros(n)
        rt.barrier()
        for a in arrays:
            total = total + a
            rt.barrier()
        return rt.barrier()


def _tight_gpu():
    return Machine(MachineConfig(
        nodes=1, sockets_per_node=1, gpus_per_node=2,
        gpu_memory=1 << 20, sysmem_per_node=2 << 30,
    )).scope(ProcessorKind.GPU, 1)


def test_spill_with_replays_matches_golden():
    """Launches replayed between reliefs map as ever."""
    rt = _runtime(_tight_gpu(), trace_replay_fraction=1.0)
    modeled = _spill_program(rt)
    assert (rt.profiler.evictions, rt.profiler.spills) == (5, 6)
    assert rt.profiler.launches_replayed > 0
    assert _digest(rt, modeled) == GOLDEN_SPILL


def _lru_program(rt: Runtime) -> float:
    with runtime_scope(rt):
        n = 30_000
        arrays = []
        for i in range(3):
            arrays.append(rnp.full(n, float(i + 1)))
            rt.barrier()
        for _ in range(3):
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
    assert rt.profiler.launches_replayed == LRU_REPLAYED
    assert (rt.profiler.evictions, rt.profiler.spills) == (0, 3)
    assert _digest(rt, modeled) == GOLDEN_LRU


def test_pressure_relief_recaptures():
    """Every relief clears the history: the fills and adds, which
    would all replay after the first of each, are charged in full."""
    rt = _runtime(_tight_gpu(), launch_overhead=OVERHEAD)
    _spill_program(rt)
    assert rt.profiler.evictions + rt.profiler.spills > 0
    assert rt.profiler.launches_replayed == RELIEF_REPLAYED
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
    assert rt.profiler.launches_replayed == GMG_REPLAYED[fusion]
    if validate:
        assert check_log(rt.event_log) == []
    assert rt.profiler.hazard_flushes == (1 if fusion else 0)
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
    assert replayed == full.profiler.launches_replayed
    assert replayed > rt.profiler.tasks_launched // 3
    assert full.profiler.launch_overhead_seconds == pytest.approx(
        full.config.launch_overhead * full.profiler.tasks_launched, rel=1e-12
    )


# ----------------------------------------------------------------------
# A short body
# ----------------------------------------------------------------------
def test_a_body_that_stops_early_keeps_the_capture():
    """The convergence check returned after the SpMV: the short body's
    launch replays.  The next body's SpMV reads an x written two
    launches back, not one -- another dependence edge, charged in full
    with the norm it fuses with -- and its divide replays."""
    rt = _runtime()
    replayed = []
    with runtime_scope(rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        rt.barrier()
        for stop in (False, False, True, False):
            before = rt.profiler.launches_replayed
            y = A @ x
            if not stop:
                x = y / rnp.linalg.norm(y)
            rt.barrier()
            replayed.append(rt.profiler.launches_replayed - before)
    assert replayed == [0, 2, 1, 1]


# ----------------------------------------------------------------------
# Lifetime: a template holds no region
# ----------------------------------------------------------------------
def _temporaries_loop():
    rt = _runtime()
    refs = []
    with host_tests.counting_shapes() as builds, runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(12))
        x = rnp.ones(144)
        for _ in range(4):
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
    return rt, alive, builds[0]


def test_templates_keep_no_region_alive():
    """The SpMV and fused launches of a loop take their shapes from
    templates, replayed or not, and no iteration temporary survives --
    nor does the replay history keep one."""
    rt, alive, builds = _temporaries_loop()
    assert rt.profiler.launches_replayed == 3
    assert alive == [False] * 4
    # Five launches -- the fill, then {SpMV, multiply, add} four times --
    # and three shapes: the fill's, and one per window structure (the
    # first window also holds the fill; the three after it are equal).
    assert rt.profiler.tasks_launched == 5
    assert builds == 3


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
    another image: replayed, fresh and image launches each fail."""
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
            host_tests.test_untraced_templates_match_fresh_ones()
    monkeypatch.setattr(tracing, "launch_fingerprint", blind_launch)
    monkeypatch.setattr(runtime_module, "launch_fingerprint", blind_launch)
    with pytest.raises(AssertionError):
        host_tests.test_image_templates_match_fresh_ones()


def test_lane_without_the_lru_tick_fails(monkeypatch):
    def use(self, region_uid, rect):
        for inst in self.instances.get(region_uid, ()):
            if inst.rect.contains(rect):
                return inst
        return None

    monkeypatch.setattr(MemoryState, "use", use)
    with pytest.raises(AssertionError):
        test_replayed_lane_hits_keep_the_lru_order()
