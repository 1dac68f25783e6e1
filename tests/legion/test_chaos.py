"""Chaos injection + recovery: determinism, retry, loss replay."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion import FaultError, Runtime, RuntimeConfig
from repro.legion.chaos import ChaosConfig, ChaosInjector, LossSchedule, chaos_default
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit

GRID = 16
ITERS = 4


def _cg_run(chaos, procs=2, nodes=1, profile=False, validate=False):
    """One small CG solve under a chaos config; returns (x, rt, t0, t1)."""
    machine = summit(nodes=nodes)
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, procs, per_node=min(procs, 2)),
        RuntimeConfig.legate(chaos=chaos, profile=profile, validate=validate),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(GRID))
        b = rnp.ones(GRID * GRID)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)  # warm-up
        t0 = rt.barrier()
        x, _ = sp.linalg.cg(A, b, rtol=0.0, maxiter=ITERS)
        t1 = rt.barrier()
        out = x.to_numpy().copy()
    return out, rt, t0, t1


class TestConfig:
    def test_parse_full_spec(self):
        cfg = ChaosConfig.parse(
            "seed:7, copy:0.02, alloc:0.01, retries:3, backoff:1e-5,"
            "ckpt:32, lose-gpu:1@0.004, lose-node:2@0.01"
        )
        assert cfg.seed == 7
        assert cfg.copy_fault_rate == 0.02
        assert cfg.alloc_fault_rate == 0.01
        assert cfg.max_retries == 3
        assert cfg.backoff_base == 1e-5
        assert cfg.checkpoint_every == 32
        assert cfg.losses == (
            LossSchedule("gpu", 1, 0.004),
            LossSchedule("node", 2, 0.01),
        )
        assert cfg.has_losses

    @pytest.mark.parametrize(
        "spec",
        ["bogus", "copy:2.0", "retries:0", "lose-gpu:1", "lose-disk:0@1"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            ChaosConfig.parse(spec)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_default() is None
        monkeypatch.setenv("REPRO_CHAOS", "seed:3,copy:0.1")
        cfg = chaos_default()
        assert cfg is not None and cfg.seed == 3 and cfg.copy_fault_rate == 0.1
        monkeypatch.setenv("REPRO_CHAOS", "0")
        assert chaos_default() is None

    def test_injector_deterministic(self):
        cfg = ChaosConfig(seed=11, copy_fault_rate=0.3, alloc_fault_rate=0.2)
        a, b = ChaosInjector(cfg), ChaosInjector(cfg)
        draws_a = [(a.copy_fault(), a.alloc_fault()) for _ in range(200)]
        draws_b = [(b.copy_fault(), b.alloc_fault()) for _ in range(200)]
        assert draws_a == draws_b
        assert a.faults_injected == b.faults_injected > 0

    def test_losses_delivered_in_time_order(self):
        cfg = ChaosConfig(
            losses=(LossSchedule("gpu", 0, 2.0), LossSchedule("gpu", 1, 1.0))
        )
        inj = ChaosInjector(cfg)
        assert inj.take_losses(0.5) == []
        assert [l.target for l in inj.take_losses(1.5)] == [1]
        assert [l.target for l in inj.take_losses(5.0)] == [0]
        assert inj.pending_losses == ()


class TestResilience2Config:
    def test_parse_new_keys_with_equals_separator(self):
        cfg = ChaosConfig.parse("replicas=2, heartbeat=1e-4, detect=5e-5, ckpt=8")
        assert cfg.ckpt_replicas == 2
        assert cfg.heartbeat_period == 1e-4
        assert cfg.detection_timeout == 5e-5
        assert cfg.checkpoint_every == 8

    def test_parse_new_keys_with_colon_separator(self):
        cfg = ChaosConfig.parse("replicas:3, heartbeat:2e-4, detect:1e-4")
        assert cfg.ckpt_replicas == 3
        assert cfg.heartbeat_period == 2e-4
        assert cfg.detection_timeout == 1e-4

    def test_mixed_separators_and_loss_at_sign_still_parse(self):
        cfg = ChaosConfig.parse("replicas=2, lose-node:0@0.004, ckpt:8")
        assert cfg.ckpt_replicas == 2
        assert cfg.losses == (LossSchedule("node", 0, 0.004),)

    def test_unknown_keys_rejected_naming_the_token(self):
        # Unknown keys must never be silently dropped — the error names
        # the offending token so a typo'd REPRO_CHAOS cannot quietly
        # disable the fault schedule it was meant to enable.
        with pytest.raises(ValueError, match="frobnicate"):
            ChaosConfig.parse("replicas=2, frobnicate=1")
        with pytest.raises(ValueError, match="replica"):
            ChaosConfig.parse("replica=2")  # singular: not a key

    @pytest.mark.parametrize(
        "spec", ["replicas=0", "heartbeat=-1", "detect=-0.5"]
    )
    def test_invalid_values_rejected(self, spec):
        with pytest.raises(ValueError):
            ChaosConfig.parse(spec)


class TestTransientFaults:
    def test_copy_faults_bitwise_identical(self):
        baseline, _, _, _ = _cg_run(None)
        chaos = ChaosConfig(seed=7, copy_fault_rate=0.05)
        faulty, rt, _, _ = _cg_run(chaos)
        np.testing.assert_array_equal(baseline, faulty)
        assert rt.profiler.retries == sum(rt.profiler.faults_injected.values())

    def test_alloc_faults_bitwise_identical_and_charged(self):
        baseline, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(seed=7, alloc_fault_rate=0.05)
        faulty, rt, f0, f1 = _cg_run(chaos)
        np.testing.assert_array_equal(baseline, faulty)
        assert rt.profiler.faults_injected["alloc"] > 0
        # Backoff is charged on the simulated clock.
        assert rt.profiler.backoff_seconds > 0
        assert f1 - f0 >= t1 - t0

    @pytest.mark.parametrize("kind", ["copy", "alloc"])
    def test_exhausted_retries_raise_fault_error(self, kind):
        chaos = ChaosConfig(
            seed=0, max_retries=2, **{f"{kind}_fault_rate": 0.99}
        )
        with pytest.raises(FaultError, match="still failing after 2 retries"):
            _cg_run(chaos)


class TestLossRecovery:
    def test_gpu_loss_recovers_bitwise(self):
        baseline, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(
            checkpoint_every=16,
            losses=(LossSchedule("gpu", 1, (t0 + t1) / 2),),
        )
        recovered, rt, _, _ = _cg_run(chaos)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.faults_injected["gpu-loss"] == 1
        assert rt.profiler.checkpoints > 0
        assert rt.profiler.tasks_reexecuted > 0

    def test_node_loss_recovers_bitwise(self):
        baseline, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        chaos = ChaosConfig(
            checkpoint_every=16,
            losses=(LossSchedule("node", 1, (t0 + t1) / 2),),
        )
        recovered, rt, _, _ = _cg_run(chaos, procs=2, nodes=2)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.faults_injected["node-loss"] == 1
        assert rt.profiler.tasks_reexecuted > 0

    def test_recovery_charges_delay(self):
        _, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(
            checkpoint_every=16,
            recovery_delay=5e-3,
            losses=(LossSchedule("gpu", 1, (t0 + t1) / 2),),
        )
        _, _, f0, f1 = _cg_run(chaos)
        assert f1 - f0 >= (t1 - t0) + 5e-3

    def test_losing_checkpoint_store_is_fatal(self):
        _, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(
            checkpoint_every=16,
            losses=(LossSchedule("node", 0, (t0 + t1) / 2),),
        )
        with pytest.raises(FaultError, match="checkpoint store"):
            _cg_run(chaos)

    def test_denser_checkpoints_shorten_replay(self):
        """The journal resets each epoch: more checkpoints, less replay.

        At one loss time either cadence may have just checkpointed, so
        the cadences are compared over a sweep of loss times across the
        middle of the solve.  At each, a loss replays fewer launches
        than the cadence (a checkpoint flushes the window, and a fused
        task holds at least one issued launch) and fewer than a solve
        with no checkpoint in it."""
        _, _, t0, t1 = _cg_run(None)
        reexec = {12: [], 24: [], 10**6: []}
        for k in range(3, 8):
            t_loss = t0 + (t1 - t0) * k / 10
            for every, counts in reexec.items():
                chaos = ChaosConfig(
                    checkpoint_every=every,
                    losses=(LossSchedule("gpu", 1, t_loss),),
                )
                _, rt, _, _ = _cg_run(chaos)
                counts.append(rt.profiler.tasks_reexecuted)
        assert 0 < sum(reexec[12]) < sum(reexec[24])
        assert max(reexec[12]) < max(reexec[24])
        for every in (12, 24):
            for count, unbounded in zip(reexec[every], reexec[10**6]):
                assert count < every
                assert count < unbounded


class TestTimelineComposition:
    """Chaos injection must stay visible — and conserved — on the timeline."""

    def _profiled_run(self, chaos, procs=2, nodes=1):
        from repro.legion.timeline import drain_timelines

        drain_timelines()
        try:
            return _cg_run(chaos, procs=procs, nodes=nodes, profile=True)
        finally:
            drain_timelines()

    def test_copy_faults_appear_as_retry_backoff_subspans(self):
        chaos = ChaosConfig(seed=7, copy_fault_rate=0.05)
        _, rt, _, _ = self._profiled_run(chaos)
        retries = [s for s in rt.timeline.spans if s.category == "retry"]
        backoffs = [s for s in rt.timeline.spans if s.category == "backoff"]
        # One retry + one backoff span per injected copy fault (every
        # intra-node path is a single channel).
        assert len(retries) == rt.profiler.faults_injected["copy"] > 0
        assert len(backoffs) == len(retries)
        for retry, backoff in zip(retries, backoffs):
            # The doomed attempt holds the wire, then the pause begins.
            assert retry.finish == backoff.start
            assert backoff.duration > 0

    def test_span_conservation_under_faults(self):
        chaos = ChaosConfig(seed=7, copy_fault_rate=0.05, alloc_fault_rate=0.05)
        _, rt, _, _ = self._profiled_run(chaos)
        assert rt.profiler.retries > 0
        usage = rt.timeline.utilization()
        for resource, u in usage.items():
            assert u.busy == pytest.approx(u.busy_sum, abs=0.0), resource

    def test_critical_path_exact_under_faults(self):
        chaos = ChaosConfig(seed=7, copy_fault_rate=0.05)
        _, rt, _, _ = self._profiled_run(chaos)
        with runtime_scope(rt):
            elapsed = rt.elapsed()
        path = rt.timeline.critical_path(elapsed)
        assert path.start == 0.0
        assert path.length == elapsed
        for a, b in zip(path.steps, path.steps[1:]):
            assert a.finish == b.start

    def test_loss_recovery_visible_on_timeline(self):
        _, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(
            checkpoint_every=16,
            recovery_delay=5e-3,
            losses=(LossSchedule("gpu", 1, (t0 + t1) / 2),),
        )
        _, rt, _, _ = self._profiled_run(chaos)
        categories = {s.category for s in rt.timeline.spans}
        assert "recovery" in categories
        assert "checkpoint" in categories
        replayed = [
            s for s in rt.timeline.spans
            if s.category == "task" and s.name.startswith("replay:")
        ]
        assert len(replayed) > 0
        # Conservation still holds through checkpoint + replay traffic.
        for resource, u in rt.timeline.utilization().items():
            assert u.busy == pytest.approx(u.busy_sum, abs=0.0), resource


class TestReplicatedStores:
    """Resilience 2.0: k-way replicated checkpoint stores."""

    def test_replication_traffic_reaches_second_domain(self):
        from repro.analysis.events import CopyEvent

        chaos = ChaosConfig(checkpoint_every=16, ckpt_replicas=2)
        _, rt, _, _ = _cg_run(chaos, procs=2, nodes=2, validate=True)
        assert rt.profiler.replication_bytes > 0
        stores = rt.recovery.place_stores()
        assert [m.node for m in stores] == [0, 1]
        # Checkpoint copies land in BOTH stores' memories — replication
        # rides the modeled cross-node channels, not a free broadcast.
        ckpt_dsts = {
            ev.dst_memory
            for ev in rt.event_log.events
            if isinstance(ev, CopyEvent) and ev.why == "checkpoint"
        }
        assert {m.uid for m in stores} <= ckpt_dsts

    def test_replication_costs_more_than_single_store(self):
        single = ChaosConfig(checkpoint_every=16, ckpt_replicas=1)
        double = ChaosConfig(checkpoint_every=16, ckpt_replicas=2)
        _, rt1, _, _ = _cg_run(single, procs=2, nodes=2)
        _, rt2, _, _ = _cg_run(double, procs=2, nodes=2)
        assert rt1.profiler.replication_bytes == 0
        assert rt2.profiler.replication_bytes > 0
        assert rt2.profiler.checkpoint_bytes > rt1.profiler.checkpoint_bytes

    def test_replicas2_survives_node0_loss_bitwise(self):
        """The headline: losing the primary store is no longer fatal."""
        from repro.analysis.checker import check_log

        baseline, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        chaos = ChaosConfig(
            checkpoint_every=16,
            ckpt_replicas=2,
            losses=(LossSchedule("node", 0, (t0 + t1) / 2),),
        )
        recovered, rt, _, _ = _cg_run(chaos, procs=2, nodes=2, validate=True)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.faults_injected["node-loss"] == 1
        assert rt.profiler.recoveries == 1
        assert check_log(rt.event_log) == []

    def test_replicas1_node0_loss_stays_fatal(self):
        """PR 4's unconditional failure is preserved at replicas=1."""
        _, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        chaos = ChaosConfig(
            checkpoint_every=16,
            ckpt_replicas=1,
            losses=(LossSchedule("node", 0, (t0 + t1) / 2),),
        )
        with pytest.raises(FaultError, match="checkpoint store"):
            _cg_run(chaos, procs=2, nodes=2)

    def test_losing_every_store_domain_is_fatal(self):
        _, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        t_mid = (t0 + t1) / 2
        chaos = ChaosConfig(
            checkpoint_every=16,
            ckpt_replicas=2,
            losses=(
                LossSchedule("node", 0, t_mid),
                LossSchedule("node", 1, t_mid),
            ),
        )
        with pytest.raises(FaultError, match="fault domain"):
            _cg_run(chaos, procs=2, nodes=2)

    def test_a_lost_store_is_restored_on_its_replacement(self):
        """Three nodes, stores on nodes 0 and 1, the GPUs on node 0.
        Losing node 1 after a checkpoint re-places its store on node 2;
        every protected piece the replay does not re-write (``b`` and
        the matrix, written before the epoch) is copied there from the
        store that survived."""
        from repro.analysis.checker import check_log
        from repro.analysis.events import CopyEvent

        baseline, _, t0, t1 = _cg_run(None, procs=2, nodes=3)
        chaos = ChaosConfig(
            checkpoint_every=16,
            ckpt_replicas=2,
            losses=(LossSchedule("node", 1, (t0 + t1) / 2),),
        )
        recovered, rt, _, _ = _cg_run(chaos, procs=2, nodes=3, validate=True)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.recoveries == 1
        survivor, replacement = rt.recovery.place_stores({1})
        assert (survivor.node, replacement.node) == (0, 2)
        restores = [
            ev for ev in rt.event_log.events
            if isinstance(ev, CopyEvent) and ev.why == "restore"
        ]
        assert restores
        assert {(ev.src_memory, ev.dst_memory) for ev in restores} == {
            (survivor.uid, replacement.uid)
        }
        assert rt.profiler.restores == len(restores)
        assert rt.profiler.restore_bytes == sum(ev.nbytes for ev in restores)
        assert check_log(rt.event_log) == []


def _vdot_wait(chaos):
    """A 2-GPU ``vdot`` the host waits on; returns the runtime, the
    issue clock when the launch has issued and the value's ready time."""
    from repro.legion.timeline import drain_timelines

    drain_timelines()
    try:
        machine = summit(nodes=1)
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 2, per_node=2),
            RuntimeConfig.legate(chaos=chaos, profile=True),
        )
        with runtime_scope(rt):
            a = rnp.ones(GRID * GRID)
            rt.barrier()
            s = rnp.vdot(a, a)
            rt.flush_window()
            issued = rt.issue_time
            ready = s.future.ready_time
            assert float(s) == GRID * GRID
    finally:
        drain_timelines()
    return rt, issued, ready


def test_a_loss_during_a_wait_is_acted_on_at_its_time():
    """The host waits on the vdot's allreduce; a GPU lost meanwhile is
    recovered from at the loss time, not at the next launch."""
    _, issued, ready = _vdot_wait(None)
    assert issued < ready
    t_loss = (issued + ready) / 2
    rt, _, _ = _vdot_wait(
        ChaosConfig(checkpoint_every=16, losses=(LossSchedule("gpu", 1, t_loss),))
    )
    assert rt.profiler.recoveries == 1
    (recovery,) = [
        s for s in rt.timeline.spans
        if s.category == "recovery" and s.resource == "issue"
    ]
    assert recovery.start == t_loss


class TestFailureDetection:
    """Modeled detection: losses are suspected, then confirmed, on the clock."""

    def test_detection_latency_charged_and_counted(self):
        _, _, t0, t1 = _cg_run(None)
        t_mid = (t0 + t1) / 2
        base = dict(checkpoint_every=16, losses=(LossSchedule("gpu", 1, t_mid),))
        _, rt0, i0, i1 = _cg_run(ChaosConfig(**base))
        slow = ChaosConfig(heartbeat_period=1e-3, detection_timeout=2e-3, **base)
        from repro.legion.timeline import drain_timelines

        drain_timelines()
        try:
            _, rt, d0, d1 = _cg_run(slow, profile=True)
        finally:
            drain_timelines()
        assert rt.profiler.detections == 1
        # Latency >= the timeout (plus the wait for a heartbeat tick),
        # and the stall is charged on the simulated clock.
        assert rt.profiler.detection_seconds >= 2e-3
        assert (d1 - d0) >= (i1 - i0) + 2e-3
        # The stall runs on the issue row from the loss, noticed at its
        # own time even inside a host wait, to its confirmation.
        (stall,) = [
            s for s in rt.timeline.spans
            if s.category == "detection" and s.resource == "issue"
        ]
        assert stall.start == pytest.approx(t_mid, abs=1e-15)
        assert stall.finish == pytest.approx(
            t_mid + rt.profiler.detection_seconds, abs=1e-15
        )

    def test_detection_event_recorded_with_ordered_transitions(self):
        from repro.analysis.events import DetectionEvent

        _, _, t0, t1 = _cg_run(None)
        t_mid = (t0 + t1) / 2
        chaos = ChaosConfig(
            checkpoint_every=16,
            heartbeat_period=1e-3,
            detection_timeout=5e-4,
            losses=(LossSchedule("gpu", 1, t_mid),),
        )
        _, rt, _, _ = _cg_run(chaos, validate=True)
        dets = [e for e in rt.event_log.events if isinstance(e, DetectionEvent)]
        assert len(dets) == 1
        (det,) = dets
        assert det.fault == "gpu-loss" and det.target == 1
        assert det.at <= det.suspected <= det.confirmed
        assert det.confirmed == pytest.approx(det.suspected + 5e-4)

    def test_detection_spans_on_timeline_conserve(self):
        from repro.legion.timeline import drain_timelines

        _, _, t0, t1 = _cg_run(None)
        chaos = ChaosConfig(
            checkpoint_every=16,
            heartbeat_period=1e-3,
            detection_timeout=5e-4,
            losses=(LossSchedule("gpu", 1, (t0 + t1) / 2),),
        )
        drain_timelines()
        try:
            _, rt, _, _ = _cg_run(chaos, profile=True)
        finally:
            drain_timelines()
        detection = [s for s in rt.timeline.spans if s.category == "detection"]
        assert detection, "detector transitions must be visible"
        # Detection spans are annotations (non-busy): span conservation
        # over busy categories still holds exactly.
        for resource, u in rt.timeline.utilization().items():
            assert u.busy == pytest.approx(u.busy_sum, abs=0.0), resource


class TestNestedFaults:
    """Re-entrant recovery: losses during replay and checkpoint drains."""

    def test_loss_during_replay_recovers_bitwise(self):
        baseline, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        t_mid = (t0 + t1) / 2
        # recovery_delay defaults to 1e-3: the second loss lands inside
        # the first recovery's stall + journal replay window.
        chaos = ChaosConfig(
            checkpoint_every=16,
            ckpt_replicas=2,
            losses=(
                LossSchedule("node", 0, t_mid),
                LossSchedule("gpu", 1, t_mid + 5e-4),
            ),
        )
        recovered, rt, _, _ = _cg_run(chaos, procs=2, nodes=2)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.recoveries >= 2

    def test_loss_during_checkpoint_drain_recovers_bitwise(self):
        from repro.analysis.checker import check_log

        baseline, _, t0, t1 = _cg_run(None, procs=2, nodes=2)
        # Dense epochs: with losses spread across the solve window at
        # least one is delivered at checkpoint entry (the drain), which
        # must recover first and then snapshot the recovered state.
        chaos = ChaosConfig(
            checkpoint_every=8,
            ckpt_replicas=2,
            losses=(
                LossSchedule("gpu", 1, t0 + 0.3 * (t1 - t0)),
                LossSchedule("gpu", 0, t0 + 0.7 * (t1 - t0)),
            ),
        )
        recovered, rt, _, _ = _cg_run(chaos, procs=2, nodes=2, validate=True)
        np.testing.assert_array_equal(baseline, recovered)
        assert rt.profiler.recoveries >= 2
        assert rt.profiler.checkpoints > 1
        assert check_log(rt.event_log) == []
