"""Recovery units: replica placement, manifest, recovery planner."""

import numpy as np
import pytest

from repro.geometry import Rect, RectSet
from repro.legion.chaos import ChaosConfig
from repro.legion.exceptions import FaultError
from repro.legion.privilege import Privilege
from repro.legion.recovery import CheckpointManifest, journal_write_coverage
from repro.legion.runtime import Runtime, RuntimeConfig
from repro.machine import MemoryKind, ProcessorKind, summit


def r1(lo, hi):
    return Rect((lo,), (hi,))


def _sysmem(machine, node):
    for mem in machine.memories:
        if mem.kind == MemoryKind.SYSMEM and mem.node == node:
            return mem
    raise AssertionError(f"no sysmem on node {node}")


def _framebuffer(machine, node):
    for mem in machine.memories:
        if mem.kind == MemoryKind.FRAMEBUFFER and mem.node == node:
            return mem
    raise AssertionError(f"no framebuffer on node {node}")


def _runtime(nodes, replicas=1):
    """A one-GPU runtime on ``nodes`` summit nodes whose checkpoints
    replicate into ``replicas`` fault domains."""
    return Runtime(
        summit(nodes=nodes).scope(ProcessorKind.GPU, 1),
        RuntimeConfig.legate(chaos=ChaosConfig(ckpt_replicas=replicas)),
    )


class TestPlacement:
    def test_replicas_1_is_exactly_node0_sysmem(self):
        stores = _runtime(3).recovery.place_stores()
        assert [(m.kind, m.node) for m in stores] == [(MemoryKind.SYSMEM, 0)]

    def test_replicas_spread_across_distinct_fault_domains(self):
        stores = _runtime(3, replicas=2).recovery.place_stores()
        assert [m.node for m in stores] == [0, 1]
        assert all(m.kind == MemoryKind.SYSMEM for m in stores)

    def test_replicas_clamped_to_available_domains(self):
        stores = _runtime(2, replicas=5).recovery.place_stores()
        assert [m.node for m in stores] == [0, 1]

    def test_dead_domains_excluded(self):
        recovery = _runtime(3, replicas=2).recovery
        assert [m.node for m in recovery.place_stores({0})] == [1, 2]
        assert recovery.place_stores({0, 1, 2}) == []


class TestSourceRanking:
    """The planner ranks sources by the runtime's routes: summed
    latency plus bytes over the narrowest channel."""

    def test_same_memory_is_free(self):
        """What the store already holds is never copied: only the
        missing half is restored."""
        rt = _runtime(2)
        s0, s1 = _sysmem(rt.machine, 0), _sysmem(rt.machine, 1)
        x = rt.create_region((100,), np.float64, name="x")
        coh = rt.coherence(x)
        coh.written.add(r1(0, 100))
        coh.mark_valid(s0.uid, r1(0, 50), 1.0)
        coh.mark_valid(s1.uid, r1(0, 100), 1.0)
        rt.recovery.manifest.record(x.uid, "x", RectSet([r1(0, 100)]))
        steps = rt.recovery.plan_recovery({}, [s0])
        assert [(st.src_uid, st.rect) for st in steps] == [(s1.uid, r1(50, 100))]

    def test_cross_node_costs_more_than_intra_node(self):
        rt = _runtime(2)
        machine = rt.machine
        s0, f0, s1 = _sysmem(machine, 0), _framebuffer(machine, 0), _sysmem(machine, 1)
        nbytes = 10**6

        def cost(src):
            _, latency, bandwidth = rt._route(src, s0)
            return latency + nbytes / bandwidth

        assert 0.0 < cost(f0) < cost(s1)


class TestManifest:
    def test_record_skips_empty_and_sums_volume(self):
        man = CheckpointManifest()
        man.record(1, "x", RectSet([r1(0, 10)]))
        man.record(2, "y", RectSet())
        assert set(man.pieces) == {1}
        assert man.protected_volume() == 10
        man.drop(1)
        assert not man.pieces


class _Part:
    """Stub partition: color -> rect."""

    def __init__(self, rects):
        self._rects = rects

    @property
    def color_count(self):
        return len(self._rects)

    def rect(self, color):
        return self._rects[color]


class _Region:
    def __init__(self, uid):
        self.uid = uid


class _Req:
    def __init__(self, privilege, region, partition, owner=None):
        self.privilege = privilege
        self.region = region
        self.partition = partition
        self.owner = owner


class _Task:
    def __init__(self, reqs, color_count):
        self.requirements = reqs
        self.color_count = color_count


class TestJournalCoverage:
    def test_writes_cover_partition_rects_reads_do_not(self):
        region = _Region(7)
        part = _Part([r1(0, 5), r1(5, 10)])
        task = _Task(
            [
                _Req(Privilege.WRITE, region, part),
                _Req(Privilege.READ, _Region(8), part),
            ],
            color_count=2,
        )
        cov = journal_write_coverage([task], set())
        assert set(cov) == {7}
        assert cov[7].volume() == 10
        assert RectSet([r1(0, 10)]).subtract(cov[7]).is_empty()

    def test_freed_regions_excluded(self):
        region = _Region(7)
        task = _Task([_Req(Privilege.WRITE, region, _Part([r1(0, 5)]))], 1)
        assert journal_write_coverage([task], {7}) == {}

    def test_reduce_uses_owner_partition_not_contributions(self):
        # The fold re-marks owner tiles written, regardless of which
        # contribution rects overlap them — coverage must match the fold
        # exactly (over-approximating would lose data in recovery).
        region = _Region(7)
        contributions = _Part([r1(0, 10), r1(0, 10)])  # overlapping partials
        owner = _Part([r1(0, 4), r1(4, 10)])
        task = _Task(
            [_Req(Privilege.REDUCE, region, contributions, owner)],
            color_count=2,
        )
        cov = journal_write_coverage([task], set())
        assert cov[7].volume() == 10
        assert RectSet([r1(0, 10)]).subtract(cov[7]).is_empty()


class TestPlanner:
    RECT = r1(0, 100)

    def _setup(self):
        """A runtime on two nodes and a region ``x`` whose 100 written
        elements the last epoch protects: the runtime, x (freed when
        dropped) and its coherence (valid nowhere yet)."""
        rt = _runtime(2)
        x = rt.create_region((100,), np.float64, name="x")
        rt.recovery.manifest.record(x.uid, "x", RectSet([self.RECT]))
        coh = rt.coherence(x)
        coh.written.add(self.RECT)
        return rt, x, coh

    def test_survives_single_domain_loss_by_resourcing(self):
        rt, _x, coh = self._setup()
        s0, s1 = _sysmem(rt.machine, 0), _sysmem(rt.machine, 1)
        coh.mark_valid(s1.uid, self.RECT, 1.0)  # replica 1 survives; s0 wiped
        steps = rt.recovery.plan_recovery({}, [s0, s1])
        # Only the wiped store needs refilling, from the survivor.
        assert [(st.src_uid, st.dst_uid) for st in steps] == [(s1.uid, s0.uid)]
        assert steps[0].rect == self.RECT
        assert steps[0].nbytes == 100 * 8

    def test_replay_rewritten_pieces_not_restored(self):
        rt, x, coh = self._setup()
        s0, s1 = _sysmem(rt.machine, 0), _sysmem(rt.machine, 1)
        coh.mark_valid(s1.uid, self.RECT, 1.0)
        rewritten = {x.uid: RectSet([self.RECT])}
        assert rt.recovery.plan_recovery(rewritten, [s0, s1]) == []

    def test_cheapest_surviving_source_wins(self):
        rt, _x, coh = self._setup()
        s0, f0, s1 = (
            _sysmem(rt.machine, 0),
            _framebuffer(rt.machine, 0),
            _sysmem(rt.machine, 1),
        )
        coh.mark_valid(f0.uid, self.RECT, 1.0)  # NVLink-close framebuffer
        coh.mark_valid(s1.uid, self.RECT, 1.0)  # NIC-remote replica
        steps = rt.recovery.plan_recovery({}, [s0])
        assert [st.src_uid for st in steps] == [f0.uid]

    def test_all_replicas_gone_names_region_and_rect(self):
        rt, _x, _ = self._setup()  # written once, now valid nowhere
        s0, s1 = _sysmem(rt.machine, 0), _sysmem(rt.machine, 1)
        with pytest.raises(FaultError, match="all replicas") as exc:
            rt.recovery.plan_recovery({}, [s0, s1])
        assert "x" in str(exc.value)
        assert str(self.RECT) in str(exc.value)


class TestDetectionTimes:
    def test_zero_heartbeat_suspects_immediately(self):
        cfg = ChaosConfig(detection_timeout=2e-4)
        assert cfg.detection_times(0.5) == (0.5, 0.5 + 2e-4)

    def test_suspicion_waits_for_next_heartbeat_tick(self):
        cfg = ChaosConfig(heartbeat_period=1e-3, detection_timeout=5e-4)
        suspected, confirmed = cfg.detection_times(0.0042)
        assert suspected == pytest.approx(0.005)
        assert confirmed == pytest.approx(0.0055)

    def test_loss_on_tick_is_suspected_on_that_tick(self):
        cfg = ChaosConfig(heartbeat_period=1e-3)
        suspected, confirmed = cfg.detection_times(0.004)
        assert suspected == pytest.approx(0.004)
        assert confirmed == suspected
