"""Resilience 2.0 units: replica placement, manifest, recovery planner."""

import pytest

from repro.geometry import Rect, RectSet
from repro.legion.chaos import ChaosConfig
from repro.legion.coherence import RegionCoherence
from repro.legion.exceptions import FaultError
from repro.legion.privilege import Privilege
from repro.legion.resilience import (
    CheckpointManifest,
    journal_write_coverage,
    place_stores,
    plan_recovery,
    transfer_cost,
)
from repro.machine import MemoryKind, summit


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


class TestPlacement:
    def test_replicas_1_is_exactly_node0_sysmem(self):
        machine = summit(nodes=3)
        stores = place_stores(machine, 1)
        assert [(m.kind, m.node) for m in stores] == [(MemoryKind.SYSMEM, 0)]

    def test_replicas_spread_across_distinct_fault_domains(self):
        machine = summit(nodes=3)
        stores = place_stores(machine, 2)
        assert [m.node for m in stores] == [0, 1]
        assert all(m.kind == MemoryKind.SYSMEM for m in stores)

    def test_replicas_clamped_to_available_domains(self):
        machine = summit(nodes=2)
        assert [m.node for m in place_stores(machine, 5)] == [0, 1]

    def test_dead_domains_excluded(self):
        machine = summit(nodes=3)
        stores = place_stores(machine, 2, exclude_nodes={0})
        assert [m.node for m in stores] == [1, 2]
        assert place_stores(machine, 2, exclude_nodes={0, 1, 2}) == []


class TestTransferCost:
    def test_same_memory_is_free(self):
        machine = summit(nodes=2)
        s0 = _sysmem(machine, 0)
        assert transfer_cost(machine, s0, s0, 10**6) == 0.0

    def test_cross_node_costs_more_than_intra_node(self):
        machine = summit(nodes=2)
        s0, f0, s1 = _sysmem(machine, 0), _framebuffer(machine, 0), _sysmem(machine, 1)
        nbytes = 10**6
        intra = transfer_cost(machine, f0, s0, nbytes)
        cross = transfer_cost(machine, s1, s0, nbytes)
        assert 0.0 < intra < cross


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
    def _setup(self, nodes=2):
        machine = summit(nodes=nodes)
        by_uid = {m.uid: m for m in machine.memories}
        return machine, by_uid

    def _plan(self, machine, by_uid, manifest, coh, rewritten, stores):
        return plan_recovery(
            manifest, {1: coh}, rewritten, stores, machine,
            by_uid.__getitem__, {1: ("x", 8)},
        )

    def test_survives_single_domain_loss_by_resourcing(self):
        machine, by_uid = self._setup()
        s0, s1 = _sysmem(machine, 0), _sysmem(machine, 1)
        rect = r1(0, 100)
        coh = RegionCoherence()
        coh.written.add(rect)
        coh.mark_valid(s1.uid, rect, 1.0)  # replica 1 survives; s0 wiped
        manifest = CheckpointManifest()
        manifest.record(1, "x", RectSet([rect]))
        steps = self._plan(machine, by_uid, manifest, coh, {}, [s0, s1])
        # Only the wiped store needs refilling, from the survivor.
        assert [(st.src_uid, st.dst_uid) for st in steps] == [(s1.uid, s0.uid)]
        assert steps[0].rect == rect
        assert steps[0].nbytes == 100 * 8

    def test_replay_rewritten_pieces_not_restored(self):
        machine, by_uid = self._setup()
        s0, s1 = _sysmem(machine, 0), _sysmem(machine, 1)
        rect = r1(0, 100)
        coh = RegionCoherence()
        coh.written.add(rect)
        coh.mark_valid(s1.uid, rect, 1.0)
        manifest = CheckpointManifest()
        manifest.record(1, "x", RectSet([rect]))
        rewritten = {1: RectSet([rect])}
        assert self._plan(machine, by_uid, manifest, coh, rewritten, [s0, s1]) == []

    def test_cheapest_surviving_source_wins(self):
        machine, by_uid = self._setup()
        s0, f0, s1 = (
            _sysmem(machine, 0),
            _framebuffer(machine, 0),
            _sysmem(machine, 1),
        )
        rect = r1(0, 100)
        coh = RegionCoherence()
        coh.written.add(rect)
        coh.mark_valid(f0.uid, rect, 1.0)  # NVLink-close framebuffer
        coh.mark_valid(s1.uid, rect, 1.0)  # NIC-remote replica
        manifest = CheckpointManifest()
        manifest.record(1, "x", RectSet([rect]))
        steps = self._plan(machine, by_uid, manifest, coh, {}, [s0])
        assert [st.src_uid for st in steps] == [f0.uid]

    def test_all_replicas_gone_names_region_and_rect(self):
        machine, by_uid = self._setup()
        s0, s1 = _sysmem(machine, 0), _sysmem(machine, 1)
        rect = r1(0, 100)
        coh = RegionCoherence()
        coh.written.add(rect)  # written once, now valid nowhere
        manifest = CheckpointManifest()
        manifest.record(1, "x", RectSet([rect]))
        with pytest.raises(FaultError, match="all replicas") as exc:
            self._plan(machine, by_uid, manifest, coh, {}, [s0, s1])
        assert "x" in str(exc.value)
        assert str(rect) in str(exc.value)


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
