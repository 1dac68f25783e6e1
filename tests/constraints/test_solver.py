"""Unit tests for the constraint solver (§4.1)."""

import numpy as np
import pytest

from repro.constraints import (
    Align,
    Broadcast,
    ConstraintError,
    Image,
    ImageKind,
    Store,
    solve_partitions,
)
from repro.legion import (
    ImageByCoordinate,
    ImageByRange,
    Replicate,
    Runtime,
    RuntimeConfig,
    Tiling,
)
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture
def rt():
    machine = laptop()
    runtime = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(runtime):
        yield runtime


class TestAlignment:
    def test_aligned_stores_share_boundaries(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        sol = solve_partitions([a, b], [Align(a, b)], colors=2)
        pa, pb = sol[a.region.uid], sol[b.region.uid]
        assert isinstance(pa, Tiling) and isinstance(pb, Tiling)
        assert pa.boundaries == pb.boundaries

    def test_key_partition_reused(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        b = Store.create((10,), np.float64, runtime=rt)
        custom = Tiling(a.region, (0, 7, 10))
        a.set_key_partition(custom)
        sol = solve_partitions([a, b], [Align(a, b)], colors=2)
        assert sol[a.region.uid].boundaries == (0, 7, 10)
        assert sol[b.region.uid].boundaries == (0, 7, 10)

    def test_largest_store_wins(self, rt):
        small = Store.create((10,), np.float32, runtime=rt)
        big = Store.create((10,), np.float64, runtime=rt)
        small.set_key_partition(Tiling(small.region, (0, 1, 10)))
        big.set_key_partition(Tiling(big.region, (0, 9, 10)))
        sol = solve_partitions([small, big], [Align(small, big)], colors=2)
        assert sol[big.region.uid].boundaries == (0, 9, 10)

    def test_stale_key_partition_ignored(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        a.set_key_partition(Tiling.create(a.region, 4))  # wrong color count
        sol = solve_partitions([a], [], colors=2)
        assert sol[a.region.uid].color_count == 2

    def test_misaligned_lengths_rejected(self, rt):
        a = Store.create((10,), np.float64, runtime=rt)
        b = Store.create((11,), np.float64, runtime=rt)
        with pytest.raises(ConstraintError):
            solve_partitions([a, b], [Align(a, b)], colors=2)

    def test_transitive_alignment(self, rt):
        a = Store.create((12,), np.float64, runtime=rt)
        b = Store.create((12,), np.float64, runtime=rt)
        c = Store.create((12,), np.float64, runtime=rt)
        sol = solve_partitions([a, b, c], [Align(a, b), Align(b, c)], colors=2)
        assert (
            sol[a.region.uid].boundaries
            == sol[b.region.uid].boundaries
            == sol[c.region.uid].boundaries
        )


class TestBroadcast:
    def test_broadcast_replicates(self, rt):
        s = Store.create((5,), np.float64, runtime=rt)
        sol = solve_partitions([s], [Broadcast(s)], colors=2)
        assert isinstance(sol[s.region.uid], Replicate)

    def test_broadcast_and_align_conflict(self, rt):
        a = Store.create((5,), np.float64, runtime=rt)
        b = Store.create((5,), np.float64, runtime=rt)
        with pytest.raises(ConstraintError):
            solve_partitions(
                [a, b], [Broadcast(a), Align(a, b)], colors=2
            )


class TestImages:
    def make_csr_stores(self, rt):
        # 4x4 CSR with 2 nnz per row.
        pos = Store.create(
            (4, 2),
            np.int64,
            data=np.array([(0, 2), (2, 4), (4, 6), (6, 8)]),
            runtime=rt,
        )
        crd = Store.create(
            (8,), np.int64, data=np.array([0, 1, 1, 2, 2, 3, 0, 3]), runtime=rt
        )
        vals = Store.create((8,), np.float64, runtime=rt)
        x = Store.create((4,), np.float64, runtime=rt)
        y = Store.create((4,), np.float64, runtime=rt)
        return pos, crd, vals, x, y

    def test_spmv_constraint_chain(self, rt):
        """The Fig. 4 constraint set: equals + two images."""
        pos, crd, vals, x, y = self.make_csr_stores(rt)
        constraints = [
            Align(y, pos),
            Image(pos, crd, ImageKind.RANGE),
            Image(pos, vals, ImageKind.RANGE),
            Image(crd, x, ImageKind.COORDINATE),
        ]
        sol = solve_partitions([y, pos, crd, vals, x], constraints, colors=2)
        assert isinstance(sol[crd.region.uid], ImageByRange)
        assert isinstance(sol[vals.region.uid], ImageByRange)
        assert isinstance(sol[x.region.uid], ImageByCoordinate)
        # crd/vals images follow the pos rows exactly.
        assert sol[crd.region.uid].rect(0).lo == (0,)
        assert sol[crd.region.uid].rect(0).hi == (4,)
        assert sol[vals.region.uid].rect(1).lo == (4,)

    def test_image_dest_cannot_be_aligned(self, rt):
        pos, crd, vals, x, y = self.make_csr_stores(rt)
        with pytest.raises(ConstraintError):
            solve_partitions(
                [pos, crd, y],
                [Image(pos, crd, ImageKind.RANGE), Align(crd, y)],
                colors=2,
            )

    def test_dangling_image_source(self, rt):
        pos, crd, vals, x, y = self.make_csr_stores(rt)
        # Source never gets a partition: crd is a dest of a missing chain.
        with pytest.raises(ConstraintError):
            solve_partitions(
                [crd, x],
                [
                    Image(crd, x, ImageKind.COORDINATE),
                    Image(x, crd, ImageKind.COORDINATE),
                ],
                colors=2,
            )

    def test_chained_images(self, rt):
        pos, crd, vals, x, y = self.make_csr_stores(rt)
        constraints = [
            Image(pos, crd, ImageKind.RANGE),
            Image(crd, x, ImageKind.COORDINATE),
        ]
        sol = solve_partitions([pos, crd, x], constraints, colors=2)
        assert isinstance(sol[x.region.uid], ImageByCoordinate)


class TestDefaults:
    def test_unconstrained_store_gets_tiling(self, rt):
        s = Store.create((6,), np.float64, runtime=rt)
        sol = solve_partitions([s], [], colors=2)
        assert isinstance(sol[s.region.uid], Tiling)
        assert sol[s.region.uid].color_count == 2
