"""Exact (piecewise) coordinate images vs bounding rects."""

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.geometry import Rect
from repro.legion import Runtime, RuntimeConfig, Tiling
from repro.legion.partition import ImageByCoordinate
from repro.legion.region import Region
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


class TestExactImagePieces:
    def test_runs_computed(self):
        crd = Region((6,), np.int64, data=np.array([0, 1, 5, 6, 1, 0]))
        x = Region((10,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 1), x, exact=True)
        pieces = img.pieces(0)
        assert pieces == (Rect((0,), (2,)), Rect((5,), (7,)))
        # The bounding rect is still the hull.
        assert img.rect(0) == Rect((0,), (7,))

    def test_bounding_default(self):
        crd = Region((4,), np.int64, data=np.array([0, 9, 0, 9]))
        x = Region((10,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 1), x)
        assert img.pieces(0) == (Rect((0,), (10,)),)

    def test_too_many_runs_falls_back(self):
        coords = np.arange(0, 300, 2)  # 150 separate runs
        crd = Region((len(coords),), np.int64, data=coords)
        x = Region((400,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 1), x, exact=True)
        assert img.pieces(0) == (Rect((0,), (299,)),)

    def test_pieces_cover_all_references(self):
        rng = np.random.default_rng(0)
        coords = rng.choice(100, size=40, replace=True)
        crd = Region((40,), np.int64, data=coords.astype(np.int64))
        x = Region((100,), np.float64)
        img = ImageByCoordinate(crd, Tiling.create(crd, 2), x, exact=True)
        for c in range(2):
            tile = Tiling.create(crd, 2).rect(c)
            refs = coords[tile.lo[0] : tile.hi[0]]
            pieces = img.pieces(c)
            for j in refs:
                assert any(p.contains_point((int(j),)) for p in pieces)


class TestExactImageCommunication:
    def _spmv_copy_bytes(self, exact: bool) -> int:
        """Two-GPU SpMV on a matrix referencing only the vector's ends."""
        machine = laptop()
        rt = Runtime(
            machine.scope(ProcessorKind.GPU, 2),
            RuntimeConfig.legate(exact_images=exact),
        )
        with runtime_scope(rt):
            n = 1024
            # Each row references columns 0 and n-1 only: the bounding
            # image is the whole vector, the exact image two elements.
            rows = np.repeat(np.arange(n), 2)
            cols = np.tile(np.array([0, n - 1]), n)
            vals = np.ones(2 * n)
            ref = sps.csr_matrix((vals, (rows, cols)), shape=(n, n))
            A = sp.csr_matrix(ref)
            x = rnp.ones(n)
            for _ in range(3):  # startup: staging + instance steady state
                x = A @ x
                x /= rnp.linalg.norm(x)
            rt.barrier()
            snap = rt.profiler.snapshot()
            x = A @ x  # the rewritten x makes the halo stale again
            rt.barrier()
            return rt.profiler.since(snap).copy_bytes.get("nvlink", 0)

    def test_exact_images_shrink_halo(self):
        bounding = self._spmv_copy_bytes(exact=False)
        exact = self._spmv_copy_bytes(exact=True)
        assert exact < bounding / 50

    def test_numerics_identical(self):
        results = []
        for exact in (False, True):
            machine = laptop()
            rt = Runtime(
                machine.scope(ProcessorKind.GPU, 2),
                RuntimeConfig.legate(exact_images=exact),
            )
            with runtime_scope(rt):
                rng = np.random.default_rng(1)
                ref = sps.random(64, 64, density=0.2, random_state=rng, format="csr")
                A = sp.csr_matrix(ref)
                x = rnp.array(rng.random(64))
                results.append((A @ x).to_numpy())
        np.testing.assert_allclose(results[0], results[1], rtol=1e-14)
