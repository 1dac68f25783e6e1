"""Failure injection: error paths behave predictably and recoverably."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.constraints import ConstraintError
from repro.legion import OutOfMemoryError, Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind, laptop
from repro.machine.model import MachineConfig


def tiny_gpu_machine(fb_mb: float = 1.0) -> Machine:
    return Machine(
        MachineConfig(
            nodes=1,
            sockets_per_node=1,
            gpus_per_node=2,
            gpu_memory=int(fb_mb * 2**20),
            sysmem_per_node=2 * 2**30,
        )
    )


class TestOutOfMemory:
    def test_oversized_array_raises(self):
        machine = tiny_gpu_machine(fb_mb=0.5)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            with pytest.raises(OutOfMemoryError) as err:
                rnp.zeros(10_000_000)
                rt.barrier()  # deferred launches map at the sync point
            assert "framebuffer" in str(err.value)

    def test_error_reports_requested_and_available(self):
        machine = tiny_gpu_machine(fb_mb=0.5)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            with pytest.raises(OutOfMemoryError) as err:
                rnp.zeros(10_000_000)
                rt.barrier()
            assert err.value.requested > err.value.available

    def test_adding_processors_avoids_oom(self):
        """The Fig. 12 pattern: the same problem fits on more GPUs."""
        n = 45_000  # ~352 KB of float64: too big for half a 1MB FB
        machine1 = tiny_gpu_machine(fb_mb=0.4)
        rt1 = Runtime(machine1.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt1), pytest.raises(OutOfMemoryError):
            rnp.zeros(n)
            rt1.barrier()
        machine2 = tiny_gpu_machine(fb_mb=0.4)
        rt2 = Runtime(machine2.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(rt2):
            arr = rnp.zeros(n)  # tiled across two framebuffers
            assert arr.shape == (n,)

    def test_runtime_usable_after_oom(self):
        machine = tiny_gpu_machine(fb_mb=0.5)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            with pytest.raises(OutOfMemoryError):
                rnp.zeros(10_000_000)
                rt.barrier()
            small = rnp.ones(64)
            assert float(rnp.sum(small)) == 64.0

    def test_freed_regions_allow_retry(self):
        machine = tiny_gpu_machine(fb_mb=1.0)
        rt = Runtime(machine.scope(ProcessorKind.GPU, 1), RuntimeConfig.legate())
        with runtime_scope(rt):
            a = rnp.zeros(50_000)  # ~400 KB of ~870 KB budget
            del a
            b = rnp.zeros(50_000)  # reuses the recycled allocation
            assert b.shape == (50_000,)


class TestUserErrors:
    def test_shape_mismatch_messages(self, rt):
        A = sp.eye(4, format="csr")
        with pytest.raises(ValueError, match="dimension mismatch"):
            A @ rnp.ones(5)
        with pytest.raises(ValueError, match="shape mismatch"):
            rnp.ones(3) + rnp.ones(4)
        with pytest.raises(ValueError, match="shape mismatch"):
            sp.eye(3, format="csr") + sp.eye(4, format="csr")

    def test_solver_input_validation(self, rt):
        A = sp.eye(4, format="csr")
        with pytest.raises(ValueError):
            sp.linalg.cg(A, rnp.ones(5))

    def test_bad_constructor_type(self, rt):
        with pytest.raises(TypeError):
            sp.csr_matrix("not a matrix")

    def test_conflicting_constraints_surface(self, rt):
        from repro.constraints import AutoTask, Store

        a = Store.create((4,), np.float64, runtime=rt)
        b = Store.create((4,), np.float64, runtime=rt)
        task = AutoTask(rt, "bad", lambda ctx: None)
        task.add_input("a", a)
        task.add_input("b", b)
        task.add_broadcast(a)
        task.add_alignment_constraint(a, b)
        with pytest.raises(ConstraintError):
            task.execute()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_solver_breakdown_reports_negative_info(self, rt):
        """CG on a singular system with a zero curvature direction: the
        body issued before the breakdown test is read is discarded
        without a warning."""
        import scipy.sparse as sps

        # A = 0: p^T A p == 0 on the first iteration -> breakdown.
        A = sp.csr_matrix(sps.csr_matrix((3, 3)))
        x, info = sp.linalg.cg(A, rnp.ones(3), maxiter=5)
        assert info == -1


class TestNumericalEdgeCases:
    def test_empty_matrix_products(self, rt):
        A = sp.csr_matrix((3, 4))
        out = A @ rnp.ones(4)
        np.testing.assert_array_equal(out.to_numpy(), np.zeros(3))

    def test_zero_length_vector_norm(self, rt):
        z = rnp.zeros(0)
        assert float(rnp.linalg.norm(z)) == 0.0

    def test_single_row_matrix(self, rt):
        A = sp.csr_matrix(np.array([[1.0, 2.0, 3.0]]))
        out = A @ rnp.ones(3)
        assert float(out[0]) == 6.0

    def test_matrix_larger_proc_count_than_rows(self):
        machine = laptop()
        rt = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
        with runtime_scope(rt):
            A = sp.csr_matrix(np.array([[2.0]]))
            out = A @ rnp.ones(1)
            assert float(out[0]) == 2.0

    def test_nan_propagates_not_crashes(self, rt):
        a = rnp.array(np.array([np.nan, 1.0]))
        out = (a * 2.0).to_numpy()
        assert np.isnan(out[0]) and out[1] == 2.0
