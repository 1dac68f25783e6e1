"""Tests for automatic tracing (the paper's cited tracing fix)."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop


@pytest.fixture
def rt():
    machine = laptop()
    runtime = Runtime(machine.scope(ProcessorKind.GPU, 2), RuntimeConfig.legate())
    with runtime_scope(runtime):
        yield runtime


def loop_body(A, x):
    y = A @ x
    y /= rnp.linalg.norm(y)
    return y


class TestTrace:
    def test_capture_then_replay(self, rt):
        """The first power iteration is charged in full, the three
        after it replay: {SpMV, norm} and the divide each time."""
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        replayed = []
        for _ in range(4):
            x = loop_body(A, x)
            rt.barrier()
            replayed.append(rt.profiler.launches_replayed)
        assert replayed == [0, 2, 4, 6]

    def test_replay_is_faster(self, rt):
        """Replayed iterations charge a fraction of the launch overhead."""

        def run(fraction: float) -> float:
            runtime = Runtime(
                laptop().scope(ProcessorKind.GPU, 1),
                RuntimeConfig.legate(
                    launch_overhead=1e-3, trace_replay_fraction=fraction
                ),
            )
            with runtime_scope(runtime):
                B = sp.eye(256, format="csr")
                x = rnp.ones(256)
                x = loop_body(B, x)  # warm-up
                t0 = runtime.barrier()
                for _ in range(6):
                    x = loop_body(B, x)
                return runtime.barrier() - t0

        assert run(0.15) < 0.6 * run(1.0)

    def test_numerics_unchanged_by_tracing(self, rt):
        mat = np.random.default_rng(0).random((32, 32))
        mat[mat < 0.7] = 0
        host = mat + 32 * np.eye(32)

        def run(fraction: float) -> np.ndarray:
            runtime = Runtime(
                laptop().scope(ProcessorKind.GPU, 2),
                RuntimeConfig.legate(trace_replay_fraction=fraction),
            )
            with runtime_scope(runtime):
                A = sp.csr_matrix(host)
                x = rnp.ones(32)
                for _ in range(3):
                    x = loop_body(A, x)
                solution = x.to_numpy()
            assert runtime.profiler.launches_replayed > 0
            return solution

        assert run(0.15).tobytes() == run(1.0).tobytes()

    def test_divergent_body_recaptures(self, rt):
        """Another launch sequence is charged in full once and recorded:
        its repeat replays."""
        A = sp.eye(32, format="csr")
        x = rnp.ones(32)

        def body(normalize: bool) -> int:
            nonlocal x
            before = rt.profiler.launches_replayed
            x = A @ x
            if normalize:  # a different sequence
                x /= rnp.linalg.norm(x)
            rt.barrier()
            return rt.profiler.launches_replayed - before

        assert [body(False), body(False)] == [0, 1]
        assert [body(True), body(True)] == [0, 2]

    def test_cg_tail_iteration_diverges_gracefully(self, rt):
        """A loop whose final iteration does extra work (the convergence
        tail): the tail's new launches are charged in full, the rest of
        the loop replays as before, and the numerics are untouched."""
        A = sp.csr_matrix(
            np.diag(np.arange(2.0, 34.0)) - np.eye(32, k=1) - np.eye(32, k=-1)
        )
        x = rnp.ones(32)
        rt.barrier()
        iters = 5
        replayed = []
        for it in range(iters):
            before = rt.profiler.launches_replayed
            launched = rt.profiler.tasks_launched
            x = loop_body(A, x)
            if it == iters - 1:  # tail: compute the final residual
                r = A @ x
                r -= x
            rt.barrier()
            replayed.append((
                rt.profiler.launches_replayed - before,
                rt.profiler.tasks_launched - launched,
            ))
        assert replayed[0] == (0, 2)
        assert replayed[1:-1] == [(2, 2)] * (iters - 2)
        tail_replayed, tail_launched = replayed[-1]
        assert tail_launched > 2
        assert tail_replayed < tail_launched
        assert np.isfinite(x.to_numpy()).all()
