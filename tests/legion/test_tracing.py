"""Tests for trace capture/replay (the paper's cited tracing fix)."""

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig, Trace
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
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        trace = Trace(rt, "power-iter")
        for _ in range(4):
            with trace:
                x = loop_body(A, x)
        assert trace.is_captured
        assert trace.replays == 3
        assert trace.captures == 1

    def test_replay_is_faster(self, rt):
        """Replayed iterations charge a fraction of the launch overhead."""
        A = sp.eye(256, format="csr")

        def run(traced: bool) -> float:
            runtime = Runtime(
                laptop().scope(ProcessorKind.GPU, 1),
                RuntimeConfig.legate(launch_overhead=1e-3),
            )
            with runtime_scope(runtime):
                B = sp.eye(256, format="csr")
                x = rnp.ones(256)
                trace = Trace(runtime, "t")
                x = loop_body(B, x)  # warm-up
                t0 = runtime.barrier()
                for _ in range(6):
                    if traced:
                        with trace:
                            x = loop_body(B, x)
                    else:
                        x = loop_body(B, x)
                return runtime.barrier() - t0

        untraced = run(False)
        traced = run(True)
        assert traced < 0.6 * untraced

    def test_numerics_unchanged_by_tracing(self, rt):
        mat = np.random.default_rng(0).random((32, 32))
        mat[mat < 0.7] = 0
        A = sp.csr_matrix(mat + 32 * np.eye(32))
        trace = Trace(rt, "t")
        x1 = rnp.ones(32)
        x2 = rnp.ones(32)
        for _ in range(3):
            x1 = loop_body(A, x1)
            with trace:
                x2 = loop_body(A, x2)
        np.testing.assert_allclose(x1.to_numpy(), x2.to_numpy(), rtol=1e-14)

    def test_divergent_body_recaptures(self, rt):
        A = sp.eye(32, format="csr")
        x = rnp.ones(32)
        trace = Trace(rt, "t")
        with trace:
            x = A @ x
        with trace:
            x = A @ x
            x /= rnp.linalg.norm(x)  # different sequence
        assert trace.captures == 2
        assert trace.replays == 0

    def test_cg_tail_iteration_diverges_gracefully(self, rt):
        """A CG loop whose final iteration does extra work (the
        convergence tail) diverges mid-body: the runtime degrades to
        full dynamic cost for that body and re-captures instead of
        aborting, and the numerics are untouched."""
        A = sp.csr_matrix(
            np.diag(np.arange(2.0, 34.0)) - np.eye(32, k=1) - np.eye(32, k=-1)
        )
        x = rnp.ones(32)
        trace = Trace(rt, "cg-body")
        iters = 5
        for it in range(iters):
            with trace:
                x = loop_body(A, x)
                if it == iters - 1:  # tail: compute the final residual
                    r = A @ x
                    r -= x
        assert trace.captures == 2  # initial capture + tail re-capture
        assert trace.replays == iters - 2
        # The re-captured (longer) body replays cleanly from here on.
        for it in range(2):
            with trace:
                x = loop_body(A, x)
                r = A @ x
                r -= x
        assert trace.replays == iters - 2 + 2
        assert np.isfinite(x.to_numpy()).all()

    def test_nesting_joins(self, rt):
        """A scope opened inside another joins it: one body, the
        outermost trace's, whatever the inner scope's trace is."""
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        outer, inner = Trace(rt, "outer"), Trace(rt, "inner")
        for _ in range(3):
            with outer:
                y = A @ x
                with inner, outer:  # another trace, and re-entry
                    x = y / rnp.linalg.norm(y)
                assert rt._trace is outer
        assert rt._trace is None
        assert (outer.captures, outer.replays) == (1, 2)
        assert (inner.captures, inner.replays) == (0, 0)
        assert not inner.is_captured

    def test_runtime_owns_its_traces(self, rt):
        trace = rt.trace("cg", key=(64, "float64"))
        assert rt.trace("cg", key=(64, "float64")) is trace
        assert rt.trace("cg", key=(32, "float64")) is not trace
        assert rt.trace("vcycle", key=(64, "float64")) is not trace
        assert Trace(rt, "cg") is not trace  # the private constructor
        for i in range(2 * rt.MAX_TRACES):  # bounded: oldest ids go
            rt.trace("many", key=(i,))
        assert len(rt._traces) == rt.MAX_TRACES
        assert rt.trace("cg", key=(64, "float64")) is not trace

    def test_reset_for_program_clears_the_registry(self, rt):
        A = sp.eye(64, format="csr")
        x = rnp.ones(64)
        trace = rt.trace("loop")
        for _ in range(2):
            with trace:
                x = loop_body(A, x)
        assert trace.replays == 1
        rt.reset_for_program()
        fresh = rt.trace("loop")
        assert fresh is not trace and not fresh.is_captured
        # The old handle still works, but captured under another epoch
        # it starts over.
        with trace:
            x = loop_body(A, x)
        assert (trace.captures, trace.replays) == (2, 1)

    def test_exception_inside_trace_does_not_capture_garbage(self, rt):
        A = sp.eye(16, format="csr")
        x = rnp.ones(16)
        trace = Trace(rt, "t")
        with pytest.raises(ValueError), trace:
            x = A @ x
            raise ValueError("boom")
        assert not trace.is_captured
        # A clean iteration captures normally afterwards.
        with trace:
            x = A @ x
        assert trace.is_captured
