"""Copies take the earliest window idle on every channel of their route.

An inter-node copy occupies the NICs of both nodes.  Booking it at the
later of the two tails and holding both until it finishes chains one
exchange's halo copies across the whole machine, one NIC pair after the
next; filling the gaps the chain leaves open runs them side by side.
"""

import math

import pytest

import repro.legion.runtime as runtime_module
import repro.numeric as rnp
import repro.sparse as sp
from repro.apps.poisson import poisson2d_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, summit

GRID = 96
PER_GPU_N = 26_000_000  # fig9_cg's full-scale rows per GPU


def _fig9_cg(nodes: int, profile: bool = True):
    """Fig. 9's weak-scaled CG on every GPU of ``nodes`` summit nodes:
    a warm-up solve, then one timed iteration.  Returns (rt, t0, t1)."""
    procs = 6 * nodes
    n_full = PER_GPU_N * procs
    rt = Runtime(
        summit(nodes=nodes).scope(ProcessorKind.GPU, procs),
        RuntimeConfig.legate(
            profile=profile,
            data_scale=n_full / GRID**2,
            comm_scale=math.sqrt(n_full) / GRID,
        ),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(GRID))
        b = rnp.ones(GRID * GRID)
        sp.linalg.cg(A, b, rtol=0.0, maxiter=2)
        t0 = rt.barrier()
        sp.linalg.cg(A, b, rtol=0.0, maxiter=1)
        t1 = rt.barrier()
    return rt, t0, t1


def _path_copies(nodes: int) -> int:
    rt, t0, t1 = _fig9_cg(nodes)
    steps = rt.timeline.critical_path(t1).steps
    return sum(1 for s in steps if s.kind == "copy" and s.start >= t0)


def test_halo_exchange_is_no_convoy():
    """Copy steps on the critical path of one CG iteration do not grow
    from 4 to 16 nodes.  (Booked at the busiest channel's tail, the
    16-node iteration's path held 45 copies, the 4-node one none.)"""
    assert _path_copies(16) <= _path_copies(4)


@pytest.mark.parametrize("nodes", [4, 16])
def test_a_gap_is_never_filled_before_the_issue_clock(monkeypatch, nodes):
    """A copy that fills a gap starts no earlier than the end of its
    launch's issue span: the issue clock when the copy is booked."""
    booked = []
    reserve = runtime_module.reserve

    def spy(route, ready, clock, latency, cost):
        tails = max(chan.busy_until for chan in route)
        start, finish = reserve(route, ready, clock, latency, cost)
        booked.append((start, tails, runtime_module.get_runtime().issue_time))
        return start, finish

    monkeypatch.setattr(runtime_module, "reserve", spy)
    _fig9_cg(nodes, profile=False)
    filled = [(start, issued) for start, tails, issued in booked if start < tails]
    assert filled
    assert all(start >= issued for start, issued in filled)
