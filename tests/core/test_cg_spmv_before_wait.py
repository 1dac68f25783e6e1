"""CG issues before it checks: same bits as the check-first loop.

``cg`` issues an iteration's SpMV, its ``p·q`` and its whole body before
it runs the host checks of the body's start, which read the values one
body back: the previous ``p·q == 0`` breakdown test, the callback, then
the ``‖r_k‖`` convergence test.  ``_setup`` leaves ``‖b‖`` deferred
until the first check.  On one GPU with fusion on, a check that would
stall the host waits in a FIFO while fewer than ``_AHEAD`` bodies are
outstanding.  The contract:

* **values** -- ``x``, ``info`` and every callback are bitwise those of
  the check-first loop, kept verbatim below as ``reference_cg``: over
  convergence at iteration 0, at iteration k and never, ``b = 0``, an
  exactly zero residual after one step, a given ``x0``, ``maxiter = 0``,
  a ``p·q == 0`` breakdown and a preconditioner, fused and eager, on
  one and two GPUs, with ``b`` ready and still being computed.
  A stop is silent: the bodies it discards raise no ``RuntimeWarning``;
* **the clock** -- nothing waits before the first iteration's SpMV is
  issued; an iteration (from its SpMV to the next) issues its SpMV,
  ``p·q`` and body, then checks; body k's ``r -= q α`` is issued before
  the host waits on ``‖r_k‖``, and while the allreduce of ``p_k·q_k``
  is still running;
* **issuing ahead** -- a one-GPU solve whose right-hand side is still
  being computed issues ``min(maxiter, _AHEAD)`` bodies before its first
  wait, which stalls; at two and six GPUs, and with fusion off, the
  launch/wait sequence is the lagged loop's (``lagged_cg``, verbatim
  from before the FIFO).

Mutants each test catches: the checks moved back between ``p·q`` and
the body (the loop before the convergence check was lagged) fail the
first clock test and the ``‖r_k‖`` one; the norm check at the top of
the body and ``_setup`` blocking on ``‖b‖`` fail the first clock test;
returning the updated ``x`` on a late breakdown fails the breakdown case
of the differential test; reading the oldest check after every body
fails the issue-ahead test, and issuing ahead at any width fails the
sequence test.
"""

from typing import Callable, Optional, Tuple

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.core.linalg import iterative
from repro.core.linalg.iterative import _apply, _quotient, _setup, _tol
from repro.core.linalg.preconditioners import jacobi
from repro.legion import Future, Runtime, RuntimeConfig
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop, summit
from repro.numeric.array import Scalar, ndarray


# ----------------------------------------------------------------------
# The check-first loop, verbatim from before issue-before-check
# ----------------------------------------------------------------------
def _reference_setup(A, b: ndarray, x0, rtol: float, atol: float, maxiter):
    n = b.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A has shape {A.shape}, b has length {n}")
    x = x0.copy() if x0 is not None else rnp.zeros(n, dtype=b.dtype)
    if maxiter is None:
        maxiter = 10 * n
    bnrm = float(rnp.linalg.norm(b))
    tol = max(rtol * bnrm, atol)
    if bnrm == 0.0:
        tol = atol
    return x, maxiter, tol


def reference_cg(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    x, maxiter, tol = _reference_setup(A, b, x0, rtol, atol, maxiter)
    r = b - A @ x
    z = _apply(M, r)
    p = z.copy()
    rz = rnp.vdot(r, z)
    for _it in range(maxiter):
        if float(rnp.linalg.norm(r)) <= tol:
            return x, 0
        q = A @ p
        pq = rnp.vdot(p, q)
        if complex(pq) == 0:
            return x, -1
        alpha = rz / pq
        x += p * alpha
        r -= q * alpha
        z = _apply(M, r)
        rz_next = rnp.vdot(r, z)
        beta = rz_next / rz
        p = z + p * beta
        rz = rz_next
        if callback is not None:
            callback(x)
    if float(rnp.linalg.norm(r)) <= tol:
        return x, 0
    return x, maxiter


def lagged_cg(
    A,
    b: ndarray,
    x0: Optional[ndarray] = None,
    *,
    rtol: float = 1e-5,
    atol: float = 0.0,
    maxiter: Optional[int] = None,
    M=None,
    callback: Optional[Callable] = None,
) -> Tuple[ndarray, int]:
    """The loop before the FIFO: every iteration reads its own checks."""
    x, r, maxiter, bnrm = _setup(A, b, x0, maxiter)
    tol = _tol(bnrm, rtol, atol)
    z = _apply(M, r)
    p = z.copy()
    rz = rnp.vdot(r, z)
    rnorm = bnrm if x0 is None else rnp.linalg.norm(r)
    guard = None

    def check():
        """The host checks of the check-first loop, in its order."""
        if guard is not None:
            x_before, pq_before = guard
            if complex(pq_before) == 0:
                return x_before, -1
            if callback is not None:
                callback(x)
        if float(rnorm) <= tol():
            return x, 0
        return None

    for _it in range(maxiter):
        q = A @ p
        pq = rnp.vdot(p, q)
        alpha = _quotient(rz, pq)
        x_next = x + p * alpha
        r -= q * alpha
        z = _apply(M, r)
        rz_next = rnp.vdot(r, z)
        p = z + p * _quotient(rz_next, rz)
        rnorm_next = rnp.linalg.norm(r)
        done = check()
        if done is not None:
            return done
        guard = (x, pq)
        x, rz, rnorm = x_next, rz_next, rnorm_next
    return check() or (x, maxiter)


# ----------------------------------------------------------------------
# Values: bitwise the reference
# ----------------------------------------------------------------------
def spd_system(n: int, seed: int):
    rng = np.random.default_rng(seed)
    a = sps.random(n, n, density=0.15, random_state=rng, format="csr")
    return (0.5 * (a + a.T) + n * sps.eye(n)).tocsr(), rng.random(n)


def singular_system(n: int):
    """``A e0 = 0`` and ``b = e0``: the first ``p·q`` is exactly 0."""
    diag = np.ones(n)
    diag[0] = 0.0
    b = np.zeros(n)
    b[0] = 1.0
    return sps.diags(diag).tocsr(), b


CASES = {
    # rtol = 1: ||r0|| = ||b|| is the tolerance, so iteration 0 stops.
    "converged-at-0": dict(seed=1, rtol=1.0, maxiter=20),
    "converged-at-k": dict(seed=2, rtol=1e-6, maxiter=40),
    "never": dict(seed=3, rtol=1e-14, maxiter=3),
    "b-zero": dict(seed=4, rtol=1e-6, maxiter=20, b_zero=True),
    "x0": dict(seed=5, rtol=1e-8, maxiter=40, x0=True),
    "maxiter-0": dict(seed=6, rtol=1e-6, maxiter=0),
    "breakdown": dict(seed=0, rtol=1e-8, maxiter=20, singular=True),
    # A = 2 I: the first step lands on r = 0 exactly, and the body the
    # next check discards divides 0 by 0.
    "exact-zero-residual": dict(seed=9, rtol=1e-12, maxiter=20, doubled=True),
    "jacobi": dict(seed=7, rtol=1e-8, maxiter=40, M=jacobi),
}
# Each case again with ``b`` still being computed when the solve starts
# (scaled by 1.0, ready 1 ms later): on one GPU, fused, the solve then
# keeps min(maxiter + 1, _AHEAD) checks outstanding, and a stop discards
# up to _AHEAD bodies, silently.  Otherwise a few while ``‖b‖`` resolves.
CASES.update({f"{name}-late-b": dict(case, late=True) for name, case in CASES.items()})


def _solve(solver, case: dict, gpus: int, fusion: bool):
    rt = Runtime(
        laptop().scope(ProcessorKind.GPU, gpus),
        RuntimeConfig.legate(fusion=fusion),
    )
    with runtime_scope(rt):
        n = 48
        if case.get("singular"):
            host_A, host_b = singular_system(n)
        elif case.get("doubled"):
            host_A = (2.0 * sps.eye(n)).tocsr()
            host_b = np.random.default_rng(case["seed"]).random(n)
        else:
            host_A, host_b = spd_system(n, case["seed"])
        if case.get("b_zero"):
            host_b = np.zeros(n)
        A = sp.csr_matrix(host_A)
        b = rnp.array(host_b)
        if case.get("late"):
            b = b * Scalar(Future(1.0, rt.issue_time + 1e-3), rt)
        x0 = rnp.array(np.linspace(-1.0, 1.0, n)) if case.get("x0") else None
        M = case["M"](A) if case.get("M") else None
        seen = []
        x, info = solver(
            A, b, x0, rtol=case["rtol"], maxiter=case["maxiter"], M=M,
            callback=lambda xk: seen.append(xk.to_numpy().copy()),
        )
        return x.to_numpy().copy(), info, seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "eager"])
@pytest.mark.parametrize("gpus", [1, 2], ids=["p1", "p2"])
@pytest.mark.parametrize("case", CASES)
def test_cg_is_bitwise_the_check_first_loop(case, gpus, fusion):
    want_x, want_info, want_seen = _solve(reference_cg, CASES[case], gpus, fusion)
    got_x, got_info, got_seen = _solve(sp.linalg.cg, CASES[case], gpus, fusion)
    assert got_info == want_info
    assert got_x.tobytes() == want_x.tobytes()
    assert len(got_seen) == len(want_seen)
    for got, want in zip(got_seen, want_seen):
        assert got.tobytes() == want.tobytes()


def test_cases_reach_every_exit():
    """The cases above stop where their names say."""
    infos = {
        name: _solve(reference_cg, case, 2, True)[1:]
        for name, case in CASES.items()
    }
    assert infos["converged-at-0"] == (0, [])
    assert infos["converged-at-k"][0] == 0
    assert 0 < len(infos["converged-at-k"][1]) < 40
    assert infos["never"][0] == 3
    assert infos["b-zero"] == (0, [])
    assert infos["maxiter-0"] == (0, [])
    assert infos["breakdown"] == (-1, [])
    assert infos["exact-zero-residual"][0] == 0
    assert len(infos["exact-zero-residual"][1]) == 1


# ----------------------------------------------------------------------
# The clock: the SpMV is issued before the iteration blocks
# ----------------------------------------------------------------------
SPMV = "A(i,j)*x(j)"


def _issue_order(
    solver, monkeypatch, gpus=2, fusion=True, maxiter=4, rhs_pending=False
) -> list:
    """``("launch", name, clock, future)``, ``("wait", "", stalls)`` and
    ``("end",)`` (a callback) in the order ``solver`` makes them, over a
    warm solve of ``maxiter`` iterations; ``clock`` is the host's issue
    clock when the launch is issued, ``future`` what the launch
    returned, and ``stalls`` whether the wait's future was pending or
    ready after that clock.  With ``rhs_pending`` the solve's ``b`` is
    still being computed: it scales by a value ready 1 ms after the
    solve starts.  Six GPUs are a summit node's, fewer a laptop's."""
    events = []
    launch, wait = Runtime.launch, Runtime.wait

    def logged_launch(self, task):
        clock = self.issue_time
        future = launch(self, task)
        events.append(("launch", task.name, clock, future))
        return future

    def logged_wait(self, future):
        stalls = future.roots is not None or future.ready_time > self.issue_time
        events.append(("wait", "", stalls))
        return wait(self, future)

    machine = summit(nodes=1) if gpus > 2 else laptop()
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, gpus), RuntimeConfig.legate(fusion=fusion)
    )
    with runtime_scope(rt):
        host_A, host_b = spd_system(64, seed=8)
        A, b = sp.csr_matrix(host_A), rnp.array(host_b)
        solver(A, b, rtol=0.0, maxiter=maxiter)  # warm-up
        rt.barrier()
        if rhs_pending:
            b = b * Scalar(Future(2.0, rt.issue_time + 1e-3), rt)
        monkeypatch.setattr(Runtime, "launch", logged_launch)
        monkeypatch.setattr(Runtime, "wait", logged_wait)
        solver(
            A, b, rtol=0.0, maxiter=maxiter,
            callback=lambda xk: events.append(("end",)),
        )
        monkeypatch.undo()
    return events


def _first(events, kind, name=""):
    return next(
        i for i, ev in enumerate(events)
        if ev[0] == kind and name in (ev[1] if len(ev) > 1 else "")
    )


def _iterations(events) -> list:
    """The solve cut at its SpMV launches: each piece runs from an
    iteration's SpMV to the next one's (the last, to the end)."""
    spmvs = [
        i for i, ev in enumerate(events) if ev[0] == "launch" and SPMV in ev[1]
    ]
    return [
        events[start:stop]
        for start, stop in zip(spmvs, spmvs[1:] + [len(events)])
    ]


def test_spmv_is_issued_before_the_first_wait(monkeypatch):
    events = _issue_order(sp.linalg.cg, monkeypatch)
    assert events.count(("end",)) == 4
    iterations = _iterations(events)
    assert len(iterations) == 4
    # Set-up does not block: the first wait of the solve comes after
    # the first iteration's SpMV.
    assert _first(events, "launch", SPMV) < _first(events, "wait")
    for it in iterations:
        # SpMV, p·q and the body, then the checks: no launch between an
        # iteration's first wait and the next SpMV.  The last iteration
        # ends with the check after the loop.
        checked = _first(it, "wait")
        assert all(ev[0] == "launch" for ev in it[:checked]), it
        assert all(ev[0] != "launch" for ev in it[checked:]), it
        assert [ev[1] for ev in it[:checked]][-1] == "norm2", it


def test_body_is_issued_before_its_start_is_checked(monkeypatch):
    """Body k's ``r -= q α`` is issued before the host waits on
    ``‖r_k‖``: an iteration's last wait is its convergence test, and
    the ``subtract`` comes before every wait of the iteration."""
    iterations = _iterations(_issue_order(sp.linalg.cg, monkeypatch))
    for it in iterations:
        update = _first(it, "launch", "subtract")
        waits = [i for i, ev in enumerate(it) if ev[0] == "wait"]
        assert waits and update < waits[0], it


def test_r_update_is_issued_before_p_q_is_ready(monkeypatch):
    """Body k's ``r -= q α`` is issued while the allreduce of
    ``p_k·q_k`` is still running: the host does not wait on it before
    issuing the body."""
    iterations = _iterations(_issue_order(sp.linalg.cg, monkeypatch))
    for it in iterations:
        pq = it[1]
        assert pq[1] == "vdot"
        update = _first(it, "launch", "subtract")
        assert it[update][2] < pq[3].ready_time, (it[update][2], pq[3].ready_time)


def test_check_first_loop_fails_the_clock_test(monkeypatch):
    """The reference waits at the top of every body: what the clock
    test above rejects."""
    events = _issue_order(reference_cg, monkeypatch)
    assert _first(events, "wait") < _first(events, "launch", SPMV)


# ----------------------------------------------------------------------
# Issuing ahead: one GPU only
# ----------------------------------------------------------------------
def _spmvs_before_the_first_wait(events) -> int:
    first = _first(events, "wait")
    assert events[first][2], "the first wait does not stall"
    return sum(ev[0] == "launch" and SPMV in ev[1] for ev in events[:first])


@pytest.mark.parametrize("maxiter", [4, 12])
def test_a_one_gpu_solve_issues_ahead_of_its_right_hand_side(monkeypatch, maxiter):
    """``b`` and so ``‖b‖`` are still being computed, so the first check
    would stall: the solve issues bodies until ``_AHEAD`` are
    outstanding (or the loop ends) before it waits, and that wait
    stalls; the callbacks still come once per iteration.  The lagged
    loop stalls after one body."""
    events = _issue_order(
        sp.linalg.cg, monkeypatch, gpus=1, maxiter=maxiter, rhs_pending=True
    )
    assert _spmvs_before_the_first_wait(events) == min(maxiter, iterative._AHEAD)
    assert events.count(("end",)) == maxiter
    lagged = _issue_order(
        lagged_cg, monkeypatch, gpus=1, maxiter=maxiter, rhs_pending=True
    )
    assert _spmvs_before_the_first_wait(lagged) == 1


def _sequence(events) -> list:
    return [ev[:2] for ev in events]


@pytest.mark.parametrize(
    "gpus, fusion", [(2, True), (6, True), (1, False)],
    ids=["p2", "p6", "p1-eager"],
)
def test_elsewhere_the_sequence_is_the_lagged_loops(monkeypatch, gpus, fusion):
    """At more than one color, or with fusion off, no check waits in the
    FIFO: launches, waits and callbacks come in the lagged loop's
    order, a pending right-hand side included."""
    for rhs_pending in (False, True):
        got, want = (
            _sequence(_issue_order(
                solver, monkeypatch, gpus, fusion, 12, rhs_pending
            ))
            for solver in (sp.linalg.cg, lagged_cg)
        )
        assert got == want
