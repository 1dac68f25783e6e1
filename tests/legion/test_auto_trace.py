"""Automatic tracing: a launch's token and when it replays.

A launch's token is its template object and, per requirement, how many
launches back the region's last writer was issued (and, for a writing
privilege, its last user), edges beyond the window capacity
(``WINDOW_CAPACITY`` launches) dropped.  A token issued before in the
current template epoch is a replay, charged ``trace_replay_fraction``
of the launch overhead.

* **first and second** -- a first occurrence is charged in full, a
  repeat is a replay;
* **images** -- a template pins an image by its rects: another matrix
  never replays, the same matrix with a fresh ``x`` does;
* **edges** -- the same template with another read or write edge does
  not replay; an edge beyond the horizon drops, so a repeat after
  unrelated work does;
* **epochs** -- recovery, journal replay and pressure relief are in
  ``test_trace_replay.py`` (with the fig9 CG, spill and GMG-PCG goldens
  at ``1.0``), ``reset_for_program`` in ``test_reset.py``; a fused
  group replays only when all its members do: ``test_fusion.py``;
* **bounds** -- the history holds ints and templates, never a region,
  and stays bounded.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

import repro.numeric as rnp
import repro.sparse as sp
from repro.legion import Runtime, RuntimeConfig
from repro.legion.privilege import Privilege
from repro.legion.runtime import WINDOW_CAPACITY, runtime_scope
from repro.legion.tracing import History
from repro.machine import ProcessorKind, laptop

N = 64
OVERHEAD = 1e-3
FRACTION = 0.15


@pytest.fixture
def rt(monkeypatch):
    """A runtime whose issued launches are logged: (name, replayed)."""
    runtime = Runtime(
        laptop().scope(ProcessorKind.GPU, 2),
        RuntimeConfig.legate(
            launch_overhead=OVERHEAD, trace_replay_fraction=FRACTION,
            fusion=False,
        ),
    )
    runtime.issued = []
    launch = Runtime.launch

    def logged(self, task):
        result = launch(self, task)
        self.issued.append((task.name, task.replayed))
        return result

    monkeypatch.setattr(Runtime, "launch", logged)
    with runtime_scope(runtime):
        yield runtime


def _replayed(rt, op) -> list:
    """Whether each launch ``op()`` issues replays."""
    start = len(rt.issued)
    op()
    return [replayed for _, replayed in rt.issued[start:]]


def test_first_occurrence_is_charged_in_full_and_the_second_replays(rt):
    a = rnp.ones(N)
    b = a * 2.0  # a's writer one launch back
    c = rnp.ones(N)
    d = c * 3.0  # the same edge; the scalar is no part of the token
    names = [name for name, _ in rt.issued]
    assert names[0] == names[2] == "fill" and names[1] == names[3]
    assert [replayed for _, replayed in rt.issued] == [False, False, True, True]
    assert rt.profiler.launches_replayed == 2
    assert rt.profiler.launch_overhead_seconds == pytest.approx(
        OVERHEAD * (2 + 2 * FRACTION), rel=1e-12
    )
    assert (d.to_numpy() == 1.5 * b.to_numpy()).all()


def _two_per_row(shift: int) -> sp.csr_matrix:
    """Row i holds columns i and i + shift (mod N): one nnz count, one
    ``pos`` array, and images that differ with the shift."""
    rows = np.repeat(np.arange(N), 2)
    cols = np.stack([np.arange(N), (np.arange(N) + shift) % N], 1).ravel()
    return sp.csr_matrix(
        sps.csr_matrix((np.ones(2 * N), (rows, cols)), shape=(N, N))
    )


def test_a_new_image_never_replays_and_a_fresh_x_does(rt):
    """The SpMV's x goes through an image of the matrix's columns: a
    matrix with other columns -- same shapes, same derivation -- is a
    new template, a fresh x under the same matrix a replay."""
    rng = np.random.default_rng(0)
    A, B = _two_per_row(1), _two_per_row(N // 2)
    assert _replayed(rt, lambda: A @ rnp.array(rng.random(N))) == [False]
    assert _replayed(rt, lambda: B @ rnp.array(rng.random(N))) == [False]
    assert _replayed(rt, lambda: A @ rnp.array(rng.random(N))) == [True]
    assert _replayed(rt, lambda: B @ rnp.array(rng.random(N))) == [True]


def test_the_same_template_with_another_edge_does_not_replay(rt):
    # Read edge: x's last writer two launches back, not one.
    a = rnp.ones(N)
    assert _replayed(rt, lambda: a * 2.0) == [False]
    c = rnp.ones(N)
    rnp.ones(N)
    assert _replayed(rt, lambda: c * 2.0) == [False]
    e = rnp.ones(N)
    rnp.ones(N)
    assert _replayed(rt, lambda: e * 2.0) == [True]


def test_a_write_edge_tells_a_last_reader_apart(rt):
    """The same writer distance, another last user: a write after a
    read of its region is ordered after that read, a token of its own."""

    def scale(x):
        x *= 2.0

    a = rnp.ones(N)
    a + 0.0  # a read: a's last user one launch back, its writer two
    assert _replayed(rt, lambda: scale(a)) == [False]
    c = rnp.ones(N)
    rnp.ones(N)  # c's last user and writer both two launches back
    assert _replayed(rt, lambda: scale(c)) == [False]
    e = rnp.ones(N)
    e + 0.0
    assert _replayed(rt, lambda: scale(e)) == [True]


def test_an_edge_beyond_the_window_drops(rt):
    """A writer more than ``WINDOW_CAPACITY`` launches back has
    executed: its distance is no part of the token."""
    window = WINDOW_CAPACITY
    a = rnp.ones(N)
    for _ in range(window):
        rnp.zeros(N)
    assert _replayed(rt, lambda: a * 2.0) == [False]
    b = rnp.ones(N)
    for _ in range(window + 3):
        rnp.zeros(N)
    assert _replayed(rt, lambda: b * 2.0) == [True]


# ----------------------------------------------------------------------
# Bounds: ints and templates only, and not too many of them
# ----------------------------------------------------------------------
def _launch(*accesses):
    return SimpleNamespace(requirements=[
        SimpleNamespace(region=SimpleNamespace(uid=uid), privilege=privilege)
        for uid, privilege in accesses
    ])


def test_history_is_bounded_and_holds_no_region():
    history = History()
    template = object()
    for uid in range(3 * History.MAX_ENTRIES):
        history.issue(
            _launch((uid, Privilege.READ), (uid + 1, Privilege.WRITE)),
            object() if uid % 2 else template,
            horizon=16,
        )
    assert len(history._seen) <= History.MAX_ENTRIES
    for table in (history._writer, history._user):
        # Pruned to the horizon every MAX_ENTRIES launches of two
        # requirements each.
        assert len(table) <= 2 * (History.MAX_ENTRIES + 16)
        assert all(type(k) is int and type(v) is int for k, v in table.items())
    for template, edges in history._seen:
        assert all(type(edge) is int for edge in edges)


def test_a_launch_without_a_template_never_replays():
    history = History()
    task = _launch((0, Privilege.WRITE))
    assert not history.issue(task, None, 16)
    assert not history.issue(task, None, 16)
