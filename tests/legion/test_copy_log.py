"""Every modeled copy is logged once, whatever it is for.

One validated, profiled run stages, folds, spills, checkpoints and
restores.  Walked in order, the event log's copies and the timeline's
copy spans must agree copy for copy: each logged copy owns one span per
channel of its route, with the category of its kind, its label and its
scaled bytes, and no copy span is left over.  A copy path that books a
copy without logging it (or logs one it did not book) fails here.
"""

from collections import Counter

import numpy as np
import pytest

import repro.numeric as rnp
import repro.sparse as sp
from repro.analysis.checker import check_log
from repro.analysis.events import CopyEvent
from repro.apps.poisson import poisson2d_scipy
from repro.legion import Runtime, RuntimeConfig
from repro.legion.chaos import ChaosConfig, LossSchedule
from repro.legion.runtime import runtime_scope
from repro.machine import Machine, ProcessorKind
from repro.machine.model import MachineConfig

# The timeline category of each kind of copy.
CATEGORY = {
    "stage": "copy",
    "fold": "copy",
    "spill": "spill",
    "checkpoint": "checkpoint",
    "restore": "checkpoint",
}


def _run(chaos, validate=False, profile=False):
    """Two GPUs on node 0 of three nodes with half a MiB of framebuffer
    each: ``A.T @ x`` folds, the arrays spill, a checkpoint snapshots to
    the sysmems of nodes 0 and 1, and (under ``chaos``) losing node 1
    after it restores the snapshot on node 2.  Returns the runtime, the
    clock around the post-checkpoint phase and the results."""
    machine = Machine(
        MachineConfig(
            nodes=3,
            sockets_per_node=1,
            gpus_per_node=2,
            gpu_memory=2**19,
            sysmem_per_node=2 * 2**30,
        )
    )
    rt = Runtime(
        machine.scope(ProcessorKind.GPU, 2, per_node=2),
        RuntimeConfig.legate(chaos=chaos, validate=validate, profile=profile),
    )
    with runtime_scope(rt):
        A = sp.csr_matrix(poisson2d_scipy(8))
        y = A.T @ rnp.ones(64)
        arrays = []
        for i in range(4):
            arrays.append(rnp.full(20_000, float(i + 1)))
            rt.barrier()
        total = rnp.zeros(20_000)
        for a in arrays:
            total = total + a
            rt.barrier()
        rt.recovery.checkpoint()
        t0 = rt.barrier()
        z = (A @ y) + y
        w = total * 2.0
        t1 = rt.barrier()
        out = [z.to_numpy().copy(), w.to_numpy().copy()]
    return rt, t0, t1, out


@pytest.fixture
def logged():
    """The validated, profiled run with node 1 lost mid-phase."""
    _, t0, t1, baseline = _run(None)
    chaos = ChaosConfig(
        ckpt_replicas=2, losses=(LossSchedule("node", 1, (t0 + t1) / 2),)
    )
    rt, _, _, out = _run(chaos, validate=True, profile=True)
    for got, want in zip(out, baseline):
        np.testing.assert_array_equal(got, want)
    return rt


def test_every_copy_is_logged_once(logged):
    rt = logged
    scale = rt.config.effective_comm_scale
    spans = [
        s for s in rt.timeline.spans if s.category in set(CATEGORY.values())
    ]
    kinds = Counter()
    at = 0
    for ev in rt.event_log.events:
        if not isinstance(ev, CopyEvent):
            continue
        src = rt._memory_by_uid(ev.src_memory)
        dst = rt._memory_by_uid(ev.dst_memory)
        route = rt.machine.channels_between(src, dst)
        got = spans[at:at + len(route)]
        at += len(route)
        assert [(s.category, s.resource, s.name, s.nbytes) for s in got] == [
            (
                CATEGORY[ev.why], chan.name,
                f"{ev.why}:{ev.region_name or ev.region}",
                int(ev.nbytes * scale),
            )
            for chan in route
        ], ev
        # One copy over the whole route: every channel holds one window.
        assert len({(s.start, s.finish) for s in got}) == 1, got
        kinds[ev.why] += 1
    assert at == len(spans), spans[at:at + 3]
    assert set(kinds) == set(CATEGORY), kinds
    assert rt.profiler.spills == kinds["spill"]
    assert rt.profiler.restores == kinds["restore"]
    assert check_log(rt.event_log) == []
