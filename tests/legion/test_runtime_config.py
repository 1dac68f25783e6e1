"""The configuration surface is a ratchet: a toggle has to justify itself.

Each independent on/off field of ``RuntimeConfig`` doubles the
configurations tests and benchmarks must cover.  A new one edits the
set below and names the caller that needs its non-default side.
"""

import dataclasses

import pytest

from repro.harness.config import paper_legate
from repro.legion import RuntimeConfig

BOOL_FIELDS = {
    # field: the caller at this commit that needs the non-default side
    "coalescing",  # benchmarks/test_ablations.py TestMapperCoalescing
    "reuse_partitions",  # benchmarks/test_ablations.py TestPartitionReuse
    "exact_images",  # benchmarks/test_ablations.py TestImageExactness
    "local_reshape_penalty",  # the cupy / scipy / petsc system presets
    "fusion",  # paper_legate and the system presets (Fig. 11/12 OOM shapes)
    "kernel_fusion",  # paper_legate; harness/fusion_bench.py's replay mode
    "autoformat",  # harness/format_bench.py (scripts/format.py)
    "validate",  # REPRO_VALIDATE=1 (scripts/check.sh validation smoke)
    "spill",  # paper_legate and the system presets (Fig. 11/12 OOM shapes)
    "profile",  # REPRO_PROFILE=1 (make profile, check.sh profile smoke)
}


def test_bool_fields_are_the_audited_set():
    fields = {
        f.name for f in dataclasses.fields(RuntimeConfig) if f.type == "bool"
    }
    assert fields == BOOL_FIELDS


def test_fastpath_is_not_a_field():
    """Deleted in PR 18: an unknown field like any other."""
    with pytest.raises(TypeError):
        RuntimeConfig.legate(**{"fastpath": False})


def test_paper_legate_pins_exactly_these_fields():
    """The published system: no fusion, no spilling, and no tracing --
    a model parameter (replays charged in full), not a host switch."""
    paper = dataclasses.asdict(paper_legate())
    default = dataclasses.asdict(RuntimeConfig.legate())
    differing = {name for name in default if paper[name] != default[name]}
    assert differing == {
        "fusion", "kernel_fusion", "spill", "trace_replay_fraction",
    }
    assert paper["trace_replay_fraction"] == 1.0
    for preset in (RuntimeConfig.cupy, RuntimeConfig.scipy, RuntimeConfig.petsc):
        assert preset().trace_replay_fraction == 1.0
