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
    "exact_images",  # benchmarks/test_ablations.py TestImageExactness
    "local_reshape_penalty",  # the cupy / scipy system presets
    "fusion",  # paper_legate and the system presets (Fig. 11/12 OOM shapes)
    "validate",  # REPRO_VALIDATE=1 (scripts/check.sh validation smoke)
    "spill",  # paper_legate and the system presets (Fig. 11/12 OOM shapes)
    "profile",  # REPRO_PROFILE=1 (make profile, check.sh profile smoke)
}

#: Toggles deleted after a trial on ``bench/run.py`` (seed 0, three
#: alternating pairs per workload on a 2-vCPU Linux box, each default
#: flipped alone), with the measured reason.  Keyed by display name, the field name with
#: ``-`` for ``_``, so the tree keeps no live spelling of a deleted
#: field.
DELETED_TOGGLES = {
    "autoformat": (
        "on, the runtime format hook moved cg_wide's operand to ELL "
        "(8.034 vs 8.047 us per SpMV predicted, break-even 656 SpMVs) and "
        "every later SpMV broadcast x: modeled_s 0.0287 -> 1.266 s (x44.1), "
        "host_wall_s x47.6, peak_rss_mb x2.3; host_wall_s x1.39 on "
        "gmg_small_tasks and x1.75 on serve_mixed; no modeled gain above "
        "0.002 % anywhere.  The ELL/SELL/HYB formats and the advisor's static "
        "format pass were deleted afterwards on their own trial"
    ),
    "kernel-fusion": (
        "off, modeled_s moved by at most +0.01 % but host_wall_s rose "
        "x1.15 on cg_wide and x1.08 on gmg_small_tasks (3 of 3 pairs "
        "each): the merged nests pay on the host clock, so they always "
        "run and only the switch went"
    ),
    "coalescing": (
        "off, the Fig. 1 power-iteration ablation (3 GPUs, 60 000 rows) "
        "moved 2 880 192 bytes instead of 1 920 192 (x1.50) in 0.94 ms "
        "both ways, and gmg_small_tasks modeled_s rose 0.0092452 -> "
        "0.0092528 (+0.08 %); cg_wide, matfact_sgd and serve_mixed moved "
        "by at most 0.002 %, digests unchanged everywhere.  The mapper "
        "always coalesces, as Legate's does (section 4.2)"
    ),
    "reuse-partitions": (
        "off, matfact_sgd modeled_s rose 0.0047825 -> 0.0066173 "
        "(+38.4 %): its CSR's crd/vals and the SDDMM outputs lose their "
        "image key partitions and re-tile; the other three workloads did "
        "not move, and the power-iteration ablation never showed reuse "
        "paying (0.94 ms both ways: even tilings re-tile identically).  "
        "The solver always reuses key partitions (section 4.1)"
    ),
    "fusion-window": (
        "an int, not a switch, set by one test and by no preset: every "
        "configuration ran the 16-launch capacity, now the constant "
        "runtime.WINDOW_CAPACITY.  At 8, gmg_small_tasks modeled_s rose "
        "+12.0 % and matfact_sgd +48.9 %; at 32, gmg_small_tasks fell "
        "-3.7 % and matfact_sgd rose +0.04 %; cg_wide moved by at most "
        "0.07 % and serve_mixed not at all"
    ),
}
DELETED_FIELDS = {name.replace("-", "_") for name in DELETED_TOGGLES}


def test_bool_fields_are_the_audited_set():
    fields = {
        f.name for f in dataclasses.fields(RuntimeConfig) if f.type == "bool"
    }
    assert fields == BOOL_FIELDS
    assert not fields & DELETED_FIELDS


def test_fastpath_is_not_a_field():
    """Deleted in PR 18: an unknown field like any other."""
    with pytest.raises(TypeError):
        RuntimeConfig.legate(**{"fastpath": False})


@pytest.mark.parametrize("name", sorted(DELETED_FIELDS))
def test_deleted_toggles_are_not_fields(name):
    for value in (True, False):
        with pytest.raises(TypeError):
            RuntimeConfig.legate(**{name: value})


def test_paper_legate_pins_exactly_these_fields():
    """The published system: no fusion, no spilling, and no tracing --
    a model parameter (replays charged in full), not a host switch."""
    paper = dataclasses.asdict(paper_legate())
    default = dataclasses.asdict(RuntimeConfig.legate())
    differing = {name for name in default if paper[name] != default[name]}
    assert differing == {"fusion", "spill", "trace_replay_fraction"}
    assert paper["trace_replay_fraction"] == 1.0
    for preset in (RuntimeConfig.cupy, RuntimeConfig.scipy):
        assert preset().trace_replay_fraction == 1.0
