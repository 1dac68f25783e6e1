"""Advisor unit tests: lint battery, machine parsing, CLI exit codes."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

import repro.sparse as sp
from repro.analysis import advise
from repro.analysis.advisor import MAX_FINDINGS_PER_RULE, _fmt_bytes, parse_machine
from repro.legion import Runtime, RuntimeConfig
from repro.legion.exceptions import OutOfMemoryError
from repro.legion.runtime import runtime_scope
from repro.machine import ProcessorKind, laptop, summit

REPO = Path(__file__).resolve().parents[2]


def tridiag(n):
    diags = [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)]
    return sps.diags(diags, [-1, 0, 1]).tocsr()


def rules(advice):
    return {f.rule for f in advice.findings}


# ----------------------------------------------------------------------
# Lints
# ----------------------------------------------------------------------
def test_densify_warning_and_error_scale():
    def workload():
        A = sp.csr_matrix(tridiag(400))
        A.toarray()

    small = advise(workload, machine=laptop(), procs=2)
    assert any(
        f.rule == "densify" and f.severity == "warning"
        for f in small.findings
    )
    assert not small.errors

    big = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e6),
    )
    assert any(
        f.rule == "densify" and f.severity == "error" for f in big.findings
    )
    assert big.errors


def test_convert_roundtrip_detected():
    def workload():
        A = sp.csr_matrix(tridiag(200))
        A.tocsc().tocsr()

    advice = advise(workload, machine=laptop(), procs=2)
    assert "convert-roundtrip" in rules(advice)


def test_capacity_overflow_is_error():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(1000))
        x = rnp.ones(A.shape[0])
        return A @ x

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e5),
    )
    assert any(
        f.rule == "capacity" and f.severity == "error"
        for f in advice.findings
    )
    assert advice.errors


def test_spill_downgrades_capacity_to_warning():
    """With config.spill, relievable overflow becomes spill traffic —
    the bytes the dry run's profiler measured, which are the real
    run's."""

    def workload():
        import repro.numeric as rnp

        n = 100_000
        arrays = [rnp.full(n, float(i)) for i in range(8)]
        total = rnp.zeros(n)
        for a in arrays:
            total = total + a
        return total

    def config(spill):
        # Unfused: the default window elides the temporaries and the
        # program fits (84 % of the framebuffer).
        return RuntimeConfig.legate(data_scale=40.0, spill=spill, fusion=False)

    degraded = advise(workload, machine=laptop(), procs=2, config=config(True))
    spills = [f for f in degraded.findings if f.rule == "spill"]
    assert spills and all(f.severity == "warning" for f in spills)
    assert "capacity" not in rules(degraded)
    assert not degraded.errors

    real = Runtime(laptop().scope(ProcessorKind.GPU, 2), config(True))
    with runtime_scope(real):
        workload()
    assert real.profiler.spill_bytes > 0
    assert f"spilled {_fmt_bytes(real.profiler.spill_bytes)}" in spills[0].message
    assert degraded.modeled_elapsed_seconds == real.elapsed()

    hard = advise(workload, machine=laptop(), procs=2, config=config(False))
    capacity = [f for f in hard.findings if f.rule == "capacity"]
    assert [f.severity for f in capacity] == ["error"]
    assert "config.spill would degrade" in capacity[0].message


def test_oom_is_the_runtimes_error_and_keeps_earlier_findings():
    """A dry run dies where a real run would: the capacity finding is
    the runtime's own message (task, region, memory), and what was
    gathered before that launch still prints."""

    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(1000))
        A.toarray()  # densify note, before the launch that overflows
        return A @ rnp.ones(A.shape[0])

    config = RuntimeConfig.legate(data_scale=1e5, spill=False)
    advice = advise(workload, machine=laptop(), procs=2, config=config)
    real = Runtime(laptop().scope(ProcessorKind.GPU, 2), config)
    with pytest.raises(OutOfMemoryError) as raised, runtime_scope(real):
        workload()
    (capacity,) = [f for f in advice.findings if f.rule == "capacity"]
    assert capacity.severity == "error"
    assert f"while mapping task {raised.value.task!r}" in capacity.message
    assert raised.value.memory_name in capacity.message
    assert "densify" in rules(advice)
    assert advice.launches > 0


def test_spill_cannot_relieve_single_oversized_region():
    """A region bigger than the whole budget stays a hard error."""

    def workload():
        import repro.numeric as rnp

        return rnp.ones(100_000)

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(data_scale=1e5),  # 80 GB on a 64 MB FB
    )
    assert any(
        f.rule == "capacity" and f.severity == "error"
        for f in advice.findings
    )


def test_dead_write_detected():
    def workload():
        import repro.numeric as rnp

        x = rnp.zeros(64)
        x.fill(1.0)
        return x

    advice = advise(workload, machine=laptop(), procs=2)
    assert "dead-write" in rules(advice)


def test_clean_program_has_no_errors():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(300))
        v = rnp.ones(A.shape[0])
        for _ in range(3):
            v = A @ v
        return v

    advice = advise(workload, machine=laptop(), procs=2)
    assert not advice.errors
    assert advice.launches > 0
    assert advice.predicted.stats().get("task", 0) > 0


def test_finding_cap_suppresses_floods():
    def workload():
        A = sp.csr_matrix(tridiag(50))
        for _ in range(MAX_FINDINGS_PER_RULE + 4):
            A.toarray()

    advice = advise(workload, machine=laptop(), procs=2)
    densify = [
        f for f in advice.findings
        if f.rule == "densify" and "suppressed" not in f.message
    ]
    assert len(densify) == MAX_FINDINGS_PER_RULE
    assert any("suppressed" in f.message for f in advice.findings)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_report_structure_and_json():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(256))
        return A @ rnp.ones(A.shape[0])

    advice = advise(workload, machine=summit(nodes=2))
    d = advice.to_dict()
    assert d["launches"] == advice.launches
    assert "traffic" in d and "memories" in d and "ops" in d
    spmv = [o for o in advice.ops if "A(i,j)*x(j)" in o.name]
    assert spmv and "pos" in spmv[0].partitions
    text = advice.format_text()
    assert "partition choices" in text
    assert "predicted traffic" in text
    assert "predicted peak memory" in text


def test_report_counts_hazard_flushes():
    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(256))
        x = rnp.ones(256)
        u = rnp.ones(64)
        x[0:4] = 2.0                # cannot join: flushes both fills
        v = u * 2.0                 # deferred ...
        x[4:8] = 3.0                # ... and flushed by an independent write
        return v + 1.0, A @ x

    advice = advise(workload, machine=summit(nodes=1), procs=2)
    assert advice.hazard_flushes == 2
    d = advice.to_dict()
    assert d["hazard_flushes"] == 2
    assert (
        "deferred window: 2 flushed by a launch that cannot join it"
        in advice.format_text()
    )


def test_trace_then_analyze_on_other_machine():
    """The same program advised on two machines: each report is the dry
    run on *that* machine, colour counts included."""

    def workload():
        import repro.numeric as rnp

        A = sp.csr_matrix(tridiag(128))
        return A @ rnp.ones(A.shape[0])

    local = advise(workload, machine=laptop(), procs=2)
    remote = advise(workload, machine=summit(nodes=2), procs=12)
    assert local.launches == remote.launches
    assert {op.colors for op in local.ops} == {2}
    assert {op.colors for op in remote.ops} == {12}
    assert remote.predicted.stats()["shard"] == 6 * local.predicted.stats()["shard"]
    assert {m.memory for m in remote.memories} != {
        m.memory for m in local.memories
    }
    assert "nic" in remote.traffic and "nic" not in local.traffic


# ----------------------------------------------------------------------
# Machine parsing
# ----------------------------------------------------------------------
def test_parse_machine():
    assert parse_machine("laptop").config.nodes == 1
    assert parse_machine("summit").config.nodes == 1
    assert parse_machine("summit:8").config.nodes == 8
    with pytest.raises(ValueError):
        parse_machine("frontier:2")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_advise_clean_program_exits_zero(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"),
         "--machine", "summit:4", "--", "--maxiter", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "partition choices" in out
    assert "predicted traffic" in out


def test_cli_advise_violations_exit_one(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_violations.py"),
         "--data-scale", "4e4"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "densify" in out or "capacity" in out


def test_cli_advise_json(capsys):
    import json

    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"), "--json",
         "--", "--maxiter", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # The traced program's own prints precede the report.
    payload = json.loads(out[out.index("{"):])
    assert payload["launches"] > 0


def test_cli_advise_crash_exits_two(tmp_path, capsys):
    from repro.analysis.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    assert main(["advise", str(bad)]) == 2
    capsys.readouterr()


#: Advisor flags deleted with the feature they switched on, by name
#: without the leading dashes (the tree keeps no live spelling of them).
DELETED_FLAGS = ("autoformat",)


@pytest.mark.parametrize("name", DELETED_FLAGS)
def test_cli_advise_rejects_deleted_flags(name, capsys):
    from repro.analysis.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["advise", str(REPO / "examples" / "advisor_demo.py"), f"--{name}"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{name}" in capsys.readouterr().err


def test_cli_legacy_checker_still_works(tmp_path, capsys):
    """The PR-1 checker path is unchanged: bad path -> exit 2."""
    from repro.analysis.cli import main

    assert main([str(tmp_path / "missing.jsonl")]) == 2
    capsys.readouterr()
