"""Advisor lints for kernel-merge verdicts, including the CLI surface."""

import json
from pathlib import Path

from repro.analysis import advise
from repro.machine import laptop

REPO = Path(__file__).resolve().parents[2]


def _findings(advice, rule):
    return [f for f in advice.findings if f.rule == rule]


def test_merge_applied_note_reports_modeled_savings():
    def workload():
        import repro.numeric as rnp

        x = rnp.ones(512)
        t = x * 2.0
        return t + x

    advice = advise(workload, machine=laptop(), procs=2)
    applied = _findings(advice, "kernel-merge-applied")
    assert applied
    assert all(f.severity == "note" for f in applied)
    assert any("modeled compute saved" in f.message for f in applied)
    assert any(v == "merged" for _, _, v in advice.fusion_groups)


def test_merge_blocked_warning_names_reason():
    def workload():
        import repro.numeric as rnp

        x = rnp.ones(512)
        y = x * 2.0
        z = rnp.clip(y, -1.0, 1.0)  # opaque body IR
        return z + y

    advice = advise(workload, machine=laptop(), procs=2)
    blocked = _findings(advice, "kernel-merge-blocked")
    assert blocked
    assert all(f.severity == "warning" for f in blocked)
    assert any("[opaque-kernel]" in f.message for f in blocked)
    assert any(
        v == "replay:opaque-kernel" for _, _, v in advice.fusion_groups
    )


def test_no_merge_lints_when_kernel_fusion_off():
    """Without the fusion window there is no group to merge or block."""
    from repro.legion import RuntimeConfig

    def workload():
        import repro.numeric as rnp

        x = rnp.ones(512)
        t = x * 2.0
        return t + x

    advice = advise(
        workload,
        machine=laptop(),
        procs=2,
        config=RuntimeConfig.legate(fusion=False),
    )
    assert not _findings(advice, "kernel-merge-applied")
    assert not _findings(advice, "kernel-merge-blocked")
    assert advice.fusion_groups == []


def test_cli_json_carries_merge_findings_and_verdicts(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"), "--json",
         "--", "--maxiter", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    rules = {f["rule"] for f in payload["findings"]}
    assert "kernel-merge-applied" in rules
    groups = payload["fusion_groups"]
    assert groups and all("verdict" in g for g in groups)
    assert any(g["verdict"] == "merged" for g in groups)


def test_cli_text_mentions_merge_verdicts(capsys):
    from repro.analysis.cli import main

    code = main(
        ["advise", str(REPO / "examples" / "advisor_demo.py"),
         "--", "--maxiter", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel-merge-applied" in out
    assert "merge into a single loop nest" in out


def test_cli_blocked_warning_surfaces_reason(tmp_path, capsys):
    """Warnings don't flip the exit code (errors do), but the blocked
    verdict and its machine-readable reason must reach the report."""
    from repro.analysis.cli import main

    script = tmp_path / "blocked.py"
    script.write_text(
        "import repro.numeric as rnp\n"
        "x = rnp.ones(512)\n"
        "y = x * 2.0\n"
        "z = rnp.clip(y, -1.0, 1.0)\n"
        "w = z + y\n"
    )
    code = main(["advise", str(script), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    blocked = [
        f for f in payload["findings"]
        if f["rule"] == "kernel-merge-blocked"
    ]
    assert blocked and all(f["severity"] == "warning" for f in blocked)
    assert any("[opaque-kernel]" in f["message"] for f in blocked)
    assert any(
        g["verdict"] == "replay:opaque-kernel"
        for g in payload["fusion_groups"]
    )
