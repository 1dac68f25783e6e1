"""scripts/lint_fallback.py: the lint gate where ruff is not installed.

A seeded package holds the findings the fallback reports -- an unused
module-level import, an import a function binds and never reads
(F401), an undefined name (F821) -- next to forms it must pass: a
module-level name read in a function or in a quoted annotation, a
function's import read only by a function nested in it, ``__all__``,
``x as x`` re-exports, ``__future__``, ``# noqa`` and
``pyproject.toml``'s per-file ignores.  The command's exit codes are
checked, and ``src`` and ``tests`` must come out clean, as
``scripts/check.sh`` requires when ruff is missing.  Agreement with
ruff itself is not checked here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lint_fallback.py"
spec = importlib.util.spec_from_file_location("lint_fallback", SCRIPT)
lint_fallback = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_fallback)

SEEDED = '''\
from __future__ import annotations

import json
import os.path
import collections.abc
from typing import Optional, Sequence
from math import pi as pi
from math import tau  # noqa: F401
from math import inf  # noqa
from math import e as euler

__all__ = ["Sequence"]


def f(x: "Optional[int]") -> int:
    return json.dumps(x) + typo


def g():
    return os.sep


def h():
    import json
    return 0


def outer():
    from math import sqrt

    def inner():
        return sqrt(2.0)

    return inner
'''

PYPROJECT = '''\
[tool.ruff.lint]
ignore = ["E741"]

[tool.ruff.lint.per-file-ignores]
"pkg/**/__init__.py" = ["F401"]
'''


def _seed(root: Path) -> None:
    (root / "pyproject.toml").write_text(PYPROJECT)
    pkg = root / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(SEEDED)
    (pkg / "__init__.py").write_text("import json\nfrom .mod import f\n")


def test_seeded_findings(tmp_path):
    _seed(tmp_path)
    found = lint_fallback.lint([str(tmp_path / "pkg")], root=tmp_path)
    got = sorted((path.name, line, code, msg) for path, line, code, msg in found)
    assert got == [
        ("mod.py", 5, "F401", "`collections.abc` imported but unused"),
        ("mod.py", 10, "F401", "`math.e` imported but unused"),
        ("mod.py", 16, "F821", "undefined name `typo`"),
        ("mod.py", 24, "F401", "`json` imported but unused"),
    ]


def test_command_fails_closed_on_a_finding(tmp_path):
    _seed(tmp_path)
    bad = tmp_path / "pkg" / "sub" / "mod.py"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(bad)],
        capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert "F401" in run.stdout and "F821" in run.stdout
    bad.write_text("import os\n\nprint(os.sep)\n")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(bad)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout


def test_the_repository_is_clean():
    root = SCRIPT.parents[1]
    assert lint_fallback.lint([str(root / "src"), str(root / "tests")]) == []
