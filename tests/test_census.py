"""scripts/census.py classifies definitions by what reaches them."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
spec = importlib.util.spec_from_file_location("census", SCRIPT)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)

TOY = '''
def used():
    return 1


class Box:
    def unused(self):
        return 3
'''

# A module that only the test imports, with an input check whose error
# class only the test trips.
EXTRA = '''
class WidthError(ValueError):
    def __init__(self, width):
        super().__init__(f"width {width}")


def tested(width=2):
    if width != 2:
        raise WidthError(width)
    return 2
'''

ENTRY = "import toy.mod\ntoy.mod.used()\n"

# A test that installs its own profiler, then uninstalls it with
# sys.setprofile(None) before the call the census must still see.
TEST = '''
import sys
import toy.extra
import toy.mod

events = []
sys.setprofile(lambda frame, event, arg: events.append((event, frame.f_code.co_name)))
toy.mod.used()
sys.setprofile(None)
toy.extra.tested()
try:
    toy.extra.tested(3)
except toy.extra.WidthError:
    pass
assert ("call", "used") in events, events
assert sys.getprofile() is None
assert all(name != "tested" for _, name in events)
'''


def test_census_classifies_a_toy_package(tmp_path):
    src = tmp_path / "src" / "toy"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "mod.py").write_text(TOY)
    (src / "extra.py").write_text(EXTRA)
    (tmp_path / "entry.py").write_text(ENTRY)
    (tmp_path / "check.py").write_text(TEST)
    raw = tmp_path / "raw"
    runs = [
        ("workload", [sys.executable, "entry.py"]),
        ("test", [sys.executable, "check.py"]),
    ]
    log = census.record(runs, raw, src, cwd=tmp_path)
    assert [run["exit"] for run in log] == [0, 0]
    result = census.census(src, raw)
    got = {r["name"]: (r["reach"], r["verdict"]) for r in result["definitions"]}
    assert got == {
        "used": ("workload", "keep"),
        "tested": ("test-only", "condemned"),
        "WidthError.__init__": ("test-only", "keep"),
        "Box.unused": ("none", "condemned"),
    }
    reasons = {r["name"]: r["reason"] for r in result["definitions"]}
    assert reasons["WidthError.__init__"].startswith("safety code")
    assert result["summary"]["condemned"] == {"definitions": 2, "lines": 6}
    assert result["summary"]["total"]["definitions"] == 4
    # Re-classifying the recorded reach gives back the same verdicts.
    again = census.reclassify(src, [dict(r) for r in result["definitions"]])
    assert again == result
    # A moved definition makes the records stale (reach is keyed by
    # file:line): re-classifying them exits non-zero, naming both sides.
    (src / "mod.py").write_text("\n\n" + TOY)
    with pytest.raises(SystemExit) as stale:
        census.reclassify(src, [dict(r) for r in result["definitions"]])
    message = str(stale.value.code)
    assert "only in the tree: mod.py:4 used" in message
    assert "only in the records: mod.py:2 used" in message
    assert "only in the tree: mod.py:9 Box.unused" in message
    assert "extra.py" not in message
