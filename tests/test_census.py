"""scripts/census.py classifies definitions by what reaches them."""

import importlib.util
import sys
from pathlib import Path

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

# A module that only the test imports.
EXTRA = '''
def tested():
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
        "Box.unused": ("none", "condemned"),
    }
    assert result["summary"]["condemned"] == {"definitions": 2, "lines": 4}
    assert result["summary"]["total"]["definitions"] == 3
