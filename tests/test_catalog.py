"""The tracked out/ reference catalog regenerates byte for byte from scripts/reproduce_catalog.py,
and the README's catalog table lists that script's invocations."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACKED = ROOT / "out"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_catalog", ROOT / "scripts" / "reproduce_catalog.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_regenerates_byte_for_byte(tmp_path, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.run()
    tracked = sorted(path.name for path in TRACKED.glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == tracked
    changed = [name for name in tracked if (tmp_path / name).read_bytes() != (TRACKED / name).read_bytes()]
    assert not changed, f"regenerated files differ from out/: {changed}"


def test_readme_catalog_table_lists_the_scripts_invocations():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Reference result catalog", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in table.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[1].startswith("csma-game "):
            listed.append(cells[1])
    invocations = {"csma-game " + " ".join(args) for args in load_script().RUNS.values()}
    assert len(set(listed)) == len(listed) == 6
    assert [command for command in listed if command not in invocations] == []
