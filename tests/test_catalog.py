"""The tracked out/ reference catalog regenerates byte for byte from scripts/reproduce_catalog.py,
and the README's catalog section lists that script's invocations and how many answers the grid decides."""

import csv
import importlib.util
import re
from pathlib import Path

from csma_game.game import GridSpec

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


def readme_catalog():
    """The README's catalog section and the invocations its table lists, in order."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Reference result catalog", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[1].startswith("csma-game "):
            listed.append(cells[1])
    return section, listed


def test_readme_catalog_table_lists_the_scripts_invocations():
    _, listed = readme_catalog()
    invocations = {"csma-game " + " ".join(args) for args in load_script().RUNS.values()}
    assert len(set(listed)) == len(listed) == 6
    assert [command for command in listed if command not in invocations] == []


def test_readme_states_how_many_catalog_answers_sit_on_a_grid_bound():
    # An answer sits on a bound when one of its strategies is the default grid's lo or hi: the bound, not the
    # model, may have decided it.
    section, listed = readme_catalog()
    files = {"csma-game " + " ".join(args): name for name, args in load_script().RUNS.items()}
    bounds = {GridSpec().lo, GridSpec().hi}
    counts = []
    for command in listed:
        with open(TRACKED / files[command], newline="") as f:
            rows = list(csv.DictReader(f))
        columns = [c for c in ("tau_d", "tau_w", "tau_star") if c in rows[0]]
        counts.append((sum(any(float(r[c]) in bounds for c in columns) for r in rows), len(rows)))
    assert counts == [(5, 9), (5, 11), (2, 6), (18, 21), (6, 18), (10, 18)]
    total = tuple(map(sum, zip(*counts)))
    assert total == (46, 83)
    sentence = section.split("The grid's bounds decide", 1)[1].split("\n\n", 1)[0]
    stated = [(int(a), int(b)) for a, b in re.findall(r"(\d+) of (\d+)", sentence)]
    assert stated == [total] + counts
