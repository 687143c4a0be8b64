"""The tracked out/ reference catalog regenerates byte for byte from the scripts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACKED = ROOT / "out"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_regenerates_byte_for_byte(tmp_path, monkeypatch):
    for name in ("reproduce_tables", "figure_curves"):
        script = load_script(name)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.run()
    tracked = sorted(path.name for path in TRACKED.glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == tracked
    changed = [name for name in tracked if (tmp_path / name).read_bytes() != (TRACKED / name).read_bytes()]
    assert not changed, f"regenerated files differ from out/: {changed}"
