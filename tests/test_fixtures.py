"""The committed fixture bundle is what scripts/build_fixtures.py writes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_fixtures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("build_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_build_script_rewrites_the_committed_bundle(living_room_dir, tmp_path):
    load_script().write_fixtures(tmp_path)

    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    committed = sorted(
        p.relative_to(living_room_dir)
        for p in living_room_dir.rglob("*")
        if p.is_file() and p.name != "plans.json"
    )
    assert written == committed
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (living_room_dir / rel).read_bytes(), rel
