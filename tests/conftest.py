import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import settings

# Examples are derived from each test's code, not drawn at random, and no
# example has a deadline: results must not depend on luck or machine load.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "envcover" / "fixtures"


def load_fixture_json(*parts):
    path = FIXTURE_DIR.joinpath(*parts)
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def living_room_dir():
    return FIXTURE_DIR / "clean_living_room"


@pytest.fixture(scope="session")
def living_room_plan_doc():
    return load_fixture_json("clean_living_room", "plans.json")


@pytest.fixture(scope="session")
def task_schema(living_room_dir):
    from envcover.schema import load_schema

    return load_schema(str(living_room_dir / "schema.json"))


@pytest.fixture(scope="session")
def catalog(living_room_dir):
    from envcover.assets import load_catalog

    return load_catalog(str(living_room_dir / "catalog.json"))


@pytest.fixture(scope="session")
def action_model(living_room_dir):
    from envcover.simulation import load_action_model

    return load_action_model(str(living_room_dir / "action_model.json"))


@pytest.fixture(scope="session")
def policies(living_room_dir):
    from envcover.simulation import load_policy

    out = {}
    for path in sorted((living_room_dir / "policies").glob("*.json")):
        out[path.stem] = load_policy(str(path))
    return out


@pytest.fixture(scope="session")
def cassette_records(living_room_dir):
    from envcover.providers import load_cassette

    return load_cassette(living_room_dir / "cassette.json")


@pytest.fixture(scope="session")
def derived(living_room_dir, cassette_records):
    """Full derivation replayed from the bundled cassette."""
    from envcover.derivation import derive
    from envcover.pipeline import load_task
    from envcover.providers import PlanProvider, ReplayChannel

    task = load_task(living_room_dir / "task.json")
    result = derive(PlanProvider(ReplayChannel(cassette_records)), task)
    assert result.status == "ok"
    return result


@pytest.fixture(scope="session")
def selected_trajectories(derived):
    from envcover.trajectories import (
        cartesian_trajectories,
        minimal_trajectory_selection,
        paths_per_subtask,
    )

    universe = cartesian_trajectories(paths_per_subtask(derived.trees))
    return universe, minimal_trajectory_selection(universe)


@pytest.fixture(scope="session")
def built_outcomes(selected_trajectories, catalog, task_schema, cassette_records):
    """One solved environment per selected trajectory, replayed and cached."""
    from envcover.providers import ReplayChannel, SceneProvider
    from envcover.scene import build_environment

    _, selected = selected_trajectories
    provider = SceneProvider(ReplayChannel(cassette_records))
    return [
        build_environment(provider, catalog, task_schema, t, f"env-{i:03d}")
        for i, t in enumerate(selected)
    ]


@pytest.fixture(scope="session")
def built_envs(built_outcomes):
    return [o.environment for o in built_outcomes]


def run_dir_digest(root) -> str:
    """sha256 over the sorted `sha256sum` lines of a run dir, manifest.json left out.

    Equals `find . -type f ! -name manifest.json | sort | xargs sha256sum |
    sha256sum` run inside the directory.
    """
    root = Path(root)
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "manifest.json"):
        rel = path.relative_to(root).as_posix()
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  ./{rel}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.fixture(scope="session")
def dir_digest():
    return run_dir_digest
