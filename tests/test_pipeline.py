"""Pipeline provider channels: record and live mode against a local endpoint,
how often the build stage reads the cassette, and which files run_all and
the stages run alone read and parse."""

import json
import shutil
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from envcover import pipeline, providers
from envcover.cli import main
from envcover.errors import ConfigError, MissingInput, ProviderError, StructureError
from envcover.pipeline import (
    RunPaths,
    resolve_bundle,
    run_all,
    stage_build,
    stage_collect,
    stage_derive,
    stage_report,
    stage_simulate,
    stage_validate,
)
from envcover.providers import load_cassette, request_hash, save_cassette

SCENE_KINDS = ["design_floor_plan", "select_objects", "propose_relations"]


@pytest.fixture
def live_requests():
    """The kind of every request the live endpoint received, in order."""
    return []


@pytest.fixture
def refused():
    """Request hashes the live endpoint answers with an error."""
    return set()


@pytest.fixture
def cassette_endpoint(cassette_records, live_requests, refused):
    """A local live endpoint that answers every request from the fixture cassette."""
    by_hash = {r["request_hash"]: r["response_body"] for r in cassette_records}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            live_requests.append(payload["kind"])
            key = request_hash(payload["kind"], payload["body"])
            if key not in by_hash or key in refused:
                self.send_error(404)
                return
            body = json.dumps({"response": by_hash[key]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        server.server_close()


def test_record_mode_writes_every_exchange_in_trajectory_order(
    living_room_dir, cassette_records, cassette_endpoint, tmp_path, dir_digest
):
    task = str(living_room_dir)
    fresh = tmp_path / "recorded.json"
    run_all(str(tmp_path / "plain"), task, grid=0.2)
    run_all(str(tmp_path / "live"), task, cassette=str(fresh), live_endpoint=cassette_endpoint, grid=0.2)

    recorded = load_cassette(fresh)
    kinds = [r["request_kind"] for r in recorded]
    assert len(recorded) == 16
    assert kinds[:7] == ["decompose"] + ["identify_factors"] * 3 + ["generate_plan"] * 3
    assert kinds[7:] == SCENE_KINDS * 3
    selected = json.loads((tmp_path / "live" / "trajectories" / "selected.json").read_text())
    scene_ids = [t["trajectory_id"] for t in selected["trajectories"] for _ in SCENE_KINDS]
    assert [r["request_body"]["trajectory_id"] for r in recorded[7:]] == scene_ids
    assert [r["request_hash"] for r in recorded] == [r["request_hash"] for r in cassette_records]

    run_all(str(tmp_path / "replayed"), task, cassette=str(fresh), grid=0.2)
    plain = dir_digest(tmp_path / "plain")
    assert dir_digest(tmp_path / "live") == plain
    assert dir_digest(tmp_path / "replayed") == plain


def test_record_mode_replays_a_complete_cassette_without_live_requests(
    living_room_dir, cassette_endpoint, live_requests, tmp_path, dir_digest
):
    task = str(living_room_dir)
    copy = tmp_path / "cassette.json"
    shutil.copyfile(living_room_dir / "cassette.json", copy)
    run_all(str(tmp_path / "plain"), task, grid=0.2)
    run_all(str(tmp_path / "live"), task, cassette=str(copy), live_endpoint=cassette_endpoint, grid=0.2)

    assert live_requests == []
    assert copy.read_bytes() == (living_room_dir / "cassette.json").read_bytes()
    assert dir_digest(tmp_path / "live") == dir_digest(tmp_path / "plain")


def test_record_mode_sends_only_the_misses_live(
    living_room_dir, cassette_records, cassette_endpoint, live_requests, tmp_path, dir_digest
):
    task = str(living_room_dir)
    partial = tmp_path / "derivation_only.json"
    save_cassette(partial, cassette_records[:7])
    run_all(str(tmp_path / "plain"), task, grid=0.2)
    run_all(str(tmp_path / "live"), task, cassette=str(partial), live_endpoint=cassette_endpoint, grid=0.2)

    assert live_requests == SCENE_KINDS * 3
    assert [r["request_hash"] for r in load_cassette(partial)] == [
        r["request_hash"] for r in cassette_records
    ]
    assert dir_digest(tmp_path / "live") == dir_digest(tmp_path / "plain")


def test_record_mode_keeps_the_live_answers_before_a_failure(
    living_room_dir, cassette_records, cassette_endpoint, live_requests, refused, tmp_path
):
    partial = tmp_path / "derivation_only.json"
    save_cassette(partial, cassette_records[:7])
    last = cassette_records[-1]
    assert last["request_kind"] == "propose_relations"
    refused.add(last["request_hash"])
    with pytest.raises(ProviderError):
        run_all(
            str(tmp_path / "live"), str(living_room_dir), cassette=str(partial),
            live_endpoint=cassette_endpoint, grid=0.2,
        )

    assert live_requests == SCENE_KINDS * 3
    assert [r["request_hash"] for r in load_cassette(partial)] == [
        r["request_hash"] for r in cassette_records[:15]
    ]


def test_record_mode_from_no_cassette_saves_the_bundled_one(
    living_room_dir, cassette_endpoint, live_requests, tmp_path
):
    # derive and build share one channel; what it saves is what separate
    # channels, each saving and reloading the file, wrote
    fresh = tmp_path / "recorded.json"
    run_all(str(tmp_path / "live"), str(living_room_dir), cassette=str(fresh),
            live_endpoint=cassette_endpoint, grid=0.2)
    assert len(live_requests) == 16
    assert fresh.read_bytes() == (living_room_dir / "cassette.json").read_bytes()


def test_record_mode_keeps_derives_live_answers_when_build_fails(
    living_room_dir, cassette_records, cassette_endpoint, live_requests, refused, tmp_path
):
    fresh = tmp_path / "recorded.json"
    first_scene = cassette_records[7]
    assert first_scene["request_kind"] == "design_floor_plan"
    refused.add(first_scene["request_hash"])
    with pytest.raises(ProviderError):
        run_all(str(tmp_path / "live"), str(living_room_dir), cassette=str(fresh),
                live_endpoint=cassette_endpoint, grid=0.2)

    assert len(live_requests) == 8
    assert [r["request_hash"] for r in load_cassette(fresh)] == [
        r["request_hash"] for r in cassette_records[:7]
    ]


def test_live_mode_without_a_cassette_writes_none(
    living_room_dir, cassette_endpoint, live_requests, tmp_path, dir_digest
):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    (bundle / "cassette.json").unlink()
    run_all(str(tmp_path / "plain"), str(living_room_dir), grid=0.2)
    run_all(str(tmp_path / "live"), str(bundle), live_endpoint=cassette_endpoint, grid=0.2)

    derivation_kinds = ["decompose"] + ["identify_factors"] * 3 + ["generate_plan"] * 3
    assert live_requests == derivation_kinds + SCENE_KINDS * 3
    assert not (bundle / "cassette.json").exists()
    assert dir_digest(tmp_path / "live") == dir_digest(tmp_path / "plain")


def test_collect_rejects_a_repeated_subtask_id(living_room_dir, tmp_path):
    paths = RunPaths(tmp_path / "run")
    stage_derive(paths, resolve_bundle(str(living_room_dir)))
    subtasks_file = paths.plans / "subtasks.json"
    subtasks = json.loads(subtasks_file.read_text())
    subtasks[2]["id"] = subtasks[0]["id"]
    subtasks_file.write_text(json.dumps(subtasks))
    with pytest.raises(StructureError, match="duplicate subtask ids"):
        stage_collect(paths)


def test_build_reads_the_cassette_once(living_room_dir, tmp_path, monkeypatch):
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir))
    stage_derive(paths, bundle)
    assert len(stage_collect(paths)) == 3

    loads = []

    def counting(path):
        loads.append(path)
        return load_cassette(path)

    monkeypatch.setattr(providers, "load_cassette", counting)
    stage_build(paths, bundle, grid=0.2)
    assert len(loads) == 1


def test_record_mode_build_reads_the_cassette_once(
    living_room_dir, cassette_endpoint, live_requests, tmp_path, monkeypatch
):
    copy = tmp_path / "cassette.json"
    shutil.copyfile(living_room_dir / "cassette.json", copy)
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir), cassette=str(copy))
    stage_derive(paths, bundle, cassette_endpoint)
    assert len(stage_collect(paths)) == 3

    # counted at the file, so a read from any module shows
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        if self == copy:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    stage_build(paths, bundle, cassette_endpoint, grid=0.2)
    assert len(reads) == 1
    assert live_requests == []
    assert copy.read_bytes() == (living_room_dir / "cassette.json").read_bytes()


def test_a_rebuild_removes_the_environment_files_it_does_not_write(living_room_dir, tmp_path):
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir))
    stage_derive(paths, bundle)
    assert len(stage_collect(paths)) == 3
    stage_build(paths, bundle, grid=0.2)
    built = {p.name: p.read_bytes() for p in paths.environments.iterdir()}
    assert sorted(built) == ["env-000.json", "env-001.json", "env-002.json"]

    # as an earlier build of a larger selection would leave it
    shutil.copyfile(paths.environments / "env-000.json", paths.environments / "env-003.json")
    stage_build(paths, bundle, grid=0.2)
    assert {p.name: p.read_bytes() for p in paths.environments.iterdir()} == built
    assert sorted(stage_validate(paths, bundle)["physics"]["environments"]) == ["env-000", "env-001", "env-002"]
    stage_simulate(paths, bundle)


@pytest.mark.parametrize("grid", [float("nan"), float("inf")])
def test_run_all_rejects_a_non_finite_grid_before_writing(grid, living_room_dir, tmp_path):
    with pytest.raises(ConfigError, match="grid resolution"):
        run_all(str(tmp_path / "r"), str(living_room_dir), grid=grid)
    assert not (tmp_path / "r").exists()


@pytest.fixture
def file_reads(monkeypatch):
    """The path of every file read from here on, counted at the file, so a
    read from any module shows."""
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    return reads


POLICY_FILES = [f"policies/{name}.json" for name in ("correct", "counterfactual", "lackbranch", "unreachable")]
BUNDLE_FILES = ["action_model.json", "cassette.json", "catalog.json", "schema.json", "task.json", *POLICY_FILES]
SCENE_FILES = ["environments/env-000.json", "environments/env-001.json", "environments/env-002.json"]


def under(root, names):
    return sorted(Path(root) / name for name in names)


def test_run_all_reads_each_bundle_and_scene_file_once(
    living_room_dir, tmp_path, file_reads, monkeypatch
):
    loads = []
    load = providers.load_cassette
    monkeypatch.setattr(providers, "load_cassette", lambda path: loads.append(path) or load(path))
    # two calls in one process: nothing read by the first serves the second
    for name in ("a", "b"):
        run_all(str(tmp_path / name), str(living_room_dir), grid=0.2)
        expected = under(living_room_dir, BUNDLE_FILES) + under(tmp_path / name, SCENE_FILES)
        assert sorted(file_reads) == sorted(expected)
        assert len(loads) == 1
        file_reads.clear()
        loads.clear()


@pytest.fixture
def deserialized(monkeypatch):
    """One entry per pipeline.deserialize_environment call, from here on."""
    calls = []
    deserialize = pipeline.deserialize_environment

    def counting(text):
        calls.append(text)
        return deserialize(text)

    monkeypatch.setattr(pipeline, "deserialize_environment", counting)
    return calls


def test_run_all_parses_each_environment_file_once(living_room_dir, tmp_path, deserialized):
    # two calls in one process: nothing parsed by the first serves the second
    for name in ("a", "b"):
        run_all(str(tmp_path / name), str(living_room_dir), grid=0.2)
        assert len(deserialized) == 3
        deserialized.clear()


def test_a_stage_run_alone_parses_the_environment_files(
    living_room_dir, tmp_path, deserialized, file_reads
):
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir))
    run_all(str(paths.root), str(living_room_dir), grid=0.2)
    # the report reads each scene file for its trajectory id alone
    for stage, parses, bundle_inputs, run_inputs in (
        (lambda: stage_validate(paths, bundle), 3, ["schema.json"], []),
        (
            lambda: stage_simulate(paths, bundle),
            3,
            ["action_model.json", "schema.json", *POLICY_FILES],
            ["trajectories/selected.json"],
        ),
        (
            lambda: stage_report(paths),
            0,
            [],
            [
                "plans/plan_document.json", "plans/subtasks.json", "plans/task.json",
                "reports/physics.json", "reports/simulation.json", "reports/validity.json",
                "trajectories/selected.json", "trajectories/universe.json",
            ],
        ),
    ):
        deserialized.clear()
        file_reads.clear()
        stage()
        assert len(deserialized) == parses
        expected = under(living_room_dir, bundle_inputs) + under(paths.root, run_inputs + SCENE_FILES)
        assert sorted(file_reads) == sorted(expected)


RUN_DIRS = ["", "plans", "trajectories", "environments", "reports"]


def test_run_all_makes_each_run_directory_once(living_room_dir, tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counting(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    run_all(str(tmp_path / "run"), str(living_room_dir), grid=0.2)
    assert sorted(made) == under(tmp_path / "run", RUN_DIRS)


@pytest.mark.parametrize("stage", ["derive", "collect", "build", "validate", "simulate", "report"])
def test_a_stage_run_alone_makes_the_run_directories(stage, living_room_dir, tmp_path):
    paths = RunPaths(tmp_path / "run")
    bundle = resolve_bundle(str(living_room_dir))
    call = {
        "derive": lambda: stage_derive(paths, bundle),
        "collect": lambda: stage_collect(paths),
        "build": lambda: stage_build(paths, bundle, grid=0.2),
        "validate": lambda: stage_validate(paths, bundle),
        "simulate": lambda: stage_simulate(paths, bundle),
        "report": lambda: stage_report(paths),
    }[stage]
    if stage == "derive":
        call()
    else:
        # the root is empty, so every later stage misses its inputs
        with pytest.raises(MissingInput):
            call()
    assert all(d.is_dir() for d in under(paths.root, RUN_DIRS))


def test_a_validate_after_run_all_reads_the_files_on_disk(living_room_dir, tmp_path, capsys):
    out = tmp_path / "run"
    run_all(str(out), str(living_room_dir), grid=0.2)
    broken = out / "environments" / "env-001.json"
    broken.write_text(broken.read_text()[:60])
    assert main(["validate", "--task", str(living_room_dir), "--out", str(out)]) == 2
    assert str(broken) in capsys.readouterr().err
