import argparse
import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from envcover import cli
from envcover.cli import main
from envcover.environment import deserialize_environment, serialize_environment
from envcover.errors import SchemaViolation
from envcover.pipeline import RunPaths, stage_derive, stage_report
from envcover.task_model import Violation

EXPECTED_FILES = [
    "plans/task.json",
    "plans/plan_document.json",
    "plans/subtasks.json",
    "plans/derivation_report.json",
    "trajectories/universe.json",
    "trajectories/selected.json",
    "environments/env-000.json",
    "environments/env-001.json",
    "environments/env-002.json",
    "reports/build_stats.json",
    "reports/physics.json",
    "reports/validity.json",
    "reports/simulation.json",
    "reports/report.json",
    "manifest.json",
]


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, None
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, living_room_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["run-all", "--task", str(living_room_dir), "--out", str(out)])
    assert code == 0
    return out


def test_run_all_writes_the_whole_layout(full_run):
    for rel in EXPECTED_FILES:
        assert (full_run / rel).is_file(), f"missing {rel}"


def test_run_all_prints_the_report(living_room_dir, tmp_path, capsys):
    code, summary = run_cli(
        "run-all", "--task", str(living_room_dir), "--out", str(tmp_path / "r"), capsys=capsys
    )
    assert code == 0
    assert summary["task_id"] == "clean_living_room"
    assert summary["trajectories"] == {"universe": 12, "selected": 3, "realized": 3}
    assert summary["coverage"]["paths"] == {"covered": 7, "universe": 7, "ratio": 1.0}
    assert summary["physics"]["pass_rate"] == 1.0
    assert summary["simulation"]["fault_detection_rate"] == 1.0


def test_stage_chain_matches_run_all(full_run, living_room_dir, tmp_path, capsys):
    out = tmp_path / "staged"
    task = str(living_room_dir)
    for argv in (
        ["derive", "--task", task, "--out", str(out)],
        ["collect", "--out", str(out)],
        ["build", "--task", task, "--out", str(out)],
        ["validate", "--task", task, "--out", str(out)],
        ["simulate", "--task", task, "--out", str(out)],
        ["report", "--out", str(out)],
    ):
        code, _ = run_cli(*argv, capsys=capsys)
        assert code == 0, f"stage {argv[0]} failed"
    for rel in EXPECTED_FILES:
        if rel == "manifest.json":
            assert not (out / rel).exists()  # run-all only
            continue
        assert (out / rel).read_bytes() == (full_run / rel).read_bytes(), rel


def test_reruns_are_byte_identical_outside_the_manifest(full_run, living_room_dir, tmp_path):
    out = tmp_path / "again"
    assert main(["run-all", "--task", str(living_room_dir), "--out", str(out)]) == 0
    for rel in EXPECTED_FILES:
        if rel == "manifest.json":
            continue
        assert (out / rel).read_bytes() == (full_run / rel).read_bytes(), rel


def test_manifest_echoes_the_config(full_run):
    manifest = json.loads((full_run / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 0
    assert manifest["config"]["grid"] == 0.1
    assert "jobs" not in manifest["config"]
    assert [s["name"] for s in manifest["stages"]] == [
        "derive",
        "collect",
        "build",
        "validate",
        "simulate",
        "report",
    ]


def test_stage_summaries_surface_key_numbers(full_run, living_room_dir, tmp_path, capsys):
    out = tmp_path / "sum"
    task = str(living_room_dir)
    _, derive_summary = run_cli("derive", "--task", task, "--out", str(out), capsys=capsys)
    assert derive_summary == {"status": "ok", "rounds_used": 1, "subtasks": 3, "violations": 0}
    _, collect_summary = run_cli("collect", "--out", str(out), capsys=capsys)
    assert collect_summary == {"selected": 3}
    _, build_summary = run_cli("build", "--task", task, "--out", str(out), capsys=capsys)
    assert build_summary == {"environments": 3, "relaxed": 0}
    _, validate_summary = run_cli("validate", "--task", task, "--out", str(out), capsys=capsys)
    assert validate_summary == {"physics_pass_rate": 1.0, "validity_rate": 1.0}
    _, sim_summary = run_cli("simulate", "--task", task, "--out", str(out), capsys=capsys)
    assert sim_summary == {"policies": 4, "fault_detection_rate": 1.0, "total_ticks": 250}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_upstream_artifacts_exit_1(tmp_path, capsys):
    code = main(["collect", "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "envcover:" in capsys.readouterr().err


def test_bad_task_path_exits_2(tmp_path, capsys):
    code = main(["derive", "--task", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "no task file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derive", "build", "run-all"])
def test_missing_cassette_in_replay_mode_exits_2(command, living_room_dir, tmp_path, capsys):
    out = tmp_path / "r"
    argv = [command, "--task", str(living_room_dir), "--cassette", str(tmp_path / "nope.json")]
    assert main(argv + ["--out", str(out)]) == 2
    assert "no cassette at" in capsys.readouterr().err
    assert not out.exists()


def test_a_repeated_policy_label_exits_2(living_room_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    relabelled = json.loads((bundle / "policies" / "lackbranch.json").read_text())
    relabelled["label"] = "correct"
    (bundle / "policies" / "zz_copy.json").write_text(json.dumps(relabelled))
    out = tmp_path / "r"
    code = main(["run-all", "--task", str(bundle), "--out", str(out), "--grid", "0.2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "correct.json" in err and "zz_copy.json" in err
    assert not (out / "reports" / "simulation.json").exists()


@pytest.mark.parametrize("name", ["schema.json", "catalog.json", "action_model.json"])
def test_a_missing_bundle_file_exits_2(name, living_room_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    (bundle / name).unlink()
    code = main(["run-all", "--task", str(bundle), "--out", str(tmp_path / "r"), "--grid", "0.2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and name in err


def test_a_catalog_of_dimension_zero_exits_2(living_room_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    doc = json.loads((bundle / "catalog.json").read_text())
    doc["dim"] = 0
    for asset in doc["assets"]:
        asset["embedding"] = ""
    (bundle / "catalog.json").write_text(json.dumps(doc))
    code = main(["run-all", "--task", str(bundle), "--out", str(tmp_path / "r"), "--grid", "0.2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "dim:" in err and "catalog.json" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"connects": ["living_room", "attic"]}, r"doorways\[front_door\]: unknown room 'attic'"),
        ({"width": -0.9}, r"doorways\[0\]: .*positive width"),
    ],
    ids=["unknown_room", "negative_width"],
)
def test_a_provider_doorway_that_cannot_exist_exits_2(change, message, living_room_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    cassette = json.loads((bundle / "cassette.json").read_text())
    for record in cassette["records"]:
        if record["request_kind"] == "design_floor_plan":
            record["response_body"]["doorways"][0].update(change)
    (bundle / "cassette.json").write_text(json.dumps(cassette))
    code = main(["run-all", "--task", str(bundle), "--out", str(tmp_path / "r"), "--grid", "0.2"])
    assert code == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "name, text",
    [("task.json", '{"id": "t", '), ("cassette.json", '{"records": ['), ("cassette.json", '{"records": 3}')],
    ids=["truncated_task", "truncated_cassette", "cassette_without_records"],
)
def test_a_corrupt_bundle_file_exits_2(name, text, living_room_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    (bundle / name).write_text(text)
    out = tmp_path / "r"
    assert main(["derive", "--task", str(bundle), "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_a_truncated_report_input_exits_2(full_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    physics = run / "reports" / "physics.json"
    physics.write_text(physics.read_text()[:40])
    assert main(["report", "--out", str(run)]) == 2
    assert "physics report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, key, what",
    [("physics.json", "pass_rate", "physics report"), ("simulation.json", "total_ticks", "simulation report")],
)
def test_a_report_input_without_a_read_key_exits_2(name, key, what, full_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    path = run / "reports" / name
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    assert main(["report", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert what in err and key in err


def move_the_sofa_out_of_its_room(run):
    path = run / "environments" / "env-001.json"
    env = deserialize_environment(path.read_text())
    i = next(i for i, p in enumerate(env.placements) if p.object == "sofa")
    _, y, z = env.placements[i].position
    env.placements[i] = dataclasses.replace(env.placements[i], position=(50.0, y, z))
    path.write_text(serialize_environment(env))


def test_a_scene_off_its_room_fails_entity_and_relation_in_physics_and_validity(
    full_run, living_room_dir, tmp_path
):
    # env-001's sofa moved out of its room: the dimension flags come from
    # the rules of its failures, and the validity reason names them
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    move_the_sofa_out_of_its_room(run)
    assert main(["validate", "--task", str(living_room_dir), "--out", str(run)]) == 1
    physics = json.loads((run / "reports" / "physics.json").read_text())
    assert physics["pass_rate"] == 0.6666666666666666
    scene = physics["environments"]["env-001"]
    flags = [scene[k] for k in ("ok", "floor_plan_ok", "entity_ok", "relation_ok")]
    assert flags == [False, True, False, False]
    assert len(scene["failures"]) == 2
    validity = json.loads((run / "reports" / "validity.json").read_text())
    assert validity["rate"] == 0.6666666666666666
    assert validity["environments"]["env-001"] == {
        "reasons": ["physics validation failed: entity, relation"],
        "valid": False,
    }


def test_a_failing_derive_and_validate_print_their_summary_before_exiting_1(
    full_run, living_room_dir, tmp_path, capsys, monkeypatch
):
    def summary_text(doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    # derive: the fixture's derivation with one violation left after refinement
    def derive_with_a_violation(*args, **kwargs):
        result = stage_derive(*args, **kwargs)
        result.violations.append(Violation("grounding", "s1", "kept on purpose"))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(cli, "stage_derive", derive_with_a_violation)
        code = main(["derive", "--task", str(living_room_dir), "--out", str(tmp_path / "d")])
    captured = capsys.readouterr()
    assert code == 1
    assert "derivation kept violations" in captured.err
    assert captured.out == summary_text(
        {"status": "exhausted_rounds", "rounds_used": 1, "subtasks": 3, "violations": 1}
    )

    # validate: env-001's sofa moved out of its room
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    move_the_sofa_out_of_its_room(run)
    code = main(["validate", "--task", str(living_room_dir), "--out", str(run)])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed the physics check" in captured.err
    assert captured.out == summary_text(
        {"physics_pass_rate": 0.6666666666666666, "validity_rate": 0.6666666666666666}
    )


def test_a_faulty_policy_no_scene_detects_lowers_the_detection_rate(
    full_run, living_room_dir, tmp_path
):
    # a fifth policy, masked, is the correct one relabelled: it is counted
    # as faulty and passes everywhere
    bundle = tmp_path / "bundle"
    shutil.copytree(living_room_dir, bundle)
    doc = json.loads((bundle / "policies" / "correct.json").read_text())
    doc["label"] = "masked"
    (bundle / "policies" / "masked.json").write_text(json.dumps(doc))
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    assert main(["simulate", "--task", str(bundle), "--out", str(run)]) == 0
    simulation = json.loads((run / "reports" / "simulation.json").read_text())
    assert simulation["fault_detection_rate"] == 0.75
    assert simulation["faulty_policies"] == ["counterfactual", "lackbranch", "masked", "unreachable"]
    assert simulation["policies"]["masked"]["detected"] is False


@pytest.mark.parametrize(
    "damage, message",
    [
        ("directory", "cannot read environment"),
        ("bytes", "not UTF-8"),
        ("truncated", "not valid JSON"),
    ],
)
def test_an_unreadable_environment_file_exits_2(
    damage, message, full_run, living_room_dir, tmp_path, capsys
):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    env = run / "environments" / "env-001.json"
    text = env.read_text()
    env.unlink()
    if damage == "directory":
        env.mkdir()
    elif damage == "bytes":
        env.write_bytes(b'{"id": "\xff"}')
    else:
        env.write_text(text[:40])
    assert main(["validate", "--task", str(living_room_dir), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert message in err and "env-001.json" in err


@pytest.mark.parametrize(
    "damage, message",
    [("truncated", "not valid JSON"), ("no_trajectory_id", "trajectory_id: malformed environment")],
)
def test_a_report_on_an_unreadable_scene_exits_2(damage, message, full_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    env = run / "environments" / "env-001.json"
    if damage == "truncated":
        env.write_text(env.read_text()[:40])
    else:
        doc = json.loads(env.read_text())
        del doc["trajectory_id"]
        env.write_text(json.dumps(doc))
    assert main(["report", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert message in err and "env-001.json" in err


def test_a_report_on_a_scene_of_no_selected_trajectory_exits_1(full_run, tmp_path, capsys):
    # the report would otherwise list env-001 yet count only two realized
    # trajectories, as simulate refuses to
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    env = run / "environments" / "env-001.json"
    doc = json.loads(env.read_text())
    doc["trajectory_id"] = "not/a/selected/trajectory"
    env.write_text(json.dumps(doc))
    report = (run / "reports" / "report.json").read_bytes()
    assert main(["report", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert "environment env-001 realizes 'not/a/selected/trajectory'" in err
    assert (run / "reports" / "report.json").read_bytes() == report


def test_stored_metadata_is_checked_by_validate_and_simulate_not_report(
    full_run, living_room_dir, tmp_path, capsys
):
    # no number the report writes depends on a scene's geometry, so it
    # does not re-derive the metadata
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    env = run / "environments" / "env-000.json"
    doc = json.loads(env.read_text())
    assert doc["metadata"]["book"]["location"] == "floor"
    doc["metadata"]["book"]["location"] = "table_top"
    env.write_text(json.dumps(doc))
    task = ["--task", str(living_room_dir), "--out", str(run)]
    for command in ("validate", "simulate"):
        assert main([command, *task]) == 2
        err = capsys.readouterr().err
        assert "stored metadata disagrees" in err and "env-000.json" in err
    report = run / "reports" / "report.json"
    report.unlink()
    assert main(["report", "--out", str(run)]) == 0
    assert report.read_bytes() == (full_run / "reports" / "report.json").read_bytes()


def test_a_universe_count_as_a_string_is_a_schema_violation(full_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / "trajectories" / "universe.json").write_text('{"count": "3"}')
    with pytest.raises(SchemaViolation, match="trajectory universe") as excinfo:
        stage_report(RunPaths(run))
    assert excinfo.value.field == "count"


@pytest.mark.parametrize(
    "command, flag",
    [("build", "--grid"), ("simulate", "--budget"), ("derive", "--max-rounds")],
    ids=["grid", "budget", "max_rounds"],
)
def test_nonpositive_numbers_exit_2(command, flag, living_room_dir, tmp_path, capsys):
    argv = [command, "--task", str(living_room_dir), "--out", str(tmp_path / "r"), flag, "0"]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["build", "run-all"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_grid_exits_2(command, value, living_room_dir, tmp_path, capsys):
    argv = [command, "--task", str(living_room_dir), "--out", str(tmp_path / "r"), f"--grid={value}"]
    assert main(argv) == 2
    assert "--grid must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_a_grid_too_fine_for_the_room_exits_2(living_room_dir, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run-all", "--task", str(living_room_dir), "--out", str(out), "--grid", "1e-300"]) == 2
    assert "grid resolution 1e-300 puts" in capsys.readouterr().err
    assert not list(out.glob("environments/env-*.json"))


@pytest.mark.parametrize("command", ["run-all", "collect"])
def test_an_out_path_that_is_a_file_exits_2(command, living_room_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    task = ["--task", str(living_room_dir)] if command == "run-all" else []
    assert main([command, *task, "--out", str(out)]) == 2
    assert f"cannot make run directory {out}" in capsys.readouterr().err
    assert out.read_text() == ""


def test_an_environment_file_that_cannot_be_written_exits_2(living_room_dir, tmp_path, capsys):
    out = tmp_path / "r"
    task = ["--task", str(living_room_dir), "--out", str(out)]
    assert main(["derive", *task]) == 0
    assert main(["collect", "--out", str(out)]) == 0
    (out / "environments" / "env-000.json").mkdir(parents=True)
    capsys.readouterr()
    assert main(["build", *task]) == 2
    assert f"cannot write {out / 'environments' / 'env-000.json'}" in capsys.readouterr().err


def test_jobs_is_not_an_option(living_room_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build", "--task", str(living_room_dir), "--out", str(tmp_path / "r"), "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "--jobs" in capsys.readouterr().err


# the options each stage reads, and run-all all of them
STAGE_OPTIONS = {
    "derive": {"--task", "--cassette", "--out", "--live-endpoint", "--max-rounds"},
    "collect": {"--out"},
    "build": {"--task", "--cassette", "--catalog", "--out", "--live-endpoint", "--seed", "--grid"},
    "validate": {"--task", "--out"},
    "simulate": {"--task", "--out", "--budget"},
    "report": {"--out"},
}
STAGE_OPTIONS["run-all"] = set().union(*STAGE_OPTIONS.values())


def test_each_subcommand_takes_exactly_the_options_its_stage_reads():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        command: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for command, sub in commands.choices.items()
    }
    assert taken == STAGE_OPTIONS


@pytest.mark.parametrize(
    "command, option",
    [
        ("derive", "--catalog"),
        ("validate", "--catalog"),
        ("validate", "--cassette"),
        ("simulate", "--catalog"),
        ("simulate", "--cassette"),
    ],
)
def test_an_option_the_stage_does_not_read_is_a_usage_error(
    command, option, living_room_dir, tmp_path, capsys
):
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--task", str(living_room_dir), "--out", str(out), option, "x"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {option} x" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", "--task", "x"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_module_invocation_shows_help():
    proc = subprocess.run(
        [sys.executable, "-m", "envcover.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "run-all" in proc.stdout
