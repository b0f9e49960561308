import copy

import pytest

from envcover.errors import SchemaMismatch, SchemaViolation
from envcover.simulation import (
    VERDICT_CAUSAL,
    VERDICT_ERROR,
    VERDICT_GOAL,
    VERDICT_PASS,
    _precondition_holds,
    detected,
    initial_world,
    parse_action_model,
    parse_policy,
    run_policy,
    scenario_validity,
)
from envcover.validator import validate_physics


def signature(trajectory):
    """(toy_state, book_present, wipes_present) read off the decision steps."""
    toy_state, book, wipes = None, False, False
    for path in trajectory.paths:
        answers = {s.query: s.response for s in path.steps}
        if path.subtask_id == "toy" and answers.get("There is a toy on the floor?") == "YES":
            kind = answers.get("What is the type of the toy on the floor?")
            toy_state = "doll" if kind == "doll" else "car"
        elif path.subtask_id == "book":
            book = answers.get("There is a book on the floor?") == "YES"
        elif path.subtask_id == "stain":
            wipes = answers.get("There is a wet wipe on the table?") == "YES"
    return (toy_state, book, wipes)


@pytest.fixture(scope="module")
def env_rows(built_envs, selected_trajectories):
    _, selected = selected_trajectories
    by_id = {t.trajectory_id: t for t in selected}
    return [(env, by_id[env.trajectory_id]) for env in built_envs]


# ---------------------------------------------------------------------------
# policy parsing
# ---------------------------------------------------------------------------


def test_parse_policy_builds_the_node_tree():
    doc = {
        "label": "demo",
        "root": {
            "sequence": [
                {"condition": "toy_on_floor"},
                {"selector": [{"action": "noop"}, {"action": "noop"}]},
            ]
        },
    }
    policy = parse_policy(doc)
    assert policy.label == "demo"
    assert len(policy.root.children) == 2


@pytest.mark.parametrize(
    "bad",
    [
        {"root": {"sequence": []}},
        {"root": {"condition": ""}},
        {"root": {"teleport": "x"}},
        {"root": {"sequence": [{"action": "a"}], "extra": 1}},
        {"no_root": True},
        {"label": None, "root": {"action": "a"}},
    ],
)
def test_parse_policy_rejects_malformed_nodes(bad):
    with pytest.raises(SchemaViolation):
        parse_policy(bad)


def test_parse_action_model_rejects_missing_params():
    with pytest.raises(SchemaViolation):
        parse_action_model({"actions": {"jump": {"effects": []}}})


def wipe_model(*preconditions):
    return {"actions": {"wipe": {"params": ["target"], "preconditions": list(preconditions)}}}


def dirty(**changes):
    pre = {"kind": "attr", "entity": "$target", "attribute": "cleanliness", "op": "in"}
    return {**pre, "values": ["dirty"], **changes}


BAD_PRECONDITIONS = {
    "unknown_op": dirty(op="equals"),
    "no_values": {k: v for k, v in dirty().items() if k != "values"},
    "empty_values": dirty(values=[]),
    "unknown_kind": {"kind": "teleported", "entity": "$target"},
    "no_kind": {"entity": "$target"},
    "no_entity": {"kind": "holding"},
    "no_target": {"kind": "container_open", "entity": "$target"},
    "no_attribute": {k: v for k, v in dirty().items() if k != "attribute"},
    "unbound_parameter": {"kind": "agent_at", "entity": "$nope"},
    "unbound_target": {"kind": "container_open", "target": "$nope"},
}


@pytest.mark.parametrize("pre", BAD_PRECONDITIONS.values(), ids=BAD_PRECONDITIONS)
def test_parse_action_model_rejects_bad_preconditions(pre):
    with pytest.raises(SchemaViolation):
        parse_action_model(wipe_model(pre))


@pytest.mark.parametrize(
    "effect",
    [
        {"entity": "$nope", "attribute": "cleanliness", "value": "clean"},
        {"entity": "$target", "attribute": "cleanliness", "value": "$nope"},
    ],
    ids=["entity", "value"],
)
def test_parse_action_model_rejects_an_effect_on_no_parameter(effect):
    doc = {"actions": {"wipe": {"params": ["target"], "effects": [effect]}}}
    with pytest.raises(SchemaViolation, match=r"\$nope names no parameter"):
        parse_action_model(doc)


def test_attr_precondition_evaluates_its_condition():
    (pre,) = parse_action_model(wipe_model(dirty())).get("wipe").preconditions
    world = {("rug", "presence"): "present", ("rug", "cleanliness"): "clean"}
    assert not _precondition_holds(pre, world, {"target": "rug"})
    world[("rug", "cleanliness")] = "dirty"
    assert _precondition_holds(pre, world, {"target": "rug"})


# ---------------------------------------------------------------------------
# world setup
# ---------------------------------------------------------------------------


def test_initial_world_tracks_agent_and_metadata(env_rows, task_schema):
    env, _ = env_rows[0]
    world = initial_world(env, task_schema)
    assert world[("agent", "location")] == "start"
    assert world[("agent", "holding")] == "nothing"
    for key, value in env.metadata.items():
        assert world[key] == value


def test_missing_required_attribute_is_a_schema_mismatch(env_rows, task_schema):
    env, _ = env_rows[0]
    broken = copy.deepcopy(env)
    assert broken.metadata.pop(("toy", "toy_type"), None) is not None
    with pytest.raises(SchemaMismatch):
        initial_world(broken, task_schema)


def test_env_and_trajectory_must_agree(env_rows, task_schema, action_model, policies):
    env0, _ = env_rows[0]
    _, other = env_rows[1]
    with pytest.raises(SchemaMismatch):
        run_policy(policies["correct"], env0, other, task_schema, action_model)


# ---------------------------------------------------------------------------
# verdict matrix on the bundled environments
# ---------------------------------------------------------------------------

EXPECTED = {
    "correct": {
        ("doll", True, True): VERDICT_PASS,
        ("car", False, False): VERDICT_PASS,
        (None, True, True): VERDICT_PASS,
    },
    "counterfactual": {
        ("doll", True, True): VERDICT_PASS,
        ("car", False, False): VERDICT_CAUSAL,
        (None, True, True): VERDICT_PASS,
    },
    "unreachable": {
        ("doll", True, True): VERDICT_GOAL,
        ("car", False, False): VERDICT_PASS,
        (None, True, True): VERDICT_PASS,
    },
    "lackbranch": {
        ("doll", True, True): VERDICT_PASS,
        ("car", False, False): VERDICT_GOAL,
        (None, True, True): VERDICT_PASS,
    },
}


def test_verdict_matrix_matches_policy_defects(env_rows, task_schema, action_model, policies):
    for label, policy in policies.items():
        for env, trajectory in env_rows:
            outcome = run_policy(policy, env, trajectory, task_schema, action_model)
            expected = EXPECTED[label][signature(trajectory)]
            assert outcome.verdict == expected, (
                f"{label} on {signature(trajectory)}: expected {expected}, "
                f"got {outcome.verdict} ({outcome.detail})"
            )
            assert outcome.ticks > 0


def test_correct_policy_leaves_goals_satisfied(env_rows, task_schema, action_model, policies):
    from envcover.schema import goals_for_trajectory

    for env, trajectory in env_rows:
        outcome = run_policy(policies["correct"], env, trajectory, task_schema, action_model)
        assert outcome.verdict == VERDICT_PASS
        for goal in goals_for_trajectory(task_schema, trajectory):
            assert goal.entity  # goals exist for every selected trajectory


def test_counterfactual_failure_names_the_violated_precondition(
    env_rows, task_schema, action_model, policies
):
    car_row = next(r for r in env_rows if signature(r[1])[0] == "car")
    outcome = run_policy(policies["counterfactual"], *car_row, task_schema, action_model)
    assert outcome.verdict == VERDICT_CAUSAL
    assert outcome.detail


def test_tick_budget_exhaustion_is_an_executor_error(env_rows, task_schema, action_model, policies):
    env, trajectory = env_rows[0]
    outcome = run_policy(policies["correct"], env, trajectory, task_schema, action_model, budget=3)
    assert outcome.verdict == VERDICT_ERROR
    assert outcome.ticks == 3


def test_closed_container_blocks_placement(env_rows, task_schema, action_model, policies):
    doll_row = next(r for r in env_rows if signature(r[1])[0] == "doll")
    env, trajectory = doll_row
    closed = copy.deepcopy(env)
    closed.metadata[("red_box", "openable")] = "yes"
    closed.metadata[("red_box", "door_state")] = "closed"
    outcome = run_policy(policies["correct"], closed, trajectory, task_schema, action_model)
    assert outcome.verdict == VERDICT_CAUSAL

    opened = copy.deepcopy(env)
    opened.metadata[("red_box", "openable")] = "yes"
    opened.metadata[("red_box", "door_state")] = "open"
    outcome = run_policy(policies["correct"], opened, trajectory, task_schema, action_model)
    assert outcome.verdict == VERDICT_PASS


def test_unknown_action_verb_is_an_executor_error(env_rows, task_schema, action_model):
    env, trajectory = env_rows[0]
    policy = parse_policy({"label": "x", "root": {"action": "levitate toy"}})
    outcome = run_policy(policy, env, trajectory, task_schema, action_model)
    assert outcome.verdict == VERDICT_ERROR


def test_wrong_arity_is_an_executor_error(env_rows, task_schema, action_model):
    env, trajectory = env_rows[0]
    policy = parse_policy({"label": "x", "root": {"action": "goto"}})
    outcome = run_policy(policy, env, trajectory, task_schema, action_model)
    assert outcome.verdict == VERDICT_ERROR


def test_unknown_condition_predicate_is_an_executor_error(env_rows, task_schema, action_model):
    env, trajectory = env_rows[0]
    policy = parse_policy({"label": "x", "root": {"condition": "gravity_reversed"}})
    outcome = run_policy(policy, env, trajectory, task_schema, action_model)
    assert outcome.verdict == VERDICT_ERROR


# ---------------------------------------------------------------------------
# scenario validity and detection
# ---------------------------------------------------------------------------


def test_bundled_scenarios_are_valid(built_envs, task_schema):
    for env in built_envs:
        report = validate_physics(env)
        reasons = scenario_validity(env, task_schema, report)
        assert not reasons, reasons


def test_missing_required_entity_invalidates_the_scenario(built_envs, task_schema):
    env = copy.deepcopy(built_envs[0])
    env.objects = [o for o in env.objects if o.id != "stain"]
    env.placements = [p for p in env.placements if p.object != "stain"]
    env.metadata = {k: v for k, v in env.metadata.items() if k[0] != "stain"}
    report = validate_physics(env)
    reasons = scenario_validity(env, task_schema, report)
    assert any("stain" in r for r in reasons)
    assert any("task-related" in r for r in reasons)


def test_failing_physics_invalidates_the_scenario(built_envs, task_schema):
    from envcover.environment import Placement

    env = copy.deepcopy(built_envs[0])
    victim = env.placements[0]
    env.placements[0] = Placement(
        object=victim.object,
        position=(victim.position[0], victim.position[1] + 0.5, victim.position[2]),
        direction=victim.direction,
    )
    report = validate_physics(env)
    assert scenario_validity(env, task_schema, report)


def test_detected_flags_each_faulty_policy_and_not_the_correct_one(
    env_rows, task_schema, action_model, policies
):
    # these flags are what stage_simulate hands to share as the detection rate
    flags = {
        label: detected(
            [run_policy(policies[label], env, t, task_schema, action_model) for env, t in env_rows]
        )
        for label in ("correct", "counterfactual", "unreachable", "lackbranch")
    }
    assert flags == {"correct": False, "counterfactual": True, "unreachable": True, "lackbranch": True}
