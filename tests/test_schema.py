import pytest

from envcover.errors import SchemaMismatch, SchemaViolation
from envcover.schema import (
    Condition,
    GoalSpec,
    goals_for_trajectory,
    load_schema,
    parse_schema,
    trajectory_conditions,
    unmet_conditions,
)

PRESENT = ("toy", "presence")


def md(**pairs):
    """Metadata dict from attribute=value pairs for the toy entity."""
    out = {PRESENT: "present"}
    for attr, value in pairs.items():
        out[("toy", attr)] = value
    return out


# ---------------------------------------------------------------------------
# condition operators
# ---------------------------------------------------------------------------


def test_in_requires_presence_and_listed_value():
    cond = Condition(op="in", values=("floor",))
    assert cond.evaluate(md(location="floor"), "toy", "location")
    assert not cond.evaluate(md(location="shelf"), "toy", "location")
    assert not cond.evaluate({}, "toy", "location")  # absent entity


def test_not_in_holds_for_absent_entity():
    cond = Condition(op="not_in", values=("floor",))
    assert cond.evaluate({}, "toy", "location")
    assert cond.evaluate(md(location="shelf"), "toy", "location")
    assert not cond.evaluate(md(location="floor"), "toy", "location")


def test_not_in_holds_when_attribute_missing():
    cond = Condition(op="not_in", values=("floor",))
    assert cond.evaluate(md(), "toy", "location")


def test_present_not_in_needs_presence():
    cond = Condition(op="present_not_in", values=("doll",))
    assert not cond.evaluate({}, "toy", "toy_type")
    assert cond.evaluate(md(toy_type="car"), "toy", "toy_type")
    assert not cond.evaluate(md(toy_type="doll"), "toy", "toy_type")
    # attribute missing but entity present still counts as "some other value"
    assert cond.evaluate(md(), "toy", "toy_type")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def minimal_doc():
    return {
        "schema_version": 1,
        "task_id": "t",
        "agent_start": "start",
        "queries": {
            "Is it red?": {
                "entity": "thing",
                "attribute": "color",
                "responses": {"YES": {"op": "in", "values": ["red"]}},
            }
        },
        "leaf_goals": {"Do nothing.": []},
        "predicates": {},
        "tracked_entities": ["thing"],
        "required_entities": [],
        "required_attributes": {},
    }


def test_parse_minimal_document():
    schema = parse_schema(minimal_doc())
    assert schema.task_id == "t"
    binding = schema.binding_for("is it RED")
    assert binding.entity == "thing"
    cond = binding.condition_for("yes")
    assert cond.op == "in" and cond.values == ("red",)


def test_parse_rejects_unknown_operator():
    doc = minimal_doc()
    doc["queries"]["Is it red?"]["responses"]["YES"]["op"] = "equals"
    with pytest.raises(SchemaViolation):
        parse_schema(doc)


@pytest.mark.parametrize(
    "condition",
    [{"op": "equals", "values": ["red"]}, {"op": "in", "values": "red"}, {"op": "in"}],
    ids=["unknown_op", "values_not_a_list", "no_values"],
)
def test_parse_rejects_a_bad_predicate_condition(condition):
    doc = minimal_doc()
    doc["predicates"] = {"is_red": {"entity": "thing", "attribute": "color", **condition}}
    with pytest.raises(SchemaViolation):
        parse_schema(doc)


def test_parse_rejects_missing_task_id():
    doc = minimal_doc()
    del doc["task_id"]
    with pytest.raises(SchemaViolation):
        parse_schema(doc)


def test_parse_rejects_non_dict_query_binding():
    doc = minimal_doc()
    doc["queries"]["Is it red?"] = "nope"
    with pytest.raises(SchemaViolation):
        parse_schema(doc)


def test_unbound_query_raises_mismatch():
    schema = parse_schema(minimal_doc())
    with pytest.raises(SchemaMismatch):
        schema.binding_for("is it blue")


def test_unbound_response_raises_mismatch():
    schema = parse_schema(minimal_doc())
    with pytest.raises(SchemaMismatch):
        schema.binding_for("is it red").condition_for("maybe")


def test_unbound_leaf_raises_mismatch():
    schema = parse_schema(minimal_doc())
    assert schema.goals_for_leaf("do NOTHING") == ()
    with pytest.raises(SchemaMismatch):
        schema.goals_for_leaf("paint it blue")


def test_load_schema_rejects_bad_json(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{not json")
    with pytest.raises(SchemaViolation):
        load_schema(str(path))


# ---------------------------------------------------------------------------
# fixture bindings
# ---------------------------------------------------------------------------


def test_fixture_schema_binds_every_tree_query(task_schema, derived):
    from envcover.task_model import Leaf, Query

    def visit(node):
        if isinstance(node, Leaf):
            task_schema.goals_for_leaf(node.action)
            return
        assert isinstance(node, Query)
        for response, child in node.branches:
            task_schema.binding_for(node.text).condition_for(response)
            visit(child)

    for tree in derived.trees:
        visit(tree.root)


def test_trajectory_conditions_cover_every_step(task_schema, selected_trajectories):
    _, selected = selected_trajectories
    for trajectory in selected:
        conds = trajectory_conditions(task_schema, trajectory)
        steps = sum(len(p.steps) for p in trajectory.paths)
        assert len(conds) == steps


def test_unmet_conditions_names_the_missing_entity(task_schema, selected_trajectories):
    universe, _ = selected_trajectories
    doll_row = universe[0]  # toy yes + doll, book yes, wipe yes
    metadata = {
        ("book", "presence"): "present",
        ("book", "location"): "floor",
        ("wet_wipes", "presence"): "present",
        ("wet_wipes", "location"): "table_top",
    }
    missing = unmet_conditions(task_schema, doll_row, metadata)
    assert missing
    assert any("toy" in reason for reason in missing)


def test_unmet_conditions_empty_when_metadata_matches(task_schema, selected_trajectories):
    universe, _ = selected_trajectories
    doll_row = universe[0]
    metadata = {
        ("toy", "presence"): "present",
        ("toy", "location"): "floor",
        ("toy", "toy_type"): "doll",
        ("book", "presence"): "present",
        ("book", "location"): "floor",
        ("wet_wipes", "presence"): "present",
        ("wet_wipes", "location"): "table_top",
    }
    assert unmet_conditions(task_schema, doll_row, metadata) == []


def test_goals_for_trajectory_orders_and_dedupes(task_schema, selected_trajectories):
    universe, _ = selected_trajectories
    doll_row = universe[0]
    goals = goals_for_trajectory(task_schema, doll_row)
    assert goals == (
        GoalSpec(entity="toy", attribute="location", value="red_box_in"),
        GoalSpec(entity="book", attribute="location", value="sofa_top"),
        GoalSpec(entity="stain", attribute="cleanliness", value="clean"),
    )
