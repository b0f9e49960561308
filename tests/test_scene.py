import copy

import pytest

from envcover.environment import ObjectSpec, SpatialRelation
from envcover.errors import SchemaViolation, TrajectoryMismatch, UnsatisfiableScene
from envcover.providers import SceneProvider
from envcover.scene import (
    build_environment,
    compatibility_conflicts,
    parse_floor_plan,
    parse_relations,
    resolve_objects,
)


class ScriptedChannel:
    """Returns canned responses per request kind; replays the last one forever."""

    def __init__(self, responses):
        self.responses = {k: list(v) for k, v in responses.items()}
        self.calls = []

    def send(self, kind, body):
        self.calls.append((kind, body))
        queue = self.responses.get(kind)
        assert queue, f"unscripted request kind {kind!r}"
        return queue.pop(0) if len(queue) > 1 else queue[0]


def recorded_response(records, kind, trajectory_id):
    for r in records:
        if (
            r["request_kind"] == kind
            and r["request_body"].get("trajectory_id") == trajectory_id
        ):
            return copy.deepcopy(r["response_body"])
    raise KeyError(f"no {kind} record for {trajectory_id}")


FLOOR_PLAN_DOC = {
    "rooms": [
        {
            "id": "living_room",
            "x_min": 0.0,
            "z_min": 0.0,
            "x_max": 6.0,
            "z_max": 5.0,
            "floor_color": "oak",
            "floor_material": "wood",
            "wall_color": "white",
            "wall_material": "plaster",
        }
    ],
    "doorways": [
        {"id": "front_door", "connects": ["living_room", "exterior"], "width": 0.9, "height": 2.1}
    ],
    "windows": [
        {
            "id": "north_window",
            "room": "living_room",
            "orientation": "north",
            "width": 1.2,
            "height": 1.0,
            "sill_height": 0.9,
        }
    ],
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_floor_plan_reads_rooms_doors_windows():
    rooms, doors, windows = parse_floor_plan(FLOOR_PLAN_DOC)
    assert len(rooms) == 1 and rooms[0].id == "living_room"
    assert rooms[0].floor_material == "wood" and rooms[0].wall_color == "white"
    assert rooms[0].x_max == 6.0 and rooms[0].z_max == 5.0
    assert doors[0].connects == ("living_room", "exterior")
    assert windows[0].sill_height == 0.9


def test_parse_floor_plan_requires_room_bounds():
    doc = {"rooms": [{"id": "r", "x_min": 0, "z_min": 0, "x_max": 4}]}
    with pytest.raises(SchemaViolation):
        parse_floor_plan(doc)


def test_parse_floor_plan_rejects_a_room_named_exterior():
    # the reserved name of a doorway's outside side: a doorway to such a
    # room would be encoded as a door to the outside
    doc = copy.deepcopy(FLOOR_PLAN_DOC)
    doc["rooms"].append({"id": "exterior", "x_min": 6.0, "z_min": 0.0, "x_max": 9.0, "z_max": 5.0})
    with pytest.raises(SchemaViolation, match=r"^rooms\[1\]: .*room id 'exterior' is reserved") as info:
        parse_floor_plan(doc)
    assert info.value.field == "rooms[1]"


@pytest.mark.parametrize(
    "bounds",
    [{"x_min": 6.0, "x_max": 0.0}, {"z_min": 5.0, "z_max": 0.0}, {"x_max": 0.0}],
    ids=["x_swapped", "z_swapped", "zero_width"],
)
def test_parse_floor_plan_rejects_rooms_without_area(bounds):
    # the bounds are read as they are sent, never reordered
    doc = copy.deepcopy(FLOOR_PLAN_DOC)
    doc["rooms"][0].update(bounds)
    with pytest.raises(SchemaViolation, match=r"^rooms\[0\]: .*room must have positive area"):
        parse_floor_plan(doc)


@pytest.mark.parametrize(
    "part, change, message",
    [
        ("doorways", {"width": -0.9}, "positive width"),
        ("doorways", {"connects": ["living_room", "living_room"]}, "two distinct sides"),
        ("windows", {"orientation": "up"}, "orientation must be one of"),
        ("windows", {"sill_height": -0.5}, "sill_height cannot be negative"),
    ],
    ids=["door_width", "door_to_itself", "window_facing_up", "sill_below_floor"],
)
def test_parse_floor_plan_names_the_opening_a_field_defect_is_in(part, change, message):
    # each is rejected with its path in the response before anything is solved
    doc = copy.deepcopy(FLOOR_PLAN_DOC)
    doc[part][0].update(change)
    with pytest.raises(SchemaViolation, match=rf"^{part}\[0\]: .*{message}"):
        parse_floor_plan(doc)


def test_parse_floor_plan_rejects_empty_plan():
    with pytest.raises(SchemaViolation):
        parse_floor_plan({"rooms": []})


def test_resolve_objects_pulls_sizes_from_the_catalog(catalog):
    raw = [
        {
            "id": "sofa",
            "description": "a brown fabric two seater sofa",
            "room": "living_room",
            "category": "task_related",
        },
        {
            "id": "toy",
            "description": "a small plush doll toy",
            "room": "living_room",
            "category": "task_related",
            "attributes": {"toy_type": "doll"},
        },
    ]
    objects = resolve_objects(raw, catalog)
    assert [o.id for o in objects] == ["sofa", "toy"]
    assert objects[0].size == pytest.approx((2.0, 0.8, 0.9))
    assert objects[1].attributes == {"toy_type": "doll"}


@pytest.mark.parametrize("height", ["high", "nan", "inf", ""])
def test_resolve_objects_rejects_a_mount_height_that_is_no_finite_number(catalog, height):
    raw = [
        {
            "id": "picture",
            "description": "a framed wall picture",
            "room": "living_room",
            "category": "enrichment",
            "attributes": {"mount_height": height},
        }
    ]
    with pytest.raises(SchemaViolation, match=r"^\[0\]: .*mount_height"):
        resolve_objects(raw, catalog)


def test_resolve_objects_names_the_object_of_an_unknown_category(catalog):
    raw = [
        {
            "id": "sofa",
            "description": "a brown fabric two seater sofa",
            "room": "living_room",
            "category": "task_related",
        },
        {
            "id": "picture",
            "description": "a framed wall picture",
            "room": "living_room",
            "category": "decor",
        },
    ]
    with pytest.raises(SchemaViolation, match=r"^\[1\]: malformed object list: unknown category 'decor'"):
        resolve_objects(raw, catalog)


def test_parse_relations_inherits_priority_from_subject_category():
    objects = [
        ObjectSpec(id="sofa", description="", room="r", size=(2, 0.8, 0.9), category="task_related"),
        ObjectSpec(id="plant", description="", room="r", size=(0.4, 1.1, 0.4), category="enrichment"),
    ]
    rels = parse_relations(
        [
            {"kind": "edge", "subject": "sofa"},
            {"kind": "near", "subject": "plant", "reference": "sofa"},
            {"kind": "far", "subject": "sofa", "reference": "plant", "priority": "enrichment"},
        ],
        objects,
    )
    assert rels[0].priority == "task"  # subject is task_related
    assert rels[1].priority == "enrichment"
    assert rels[2].priority == "enrichment"  # explicit priority wins


def test_parse_relations_rejects_unknown_kind():
    with pytest.raises(SchemaViolation):
        parse_relations([{"kind": "levitates_above", "subject": "x"}], [])


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"kind": "near", "subject": "a"}, "needs a reference"),
        ({"kind": "on_top_of", "subject": "a"}, "needs a reference"),
        ({"kind": "edge", "subject": "a", "reference": "b"}, "takes no reference"),
        ({"kind": "near", "subject": "a", "reference": "a"}, "its own subject"),
        ({"kind": "near", "subject": "a", "reference": "b", "priority": "urgent"}, "priority"),
    ],
)
def test_parse_relations_rejects_what_the_solver_cannot_scope(raw, message):
    objects = [
        ObjectSpec(id=i, description="", room="r", size=(1, 1, 1), category="enrichment")
        for i in ("a", "b")
    ]
    with pytest.raises(SchemaViolation, match=rf"^\[0\]: malformed relation list: .*{message}"):
        parse_relations([raw], objects)


# ---------------------------------------------------------------------------
# compatibility rules
# ---------------------------------------------------------------------------


def mk(id, size=(0.5, 0.5, 0.5), category="enrichment", **attributes):
    return ObjectSpec(
        id=id, description="", room="r", size=size, category=category, attributes=attributes
    )


def rules_of(conflicts):
    return sorted(c["rule"] for c in conflicts)


def test_clean_relation_set_has_no_conflicts():
    objects = [mk("table", (1.2, 0.5, 0.8)), mk("cup", (0.1, 0.1, 0.1))]
    rels = [SpatialRelation(kind="on_top_of", subject="cup", reference="table")]
    assert compatibility_conflicts(objects, rels) == []


def test_unknown_entity_conflict():
    conflicts = compatibility_conflicts(
        [mk("a")], [SpatialRelation(kind="near", subject="a", reference="ghost")]
    )
    assert rules_of(conflicts) == ["unknown_entity"]


def test_exclusive_support_conflict():
    objects = [mk("pen", (0.1, 0.02, 0.1)), mk("desk", (1.0, 0.7, 0.6)), mk("box", (0.3, 0.2, 0.3))]
    rels = [
        SpatialRelation(kind="on_top_of", subject="pen", reference="desk"),
        SpatialRelation(kind="in", subject="pen", reference="box"),
    ]
    conflicts = compatibility_conflicts(objects, rels)
    assert rules_of(conflicts) == ["exclusive_support"]
    assert conflicts[0]["relations"] == [0, 1]


def test_support_cycle_conflict():
    objects = [mk("a"), mk("b")]
    rels = [
        SpatialRelation(kind="on_top_of", subject="a", reference="b"),
        SpatialRelation(kind="on_top_of", subject="b", reference="a"),
    ]
    assert "support_cycle" in rules_of(compatibility_conflicts(objects, rels))


def test_containment_capacity_conflict():
    objects = [mk("elephant", (2.0, 2.0, 2.0)), mk("box", (0.3, 0.2, 0.3))]
    rels = [SpatialRelation(kind="in", subject="elephant", reference="box")]
    assert rules_of(compatibility_conflicts(objects, rels)) == ["containment_capacity"]


def test_containment_allows_rotated_fit():
    # fits only after a quarter turn
    objects = [mk("tray", (0.2, 0.05, 0.45)), mk("crate", (0.5, 0.3, 0.25))]
    rels = [SpatialRelation(kind="in", subject="tray", reference="crate")]
    assert compatibility_conflicts(objects, rels) == []


def test_mountability_conflict():
    objects = [mk("banner", (0.5, 2.0, 0.05))]
    rels = [SpatialRelation(kind="mounted_on_wall", subject="banner")]
    # default mount height 1.4 + 2.0 tall > 3.0 wall
    assert rules_of(compatibility_conflicts(objects, rels)) == ["mountability"]


def test_mount_height_attribute_can_fix_mountability():
    objects = [mk("banner", (0.5, 2.0, 0.05), mount_height="0.5")]
    rels = [SpatialRelation(kind="mounted_on_wall", subject="banner")]
    assert compatibility_conflicts(objects, rels) == []


def test_room_consistency_conflict():
    a = mk("a")
    b = ObjectSpec(id="b", description="", room="other", size=(0.5, 0.5, 0.5), category="enrichment")
    rels = [SpatialRelation(kind="in_front_of", subject="a", reference="b")]
    assert rules_of(compatibility_conflicts([a, b], rels)) == ["room_consistency"]


# ---------------------------------------------------------------------------
# build loop
# ---------------------------------------------------------------------------


@pytest.fixture()
def doll_setup(cassette_records, selected_trajectories):
    _, selected = selected_trajectories
    trajectory = selected[0]
    assert "doll" in trajectory.trajectory_id
    tid = trajectory.trajectory_id
    return {
        "trajectory": trajectory,
        "floor_plan": recorded_response(cassette_records, "design_floor_plan", tid),
        "objects": recorded_response(cassette_records, "select_objects", tid),
        "relations": recorded_response(cassette_records, "propose_relations", tid),
    }


def build_with(responses, setup, catalog, schema, **kwargs):
    channel = ScriptedChannel(responses)
    outcome = build_environment(
        SceneProvider(channel),
        catalog,
        schema,
        setup["trajectory"],
        "env-test",
        **kwargs,
    )
    return outcome, channel


def test_build_happy_path_yields_a_valid_environment(doll_setup, catalog, task_schema):
    from envcover.validator import validate_physics

    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [doll_setup["objects"]],
        "propose_relations": [doll_setup["relations"]],
    }
    outcome, channel = build_with(responses, doll_setup, catalog, task_schema)
    env = outcome.environment
    assert outcome.revision_rounds == 0
    assert env.trajectory_id == doll_setup["trajectory"].trajectory_id
    assert validate_physics(env).ok
    assert env.metadata[("toy", "location")] == "floor"
    assert env.metadata[("toy", "toy_type")] == "doll"
    assert env.metadata[("wet_wipes", "location")] == "table_top"
    assert [kind for kind, _ in channel.calls] == [
        "design_floor_plan",
        "select_objects",
        "propose_relations",
    ]


def test_conflicted_relations_are_revised_once(doll_setup, catalog, task_schema):
    conflicted = doll_setup["relations"] + [
        {"kind": "in", "subject": "wet_wipes", "reference": "red_box"}
    ]
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [doll_setup["objects"]],
        "propose_relations": [conflicted],
        "revise_relations": [doll_setup["relations"]],
    }
    outcome, channel = build_with(responses, doll_setup, catalog, task_schema)
    assert outcome.revision_rounds == 1
    revise_calls = [body for kind, body in channel.calls if kind == "revise_relations"]
    assert len(revise_calls) == 1
    # the request names the violated rule so the provider can react
    assert any(c["rule"] == "exclusive_support" for c in revise_calls[0]["conflicts"])


def above_the_wall_draft(setup, draft):
    """The doll scene's objects and relations with one object above the
    wall top: the 0.45 m picture mounted at 2.6 m, or a 1.5 m lamp on a
    1.8 m bookshelf; and the object that reaches too high."""
    objects = copy.deepcopy(setup["objects"])
    relations = copy.deepcopy(setup["relations"])
    if draft == "mounted":
        next(o for o in objects if o["id"] == "picture")["attributes"] = {"mount_height": "2.6"}
        assert {"kind": "mounted_on_wall", "subject": "picture"} in relations
        return objects, relations, "picture"
    for oid, description in (("shelf", "a narrow wooden bookshelf"), ("lamp", "a tall floor lamp")):
        objects.append(
            {"id": oid, "description": description, "room": "living_room", "category": "enrichment"}
        )
    relations.append({"kind": "on_top_of", "subject": "lamp", "reference": "shelf"})
    return objects, relations, "lamp"


@pytest.mark.parametrize("draft", ["mounted", "stacked"])
def test_an_object_above_the_wall_top_is_revised_once(doll_setup, catalog, task_schema, draft):
    objects, relations, high = above_the_wall_draft(doll_setup, draft)
    # the revision drops the high object's support, so it stands on the floor
    revised = [r for r in relations if r.get("subject") != high]
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [objects],
        "propose_relations": [relations],
        "revise_relations": [revised],
    }
    outcome, channel = build_with(responses, doll_setup, catalog, task_schema)
    assert outcome.revision_rounds == 1
    revise_calls = [body for kind, body in channel.calls if kind == "revise_relations"]
    assert len(revise_calls) == 1
    assert [(c["rule"], c["relations"]) for c in revise_calls[0]["conflicts"]] == [
        ("mountability", [relations.index(next(r for r in relations if r["subject"] == high))])
    ]
    assert outcome.environment.metadata[(high, "location")] == "floor"


def test_unresolvable_conflicts_raise_after_the_revision_budget(doll_setup, catalog, task_schema):
    conflicted = doll_setup["relations"] + [
        {"kind": "in", "subject": "wet_wipes", "reference": "red_box"}
    ]
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [doll_setup["objects"]],
        "propose_relations": [conflicted],
        "revise_relations": [conflicted],  # provider never fixes it
    }
    with pytest.raises(UnsatisfiableScene):
        build_with(responses, doll_setup, catalog, task_schema)


def test_missing_task_entity_is_a_trajectory_mismatch(doll_setup, catalog, task_schema):
    objects = [o for o in doll_setup["objects"] if o["id"] != "toy"]
    relations = [r for r in doll_setup["relations"] if "toy" not in (r.get("subject"), r.get("reference"))]
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [objects],
        "propose_relations": [relations],
    }
    with pytest.raises(TrajectoryMismatch):
        build_with(responses, doll_setup, catalog, task_schema)


def test_contradictory_enrichment_is_relaxed_not_fatal(doll_setup, catalog, task_schema):
    from envcover.solver import SolverConfig

    relations = doll_setup["relations"] + [
        {"kind": "far", "subject": "red_box", "reference": "sofa", "priority": "enrichment"}
    ]
    near_idx = next(
        i for i, r in enumerate(relations) if r["kind"] == "near" and r["subject"] == "red_box"
    )
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [doll_setup["objects"]],
        "propose_relations": [relations],
    }
    # a coarse grid keeps the intermediate unsat proofs cheap
    outcome, _ = build_with(
        responses, doll_setup, catalog, task_schema,
        config=SolverConfig(grid_resolution=0.25, seed=0),
    )
    env = outcome.environment
    assert env.relaxed_relations == [near_idx]
    kept_task = [r for i, r in enumerate(env.relations) if r.priority == "task" and i in env.relaxed_relations]
    assert kept_task == []


def test_build_keeps_tracked_entities_sorted(doll_setup, catalog, task_schema):
    responses = {
        "design_floor_plan": [doll_setup["floor_plan"]],
        "select_objects": [doll_setup["objects"]],
        "propose_relations": [doll_setup["relations"]],
    }
    outcome, _ = build_with(responses, doll_setup, catalog, task_schema)
    assert outcome.environment.tracked_entities == sorted(task_schema.tracked_entities)
