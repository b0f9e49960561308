import ast
import json
import math
import random
from pathlib import Path

import pytest

import envcover
from envcover.environment import (
    Doorway,
    EnvironmentSpec,
    ObjectSpec,
    Placement,
    SpatialRelation,
    Window,
    deserialize_environment,
    make_room,
    rebuild_metadata,
    serialize_environment,
)
from envcover.semantics import MOUNT_EPS, SUPPORT_EPS
from envcover.validator import (
    check_entities,
    check_floor_plan,
    check_relations,
    validate_physics,
)


def obj(id, size, room="r", category="enrichment", **attributes):
    return ObjectSpec(
        id=id,
        description=f"a {id}",
        room=room,
        size=size,
        category=category,
        attributes=attributes,
    )


def base_env(**overrides):
    """A small hand-placed scene that passes every check."""
    fields = dict(
        id="e",
        task_id="t",
        trajectory_id="traj",
        rooms=[make_room("r", 0, 0, 4, 4)],
        objects=[
            obj("sofa", (2.0, 0.8, 0.9)),
            obj("book", (0.25, 0.04, 0.18)),
            obj("plant", (0.4, 1.1, 0.4)),
        ],
        placements=[
            Placement(object="sofa", position=(2.0, 0.0, 1.0), direction="north"),
            Placement(object="book", position=(2.0, 0.8, 1.0), direction="north"),
            Placement(object="plant", position=(3.5, 0.0, 3.5), direction="north"),
        ],
        relations=[SpatialRelation(kind="on_top_of", subject="book", reference="sofa")],
    )
    fields.update(overrides)
    return EnvironmentSpec(**fields)


def passes(report, rule):
    """A dimension passes when none of the report's failures carries its rule."""
    return all(f.rule != rule for f in report.failures)


def dims(report):
    return tuple(passes(report, rule) for rule in ("floor_plan", "entity", "relation"))


# ---------------------------------------------------------------------------
# the clean scene
# ---------------------------------------------------------------------------


def test_clean_scene_passes_every_dimension():
    report = validate_physics(base_env())
    assert report.ok
    assert dims(report) == (True, True, True)
    assert report.failures == []


# ---------------------------------------------------------------------------
# floor plan dimension
# ---------------------------------------------------------------------------


def test_overlapping_rooms_flip_only_the_floor_plan_dimension():
    env = base_env(rooms=[make_room("r", 0, 0, 4, 4), make_room("r2", 3, 3, 6, 6)])
    report = validate_physics(env)
    assert dims(report) == (False, True, True)
    assert any(v.rule == "floor_plan" for v in report.failures)


def test_touching_rooms_do_not_overlap():
    env = base_env(rooms=[make_room("r", 0, 0, 4, 4), make_room("r2", 4, 0, 8, 4)])
    assert passes(validate_physics(env), "floor_plan")


def test_unplaced_doorway_fails_the_floor_plan():
    door = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1, position=None)
    env = base_env(doorways=[door])
    report = validate_physics(env)
    assert dims(report) == (False, True, True)


def test_interior_doorway_off_the_shared_wall_fails():
    rooms = [make_room("r", 0, 0, 4, 4), make_room("r2", 4, 0, 8, 4)]
    bad = Doorway(id="d", connects=("r", "r2"), width=0.9, height=2.1, position=(2.0, 2.0))
    env = base_env(rooms=rooms, doorways=[bad])
    assert not passes(validate_physics(env), "floor_plan")

    good = Doorway(id="d", connects=("r", "r2"), width=0.9, height=2.1, position=(4.0, 2.0))
    env = base_env(rooms=rooms, doorways=[good])
    assert passes(validate_physics(env), "floor_plan")


def test_exterior_doorway_moved_onto_a_shared_wall_flips_only_the_floor_plan():
    rooms = [make_room("r", 0, 0, 4, 4), make_room("r2", 0, 4, 4, 8)]
    door = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1, position=(2.0, 0.0))
    assert validate_physics(base_env(rooms=rooms, doorways=[door])).ok

    moved = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1, position=(2.0, 4.0))
    report = validate_physics(base_env(rooms=rooms, doorways=[moved]))
    assert dims(report) == (False, True, True)
    assert [v.message for v in report.failures] == ["exterior doorway opens onto another room"]

    # beside a wall that is only partly shared, a span that touches its end is legal
    rooms[1] = make_room("r2", 0, 4, 2, 8)
    beside = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1, position=(2.45, 4.0))
    assert validate_physics(base_env(rooms=rooms, doorways=[beside])).ok


TOL = 1e-9


def around(v):
    """v, v +- TOL and the floats one ulp either side of v."""
    return [v, v + TOL, v - TOL, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]


def sits_in(position, half, wall):
    """The oracle: an opening centred at position lies on the wall's line and
    within its span, each up to TOL."""
    axis, coord, lo, hi = wall
    x, z = position
    across, along = (x, z) if axis == "x" else (z, x)
    return abs(across - coord) <= TOL and lo - TOL <= along - half and along + half <= hi + TOL


def opens_onto(position, half, wall):
    """The oracle: an opening centred at position lies on the wall's line and
    overlaps its span by more than TOL."""
    axis, coord, lo, hi = wall
    x, z = position
    across, along = (x, z) if axis == "x" else (z, x)
    return abs(across - coord) <= TOL and min(along + half, hi) - max(along - half, lo) > TOL


def probes(half, walls, forbidden):
    """Centres at both ends of each wall's span for the opening, and where its
    span starts or stops touching each forbidden wall, each on the wall's line
    and off it by TOL and by one ulp."""
    for axis, coord, lo, hi in walls + forbidden:
        ends = [lo + half, hi - half] if (axis, coord, lo, hi) in walls else [lo - half, hi + half]
        for along in (a for end in ends for a in around(end)):
            for across in around(coord):
                yield (across, along) if axis == "x" else (along, across)


WALL_CASES = {
    # name: (rooms, connects or window side, walls it may sit in, walls it must not open onto)
    "interior_x_adjacent": (
        [make_room("a", 0, 0, 4, 4), make_room("b", 4, 1, 8, 3)], ("a", "b"), [("x", 4, 1, 3)], []
    ),
    "interior_z_adjacent": (
        [make_room("a", 0, 0, 4, 4), make_room("b", 1, 4, 3, 7)], ("b", "a"), [("z", 4, 1, 3)], []
    ),
    "exterior": (
        [make_room("a", 0, 0, 4, 3), make_room("b", 0, -3, 2, 0)],
        ("a", "exterior"),
        [("z", 3, 0, 4), ("z", 0, 0, 4), ("x", 4, 0, 3), ("x", 0, 0, 3)],
        [("z", 0, 0, 2)],
    ),
    **{
        f"window_{side}": ([make_room("a", 1, 2, 5, 5)], side, [wall], [])
        for side, wall in [
            ("north", ("z", 5, 1, 5)),
            ("south", ("z", 2, 1, 5)),
            ("east", ("x", 5, 2, 5)),
            ("west", ("x", 1, 2, 5)),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(WALL_CASES))
def test_openings_at_the_ends_of_their_walls(name):
    rooms, where, walls, forbidden = WALL_CASES[name]
    width = 0.9 if name.startswith(("interior", "exterior")) else 1.2
    inside = outside = 0
    for position in probes(width / 2, walls, forbidden):
        on_a_wall = any(sits_in(position, width / 2, w) for w in walls)
        if name.startswith("window"):
            win = Window(
                id="o", room="a", orientation=where, width=width, height=1.0,
                sill_height=0.9, position=position,
            )
            env = base_env(rooms=rooms, windows=[win])
            expected = [] if on_a_wall else ["window is not within its wall span"]
        else:
            door = Doorway(id="o", connects=where, width=width, height=2.1, position=position)
            env = base_env(rooms=rooms, doorways=[door])
            if name == "exterior":
                expected = [] if on_a_wall else ["exterior doorway is not on a wall of its room"]
                if any(opens_onto(position, width / 2, w) for w in forbidden):
                    expected.append("exterior doorway opens onto another room")
            else:
                expected = [] if on_a_wall else ["doorway is not on the shared wall of its rooms"]
        assert [v.message for v in check_floor_plan(env)] == expected, position
        inside += on_a_wall
        outside += not on_a_wall
    assert inside and outside


def test_window_sill_on_the_floor_fails():
    win = Window(
        id="w", room="r", orientation="north", width=1.2, height=1.0,
        sill_height=0.0, position=(2.0, 4.0),
    )
    report = validate_physics(base_env(windows=[win]))
    assert dims(report) == (False, True, True)


def test_window_through_the_wall_top_fails():
    win = Window(
        id="w", room="r", orientation="north", width=1.2, height=1.0,
        sill_height=2.5, position=(2.0, 4.0),
    )
    assert not passes(validate_physics(base_env(windows=[win])), "floor_plan")


def test_reasonable_window_passes():
    win = Window(
        id="w", room="r", orientation="north", width=1.2, height=1.0,
        sill_height=0.9, position=(2.0, 4.0),
    )
    assert validate_physics(base_env(windows=[win])).ok


@pytest.mark.parametrize(
    "opening, field, value, message",
    [
        ("doorways", "height", 3.2, "doorway taller than the wall"),
        ("windows", "position", None, "window has no position"),
    ],
    ids=["doorway_taller_than_the_wall", "window_without_position"],
)
def test_an_edited_opening_in_a_scene_file_flips_only_the_floor_plan(
    opening, field, value, message, tmp_path
):
    # the solver never writes either opening, so only an edited file holds one
    door = Doorway(id="d", connects=("r", "exterior"), width=0.9, height=2.1, position=(2.0, 0.0))
    win = Window(
        id="w", room="r", orientation="north", width=1.2, height=1.0,
        sill_height=0.9, position=(2.0, 4.0),
    )
    scene = tmp_path / "env-000.json"
    scene.write_text(serialize_environment(base_env(doorways=[door], windows=[win])))
    doc = json.loads(scene.read_text())
    doc["floor_plan"][opening][0][field] = value
    scene.write_text(json.dumps(doc))
    report = validate_physics(deserialize_environment(scene.read_text()))
    assert dims(report) == (False, True, True)
    assert [f.message for f in report.failures] == [message]


# ---------------------------------------------------------------------------
# entity dimension
# ---------------------------------------------------------------------------


def test_floating_object_flips_only_the_entity_dimension():
    env = base_env()
    env.placements[2] = Placement(object="plant", position=(3.5, 0.5, 3.5), direction="north")
    report = validate_physics(env)
    assert dims(report) == (True, False, True)
    assert any("float" in v.message for v in report.failures)


def test_colliding_objects_flip_only_the_entity_dimension():
    env = base_env()
    env.placements[2] = Placement(object="plant", position=(2.0, 0.0, 1.0), direction="north")
    report = validate_physics(env)
    assert dims(report) == (True, False, True)
    assert any("collide" in v.message for v in report.failures)


def test_object_outside_its_room_fails():
    env = base_env()
    env.placements[2] = Placement(object="plant", position=(4.5, 0.0, 3.5), direction="north")
    assert not passes(validate_physics(env), "entity")


def test_object_through_the_ceiling_fails():
    env = base_env(
        objects=[obj("pic", (0.6, 0.45, 0.05))],
        placements=[Placement(object="pic", position=(2.0, 2.7, 0.025), direction="north")],
        relations=[SpatialRelation(kind="mounted_on_wall", subject="pic")],
    )
    report = validate_physics(env)
    assert not passes(report, "entity")
    assert any("ceiling" in v.message for v in report.failures)


def test_mounted_object_at_normal_height_passes():
    env = base_env(
        objects=[obj("pic", (0.6, 0.45, 0.05))],
        placements=[Placement(object="pic", position=(2.0, 1.4, 0.025), direction="north")],
        relations=[SpatialRelation(kind="mounted_on_wall", subject="pic")],
    )
    assert validate_physics(env).ok


@pytest.mark.parametrize("direction", ["north", "south", "east", "west"])
def test_a_mount_tie_passes_wherever_the_room_sits(direction):
    # the back face exactly MOUNT_EPS off its wall: the gap reads a few ulps
    # above or below MOUNT_EPS depending on the room's offset, and the
    # _TOL slack keeps the verdict from depending on it
    size = (1.0, 0.6, 0.1)
    w, d = (size[2], size[0]) if direction in ("east", "west") else (size[0], size[2])
    rng = random.Random(5)
    offsets = [(0.0, 0.0)] + [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(200)]
    for dx, dz in offsets:
        x, z = {
            "north": (2 + dx, dz + MOUNT_EPS + d / 2),
            "south": (2 + dx, 4 + dz - MOUNT_EPS - d / 2),
            "east": (dx + MOUNT_EPS + w / 2, 2 + dz),
            "west": (4 + dx - MOUNT_EPS - w / 2, 2 + dz),
        }[direction]
        env = base_env(
            rooms=[make_room("r", dx, dz, 4 + dx, 4 + dz)],
            objects=[obj("pic", size)],
            placements=[Placement(object="pic", position=(x, 1.4, z), direction=direction)],
            relations=[SpatialRelation(kind="mounted_on_wall", subject="pic")],
        )
        report = validate_physics(env)
        assert report.ok, (dx, dz, [v.message for v in report.failures])


def test_an_in_tie_passes_wherever_the_room_sits():
    # a 0.2 m toy in a 0.5 m crate with its east face exactly SUPPORT_EPS
    # past the crate's: the overhang reads a few ulps above or below
    # SUPPORT_EPS depending on the room's offset, and the _TOL slack keeps
    # the verdict from depending on it
    rng = random.Random(0)
    offsets = [(0.0, 0.0)] + [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(2000)]
    for dx, dz in offsets:
        x, z = 2 + dx, 2 + dz
        env = base_env(
            rooms=[make_room("r", dx, dz, 4 + dx, 4 + dz)],
            objects=[obj("crate", (0.5, 0.5, 0.5)), obj("toy", (0.2, 0.2, 0.2))],
            placements=[
                Placement(object="crate", position=(x, 0.0, z), direction="north"),
                Placement(object="toy", position=(x + 0.25 + SUPPORT_EPS - 0.1, 0.0, z), direction="north"),
            ],
            relations=[SpatialRelation(kind="in", subject="toy", reference="crate")],
        )
        report = validate_physics(env)
        assert report.ok, (dx, dz, [v.message for v in report.failures])
        assert rebuild_metadata(env)[("toy", "location")] == "crate_in", (dx, dz)


def test_stacked_object_with_thin_support_overlap_floats():
    env = base_env()
    # push the book so it barely clips the sofa footprint corner
    env.placements[1] = Placement(object="book", position=(3.05, 0.8, 1.5), direction="north")
    assert not passes(validate_physics(env), "entity")


def test_contained_pair_is_exempt_from_collision():
    box = obj("box", (0.5, 0.3, 0.4))
    toy = obj("toy", (0.2, 0.3, 0.15))
    place = [
        Placement(object="box", position=(1.0, 0.0, 1.0), direction="north"),
        Placement(object="toy", position=(1.0, 0.0, 1.0), direction="north"),
    ]
    with_in = base_env(
        objects=[box, toy],
        placements=place,
        relations=[SpatialRelation(kind="in", subject="toy", reference="box")],
    )
    assert validate_physics(with_in).ok

    # same geometry without the containment claim is a collision and a float
    without = base_env(objects=[box, toy], placements=place, relations=[])
    report = validate_physics(without)
    assert not passes(report, "entity")
    assert any("collide" in v.message for v in report.failures)


# ---------------------------------------------------------------------------
# support: the metadata location and the floating check are one rule
# ---------------------------------------------------------------------------


def container_env(toy_y):
    """base_env plus a 1 x 0.8 x 1 box on the floor and a 0.2 m toy in it,
    the toy's bottom at toy_y."""
    env = base_env()
    env.objects += [obj("box", (1.0, 0.8, 1.0)), obj("toy", (0.2, 0.2, 0.2))]
    env.placements += [
        Placement(object="box", position=(1.0, 0.0, 3.0), direction="north"),
        Placement(object="toy", position=(1.0, toy_y, 3.0), direction="north"),
    ]
    env.relations.append(SpatialRelation(kind="in", subject="toy", reference="box"))
    return env


@pytest.mark.parametrize("lift", [0.2, 0.4])
def test_a_toy_raised_inside_its_container_floats(lift):
    on_bottom = container_env(0.0)
    assert validate_physics(on_bottom).ok
    assert rebuild_metadata(on_bottom)[("toy", "location")] == "box_in"
    # the in relation still holds, since the toy stays inside the box, so
    # exactly the entity dimension flips, and the metadata agrees
    env = container_env(lift)
    report = validate_physics(env)
    assert dims(report) == (True, False, True)
    assert [v.message for v in report.failures] == [
        f"object toy floats at height {lift:.3f} with no support"
    ]
    assert rebuild_metadata(env)[("toy", "location")] == "floating"


def test_an_item_on_exactly_half_its_footprint_rests_on_its_host():
    # a solver placement on a 0.1 m grid: the footprint overlap is exactly
    # half the item's in reals and 3e-17 m^2 short of it in floats, which
    # the on_top_of check allows for; the metadata must allow for it too
    env = EnvironmentSpec(
        id="e",
        task_id="t",
        trajectory_id="traj",
        rooms=[make_room("r", 0, 0, 5, 5)],
        objects=[obj("item0", (0.23, 0.27, 0.14)), obj("anchor3", (0.88, 0.63, 0.82))],
        placements=[
            Placement(object="item0", position=(4.17, 0.63, 1.17), direction="east"),
            Placement(object="anchor3", position=(4.31, 0.0, 1.61), direction="east"),
        ],
        relations=[SpatialRelation(kind="on_top_of", subject="item0", reference="anchor3")],
    )
    assert validate_physics(env).ok
    assert rebuild_metadata(env)[("item0", "location")] == "anchor3_top"


SRC = Path(envcover.__file__).parent


def imported(module):
    """(module, name) for each import in the envcover module, the module
    named without its package: ("environment", "placed_box") for
    `from .environment import placed_box`, ("", "solver") for
    `from . import solver`, ("solver", None) for `import envcover.solver`."""
    pairs = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("envcover").removeprefix(".")
            pairs.update((base, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            pairs.update((alias.name.removeprefix("envcover."), None) for alias in node.names)
    return pairs


def test_the_solver_and_the_validator_share_no_geometry():
    # a solver bug must not pass its own check: neither module imports the
    # other, and the solver uses none of the support helpers that the
    # validator and the metadata share
    for module, other in (("validator", "solver"), ("solver", "validator")):
        pairs = imported(module)
        assert not [(m, n) for m, n in pairs if m == other or (m == "" and n == other)]
    shared = {"overlap", "rests_on", "inside", "back_gap", "support_location",
              "placed_boxes", "mounted_subjects"}
    solver = imported("solver")
    assert ("", "environment") not in solver and ("environment", None) not in solver
    assert not {n for m, n in solver if m == "environment"} & shared
    assert shared <= {n for m, n in imported("validator") if m == "environment"}


# ---------------------------------------------------------------------------
# relation dimension
# ---------------------------------------------------------------------------


def test_violated_distance_relation_flips_only_relations():
    env = base_env(
        relations=[
            SpatialRelation(kind="on_top_of", subject="book", reference="sofa"),
            SpatialRelation(kind="near", subject="plant", reference="sofa", priority="enrichment"),
        ]
    )
    # plant center (3.5, 3.5) vs sofa center (2.0, 1.0): distance ~2.9 > 1.5
    report = validate_physics(env)
    assert dims(report) == (True, True, False)
    assert any(v.rule == "relation" for v in report.failures)


def test_a_side_of_across_two_rooms_flips_only_the_relation_dimension(tmp_path):
    # the chair stands 0.6 m beside the cabinet, but a wall runs between
    # them: contact and relative relations hold within one room only
    env = base_env(
        rooms=[make_room("r", 0, 0, 4, 4), make_room("r2", 4, 0, 8, 4)],
        objects=[obj("chair", (0.4, 0.8, 0.4)), obj("cabinet", (0.4, 0.8, 0.4), room="r2")],
        placements=[
            Placement(object="chair", position=(3.7, 0.0, 2.0), direction="north"),
            Placement(object="cabinet", position=(4.3, 0.0, 2.0), direction="north"),
        ],
        relations=[SpatialRelation(kind="side_of", subject="chair", reference="cabinet")],
    )
    scene = tmp_path / "env-000.json"
    scene.write_text(serialize_environment(env))
    report = validate_physics(deserialize_environment(scene.read_text()))
    assert dims(report) == (True, True, False)
    assert [f.message for f in report.failures] == [
        "side_of(chair, cabinet): subject in room r, reference in room r2"
    ]
    # a distance relation may span the wall
    env.relations = [SpatialRelation(kind="near", subject="chair", reference="cabinet")]
    assert validate_physics(env).ok


def test_relaxed_relation_is_skipped_and_reported():
    env = base_env(
        relations=[
            SpatialRelation(kind="on_top_of", subject="book", reference="sofa"),
            SpatialRelation(kind="near", subject="plant", reference="sofa", priority="enrichment"),
        ],
        relaxed_relations=[1],
    )
    report = validate_physics(env)
    assert report.ok
    assert report.skipped_relations == [1]

    violations, skipped = check_relations(env)
    assert violations == [] and skipped == [1]


def test_holding_relation_passes_when_geometry_matches():
    env = base_env(
        relations=[
            SpatialRelation(kind="on_top_of", subject="book", reference="sofa"),
            SpatialRelation(kind="near", subject="book", reference="sofa", priority="enrichment"),
        ]
    )
    assert validate_physics(env).ok


# ---------------------------------------------------------------------------
# the dimensions together
# ---------------------------------------------------------------------------


def test_checks_are_independent_functions():
    env = base_env(rooms=[make_room("r", 0, 0, 4, 4), make_room("r2", 3, 3, 6, 6)])
    env.placements[2] = Placement(object="plant", position=(3.5, 0.5, 3.5), direction="north")
    assert check_floor_plan(env)
    assert check_entities(env)
    # both dimensions fail at once and neither masks the other
    report = validate_physics(env)
    assert dims(report) == (False, False, True)


def test_solver_output_passes_the_validator(built_envs):
    for env in built_envs:
        report = validate_physics(env)
        assert report.ok, [f"{v.rule}: {v.message}" for v in report.failures]
